"""Span recording around the public functions of each zeroless module.

The package is not edited: ``Tracer.install`` swaps each listed function
for a span-recording wrapper in every ``zeroless`` module namespace that
holds it (``zeroless.genome.omega`` is ``zeroless.core.omega``), and
``Tracer.uninstall`` puts the originals back. A span is (id, parent id,
cause id, name, start ns, end ns); the cause is the root span of the
operation that led to it. Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

#: Traced functions per layer. ``backend`` is ``zeroless._backend``, the
#: digit kernels; its metric names drop the underscore, which a metric
#: name may not start with.
LAYERS = {
    "cli": ("zeroless.cli", ("main",)),
    "genome": ("zeroless.genome", ("read_fasta", "rank_sequence", "unrank_sequence")),
    "core": (
        "zeroless.core",
        ("omega", "sigma", "parse_lex", "format_lex", "successor", "predecessor", "parse_zero", "format_zero"),
    ),
    "arithmetic": ("zeroless.arithmetic", ("add", "multiply", "lattice_multiply")),
    "conversion": ("zeroless.conversion", ("theta_lex_to_zero", "theta_zero_to_lex")),
    "tables": ("zeroless.tables", ("build_multiplication_table", "table_entries")),
    "backend": (
        "zeroless._backend",
        (
            "add_digits",
            "successor_digits",
            "predecessor_digits",
            "multiply_digits",
            "lex_to_zero_digits",
            "zero_to_lex_digits",
            "horner_value",
        ),
    ),
}

#: Modules that define the kernels; calls between kernels stay inside a
#: ``backend.*`` span instead of opening spans of their own.
_KERNEL_IMPLS = ("zeroless._kernels_py", "zeroless._kernels_cy")

LEXNUMERAL_INIT = "core.LexNumeral.init"
INT_FORMAT = "int_str.format"
INT_PARSE = "int_str.parse"
ROOT = "op"  # one per CLI job or call-stream item; not a layer


def _count_hooks(counts):
    """Per-span hooks ``(args, result)`` that count work at the layer boundary."""

    def add(key, n):
        counts[key] += n

    return {
        "core.omega": lambda args, r: add("core.digits_ranked", len(args[0].digits)),
        "core.sigma": lambda args, r: r is not None and add("core.digits_unranked", len(r.digits)),
        "arithmetic.add": lambda args, r: add("arithmetic.operand_digits", len(args[0]) + len(args[1])),
        "arithmetic.multiply": lambda args, r: add("arithmetic.operand_digits", len(args[0]) + len(args[1])),
        "arithmetic.lattice_multiply": lambda args, r: add(
            "arithmetic.operand_digits", len(args[0]) + len(args[1])
        ),
        "tables.build_multiplication_table": lambda args, r: r is not None
        and add("tables.entries", len(r.entries)),
    }


class Tracer:
    """Spans and counters for one traced pass; spans are kept only when asked."""

    def __init__(self, keep_spans: bool):
        self.names = []
        self._name_ids = {}
        self.spans = (
            {f: array("q") for f in ("id", "parent", "cause", "start", "end")} | {"name": array("H")}
            if keep_spans
            else None
        )
        self.stack = []  # [span id, name, start ns, ns covered by children]
        self.next_id = 1
        self.self_ns = Counter()
        self.calls = Counter()
        self.raised = Counter()  # spans that ended in an exception
        self.counts = Counter()
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def push(self, name):
        sid = self.next_id
        self.next_id = sid + 1
        self.stack.append([sid, name, perf_counter_ns(), 0])

    def pop(self, ok=True):
        end = perf_counter_ns()
        sid, name, start, covered = self.stack.pop()
        dur = end - start
        self.self_ns[name] += dur - covered
        self.calls[name] += 1
        if not ok:
            self.raised[name] += 1
        if self.stack:
            self.stack[-1][3] += dur
            parent, cause = self.stack[-1][0], self.stack[0][0]
        else:
            parent, cause = 0, sid
        if self.spans is not None:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            s = self.spans
            s["id"].append(sid)
            s["parent"].append(parent)
            s["cause"].append(cause)
            s["start"].append(start)
            s["end"].append(end)
            s["name"].append(nid)

    def item(self):
        return _Span(self, ROOT)

    def fmt(self, n: int) -> str:
        self.push(INT_FORMAT)
        s = str(n)
        self.pop()
        self.counts["int_str.digits"] += len(s)
        return s

    def parse(self, s: str) -> int:
        self.push(INT_PARSE)
        n = int(s)
        self.pop()
        self.counts["int_str.digits"] += len(s)
        return n

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        push, pop = self.push, self.pop

        def wrapper(*args, **kwargs):
            push(name)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                pop(ok)
                if hook is not None:
                    hook(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        """``read_fasta`` yields records: each ``next()`` is one span."""
        push, pop, counts = self.push, self.pop, self.counts

        def wrapper(*args, **kwargs):
            records = fn(*args, **kwargs)

            def timed():
                while True:
                    push(name)
                    try:
                        rec = next(records)
                    except StopIteration:
                        pop(True)
                        return
                    except BaseException:
                        pop(False)
                        raise
                    pop(True)
                    counts["genome.records_kept"] += 1
                    counts["genome.bases"] += len(rec.sequence)
                    yield rec

            return timed()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        hooks = _count_hooks(self.counts)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("zeroless") and n not in _KERNEL_IMPLS]
        for layer, (modname, fnames) in LAYERS.items():
            home = sys.modules[modname]
            for fname in fnames:
                name = f"{layer}.{fname}"
                fn = getattr(home, fname)
                if fname == "read_fasta":
                    wrapper = self._wrap_generator(name, fn)
                else:
                    wrapper = self._wrap(name, fn, hooks.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        lex = sys.modules["zeroless.core"].LexNumeral
        self._saved.append((lex, "__post_init__", lex.__post_init__))
        lex.__post_init__ = self._wrap(LEXNUMERAL_INIT, lex.__post_init__, None)

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    # -- results --------------------------------------------------------------

    def write_spans(self, path):
        """Write kept spans as gzip TSV: id, parent, cause, name, start_ns, end_ns."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id\tparent\tcause\tname\tstart_ns\tend_ns\n")
            names = self.names
            for row in zip(s["id"], s["parent"], s["cause"], s["name"], s["start"], s["end"]):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]}\t{row[5]}\n")
        return len(s["id"])


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.push(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.pop(exc_type is None)
        return False


def layer_metric_names():
    """Every per-layer metric name with its unit, in output order."""
    names = []
    for layer, (_, fnames) in LAYERS.items():
        for fname in fnames:
            names += [(f"{layer}.{fname}.self_s", "s"), (f"{layer}.{fname}.calls", "count")]
    names += [
        ("core.LexNumeral.init_s", "s"),
        ("core.LexNumeral.inits", "count"),
        ("int_str.format_s", "s"),
        ("int_str.parse_s", "s"),
        ("int_str.calls", "count"),
        ("int_str.digits", "count"),
        ("genome.records_read", "count"),
        ("genome.records_kept_ratio", "ratio"),
        ("genome.bases", "count"),
        ("core.digits_ranked", "count"),
        ("core.digits_unranked", "count"),
        ("arithmetic.operand_digits", "count"),
        ("arithmetic.lattice_rejected_ratio", "ratio"),
        ("arithmetic.valid_rejected", "count"),
        ("tables.entries", "count"),
    ]
    names += [(f"{layer}.failed", "count") for layer in LAYERS]
    names += [
        ("backend.bench_add_20k_s", "s"),
        ("backend.bench_multiply_400_s", "s"),
        ("backend.bench_successor_carry_20k_s", "s"),
        ("backend.bench_shift_base60_20k_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def layer_metrics(tr: Tracer, records_read: int, valid_rejected: int, failed: Counter) -> dict:
    """Per-layer values of one traced pass (bench and overhead are added by the caller).

    ``failed`` counts, per layer, the checks of the pass that found a
    wrong output, an unexpected exit status or a rejected valid input.
    Exceptions inside spans are not failures by themselves: a lattice
    call that rejects an input it cannot split is an outcome, counted in
    ``arithmetic.lattice_rejected_ratio``.
    """
    out = {}
    for layer, (_, fnames) in LAYERS.items():
        for fname in fnames:
            name = f"{layer}.{fname}"
            out[f"{name}.self_s"] = tr.self_ns[name] / 1e9
            out[f"{name}.calls"] = tr.calls[name]
    c = tr.counts
    lattice = "arithmetic.lattice_multiply"
    out.update(
        {
            "core.LexNumeral.init_s": tr.self_ns[LEXNUMERAL_INIT] / 1e9,
            "core.LexNumeral.inits": tr.calls[LEXNUMERAL_INIT],
            "int_str.format_s": tr.self_ns[INT_FORMAT] / 1e9,
            "int_str.parse_s": tr.self_ns[INT_PARSE] / 1e9,
            "int_str.calls": tr.calls[INT_FORMAT] + tr.calls[INT_PARSE],
            "int_str.digits": c["int_str.digits"],
            "genome.records_read": records_read,
            "genome.records_kept_ratio": c["genome.records_kept"] / records_read if records_read else 0.0,
            "genome.bases": c["genome.bases"],
            "core.digits_ranked": c["core.digits_ranked"],
            "core.digits_unranked": c["core.digits_unranked"],
            "arithmetic.operand_digits": c["arithmetic.operand_digits"],
            "arithmetic.lattice_rejected_ratio": tr.raised[lattice] / tr.calls[lattice] if tr.calls[lattice] else 0.0,
            "arithmetic.valid_rejected": valid_rejected,
            "tables.entries": c["tables.entries"],
        }
    )
    for layer in LAYERS:
        out[f"{layer}.failed"] = failed[layer]
    return out
