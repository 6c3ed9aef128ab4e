"""Seeded inputs, CLI jobs, in-process call streams and oracles.

Each workload is a ``Plan``: a list of CLI jobs (argv after
``python -m zeroless.cli``, an optional stdin file and a check of the
output) and an in-process call stream over the library. Every output is
checked against an oracle written here with plain Python ints, never by
calling back into zeroless.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

#: Linux limit on one argv string; the decimal rank passed to
#: ``zeroless unrank`` must stay below it (about 2e5 bases).
MAX_ARG_STRLEN = 131072

#: Calls timed again between CLI jobs: after every job the contigs
#: records up to RETIME_BASES long plus one up to three times that, and
#: the reads stream; after one job in RETIME_SHARES all small numeral
#: calls. A slow spell of the host can cover all the samples a short call
#: gets from the passes alone; samples spread over the run even it out.
RETIME_BASES = 2000
RETIME_SHARES = 4
STREAM_READS = 2000

_ACGT_DIGITS = str.maketrans("ACGT", "0123")
_DECIMAL_X = "123456789X"
_BRACKET = re.compile(r"\[(\d+)\]")


#: Layer checked by each CLI command and in-process call: a failed check
#: counts towards ``<layer>.failed`` in the traced run.
CLI_LAYER = {
    "rank": "genome", "unrank": "genome", "table": "tables", "convert": "conversion",
    "mul": "arithmetic", "add": "arithmetic", "succ": "core", "pred": "core",
    "encode": "core", "decode": "core", "enumerate": "core",
}
CALL_LAYER = {
    "add": "arithmetic", "multiply": "arithmetic", "lattice_multiply": "arithmetic",
    "successor": "core", "predecessor": "core", "sigma": "core", "omega": "core",
    "parse_lex": "core", "format_lex": "core",
    "theta_lex_to_zero": "conversion", "theta_zero_to_lex": "conversion",
}


class Checker:
    """Counts checked operations; a failed check never aborts the run.

    ``valid_rejected`` counts valid lattice inputs that the program
    rejects (its generator split is greedy). They are reported on their
    own, apart from ``failed``. ``by_layer`` counts both per layer.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.valid_rejected = 0
        self.by_layer = Counter()
        self.notes = []

    def check(self, ok: bool, what: str, layer: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.by_layer[layer] += 1
            self._note(f"FAILED {what}")
        return ok

    def rejected_valid(self, what: str, layer: str):
        self.attempted += 1
        self.valid_rejected += 1
        self.by_layer[layer] += 1
        if self.valid_rejected <= 3:
            self._note(f"valid input rejected: {what}")

    def at(self, layer: str) -> "_LayerChecker":
        return _LayerChecker(self, layer)

    def _note(self, text):
        text = text[:300]
        if len(self.notes) < 20 and text not in self.notes:
            self.notes.append(text)


class _LayerChecker:
    """A Checker whose checks default to one layer."""

    def __init__(self, chk: Checker, layer: str):
        self.chk, self.layer = chk, layer

    def check(self, ok: bool, what: str, layer: str | None = None) -> bool:
        return self.chk.check(ok, what, layer or self.layer)

    def rejected_valid(self, what: str):
        self.chk.rejected_valid(what, self.layer)


@dataclass
class Job:
    """One CLI process: ``python -m zeroless.cli *argv``."""

    argv: tuple
    check: Callable  # (stdout: str, exit_code: int, checker: Checker) -> None
    stdin: Path | None = None
    records: int = 0  # FASTA records in the job's input


@dataclass
class StreamResult:
    """Timings of one pass of a call stream; calls come in the same order every pass."""

    latencies: list = field(default_factory=list)  # seconds per call that call_p50/tail cover
    points: list = field(default_factory=list)  # (item size, seconds) for size_slope
    busy: float = 0.0  # seconds spent in timed library calls


@dataclass
class Plan:
    jobs: list
    stream: Callable  # (zeroless module, probe, checker) -> StreamResult
    stream_records: int = 0  # FASTA records the stream reads
    # (zeroless module, checker, step) -> [(call index, seconds)]: times
    # again the stream's cheap calls, or all of them, between CLI jobs
    retime: Callable | None = None


class PlainProbe:
    """Untraced stand-in for the tracer: bare str()/int() and no spans."""

    fmt = staticmethod(str)
    parse = staticmethod(int)
    item = staticmethod(nullcontext)


# --- oracles ----------------------------------------------------------------


def value(digits, k: int) -> int:
    """Radix value of a digit sequence, split in halves (not left-to-right)."""
    n = len(digits)
    if n <= 48:
        v = 0
        for d in digits:
            v = v * k + d
        return v
    h = n // 2
    return value(digits[:h], k) * k ** (n - h) + value(digits[h:], k)


def dna_rank(seq: str) -> int:
    """Shortlex rank of a DNA sequence: base-4 value of A=0..T=3 plus minlex."""
    n = len(seq)
    return (int(seq.translate(_ACGT_DIGITS), 4) if n else 0) + (4**n - 1) // 3


def lex_text(digits, k: int) -> str:
    """Text the CLI uses for a zeroless numeral: 1..9,X up to base 10, else brackets."""
    if not digits:
        return "ε"
    if k <= 10:
        return "".join(_DECIMAL_X[d - 1] for d in digits)
    return "".join(f"[{d}]" for d in digits)


def lex_digits(text: str, k: int):
    """Digits of a zeroless numeral in CLI text; None when the text is malformed."""
    if text == "ε":
        return ()
    if k <= 10:
        try:
            digits = tuple(_DECIMAL_X.index(c) + 1 for c in text)
        except ValueError:
            return None
    else:
        digits = tuple(int(d) for d in _BRACKET.findall(text))
        if "".join(f"[{d}]" for d in digits) != text:
            return None
    return digits if all(1 <= d <= k for d in digits) else None


def lex_value(text: str, k: int):
    digits = lex_digits(text, k)
    return None if digits is None else value(digits, k)


def zero_value(text: str, k: int):
    """Value of a canonical with-zero numeral in CLI text; None when malformed."""
    if k <= 10:
        if not text.isdigit() or (len(text) > 1 and text[0] == "0"):
            return None
        try:
            return int(text, k)
        except ValueError:
            return None
    digits = [int(d) for d in _BRACKET.findall(text)]
    if "".join(f"[{d}]" for d in digits) != text or not digits:
        return None
    if max(digits) >= k or (len(digits) > 1 and digits[0] == 0):
        return None
    return value(digits, k)


def zero_digits(n: int, k: int) -> list:
    """Canonical with-zero digits of n >= 0, most significant first."""
    if n < k:
        return [n]
    h = max(1, int(math.log(n, k)) // 2)
    hi, lo = divmod(n, k**h)
    low = zero_digits(lo, k)
    return zero_digits(hi, k) + [0] * (h - len(low)) + low


def _sums(gens, limit):
    """Values 0..limit that are sums of generators, repetition allowed."""
    reach = [True] + [False] * limit
    for v in range(1, limit + 1):
        reach[v] = any(g <= v and reach[v - g] for g in gens)
    return reach


def lattice_valid(x, y, gens, k) -> bool:
    """Whether every lattice cell can be split over the generators."""
    if gens is None:
        return True
    g = set(gens)
    reach = _sums(g, k)
    for a in set(x):
        for b in set(y):
            if not (a in g or b in g or reach[a] or reach[b]):
                return False
    return True


def _lines(out: str):
    return out.split("\n")[:-1] if out.endswith("\n") else out.split("\n")


def _expect_one(text_check):
    """Check a one-line result: exit 0 and ``text_check(line)`` true."""

    def check(out, code, chk, what):
        lines = _lines(out)
        chk.check(code == 0 and len(lines) == 1 and text_check(lines[0]), what)

    return check


def _job(argv, check, **kw):
    what = "zeroless " + " ".join(a if len(a) <= 24 else a[:20] + "..." for a in argv)
    layer = CLI_LAYER[argv[0]]
    return Job(tuple(argv), lambda out, code, chk: check(out, code, chk.at(layer), what), **kw)


# --- DNA workloads ------------------------------------------------------------


def _write_fasta(path: Path, records, width: int):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rid, seq in records:
            fh.write(f">{rid}\n")
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width] + "\n")


def _random_dna(rng, n):
    return "".join(rng.choices("ACGT", k=n))


def _check_rank_output(records, policy_skip):
    """Check of ``zeroless rank``: one ``id<TAB>rank`` line per kept record."""
    expected = [(rid, seq) for rid, seq in records if not (policy_skip and "N" in seq)]

    def check(out, code, chk, what):
        lines = _lines(out)
        if not chk.check(code == 0 and len(lines) == len(expected), f"{what}: exit {code}, {len(lines)} lines"):
            return
        for line, (rid, seq) in zip(lines, expected):
            got_id, _, got_rank = line.partition("\t")
            chk.check(got_id == rid and got_rank == str(dna_rank(seq)), f"{what}: record {rid}")

    return check


def reads_plan(rng, workdir: Path, scale: float) -> Plan:
    """Short reads: 150 bases over two lines, about 1% holding an N."""
    n = max(40, int(20000 * scale))
    records = []
    for i in range(n):
        seq = _random_dna(rng, 150)
        if rng.random() < 0.01:
            pos = rng.randrange(150)
            seq = seq[:pos] + "N" + seq[pos + 1 :]
        records.append((f"read{i}", seq))
    path = workdir / "reads.fa"
    _write_fasta(path, records, 80)
    check = _check_rank_output(records, policy_skip=True)
    outputs = []

    def check_and_keep(out, code, chk, what):
        check(out, code, chk, what)
        outputs.append(out)
        if len(outputs) == 2:  # file and stdin read the same bytes
            chk.check(outputs[0] == outputs[1], "rank --fasta FILE and --fasta - disagree", "cli")
            outputs.clear()

    jobs = [
        _job(["rank", "--policy", "skip", "--fasta", str(path)], check_and_keep, records=n),
        _job(["rank", "--policy", "skip", "--fasta", "-"], check_and_keep, stdin=path, records=n),
    ]
    # The in-process stream reads the first STREAM_READS records only: a
    # pass is then short enough to repeat after every CLI job, and the
    # tail percentile (TAIL_BEYOND calls above it) is not decided by the
    # few slowest of 20000 calls, which on a shared host are its stalls.
    head = records[: max(40, int(STREAM_READS * scale))]
    stream_path = workdir / "reads-stream.fa"
    _write_fasta(stream_path, head, 80)
    kept = {rid: seq for rid, seq in head if "N" not in seq}
    checkpoints = {len(kept) // 8, len(kept) // 4, len(kept) // 2, len(kept)}

    def stream(zl, probe, chk):
        res = StreamResult()
        it = zl.read_fasta(str(stream_path), policy="skip")
        seen = []
        while True:
            with probe.item():
                t0 = perf_counter()
                rec = next(it, None)
                if rec is None:
                    break
                text = probe.fmt(zl.rank_sequence(rec.sequence))
                dt = perf_counter() - t0
            res.latencies.append(dt)
            res.busy += dt
            seen.append(rec.id)
            if len(seen) in checkpoints:
                res.points.append((len(seen), res.busy))
            seq = kept.get(rec.id)
            chk.check(seq == rec.sequence and text == str(dna_rank(seq)), f"rank_sequence({rec.id})", "genome")
        chk.check(seen == list(kept), "read_fasta(policy='skip') kept the wrong records", "genome")
        return res

    def retime(zl, chk, step):
        # a record's call is next() on the reader plus rank and str(), so
        # only a whole pass times it again
        return list(enumerate(stream(zl, PlainProbe, chk).latencies))

    return Plan(jobs, stream, stream_records=len(head), retime=retime)


def contig_lengths(scale: float) -> list:
    """Lengths log-spaced from 1e2 to 3e4 bases (scaled), two records each.

    An odd number of lengths puts the median and the tail percentile of
    the call times inside one length rather than between two.
    """
    lo, hi = max(8, int(100 * scale)), max(16, int(30000 * scale))
    steps = 11
    return [round(lo * (hi / lo) ** (i / (steps - 1))) for i in range(steps) for _ in range(2)]


def contigs_plan(rng, workdir: Path, scale: float) -> Plan:
    """Long records; rank the file, then unrank every rank and compare."""
    records = [(f"contig{i}_len{n}", _random_dna(rng, n)) for i, n in enumerate(contig_lengths(scale))]
    for rid, seq in records:
        if len(str(dna_rank(seq))) >= MAX_ARG_STRLEN:
            raise ValueError(f"{rid}: decimal rank would exceed MAX_ARG_STRLEN")
    path = workdir / "contigs.fa"
    _write_fasta(path, records, 80)
    jobs = [_job(["rank", "--fasta", str(path)], _check_rank_output(records, False), records=len(records))]
    for rid, seq in records:
        jobs.append(_job(["unrank", str(dna_rank(seq))], _expect_one(lambda line, s=seq: line == s)))

    def round_trip(zl, probe, chk, rid, seq):
        """Seconds of a rank call and of an unrank call on one record."""
        with probe.item():
            t0 = perf_counter()
            text = probe.fmt(zl.rank_sequence(seq))
            t1 = perf_counter()
            back = zl.unrank_sequence(probe.parse(text))
            t2 = perf_counter()
        chk.check(text == str(dna_rank(seq)) and back == seq, f"rank/unrank round trip of {rid}", "genome")
        return t1 - t0, t2 - t1

    def stream(zl, probe, chk):
        res = StreamResult()
        for rid, seq in records:
            rank_s, unrank_s = round_trip(zl, probe, chk, rid, seq)
            res.latencies += (rank_s, unrank_s)
            res.points.append((len(seq), rank_s + unrank_s))
            res.busy += rank_s + unrank_s
        return res

    cheap = [i for i, (_, seq) in enumerate(records) if len(seq) <= RETIME_BASES]
    middle = [i for i, (_, seq) in enumerate(records) if RETIME_BASES < len(seq) <= 3 * RETIME_BASES]

    def retime(zl, chk, step):
        timed = []
        for i in cheap + middle[step % len(middle) :][:1] if middle else cheap:  # and one middle record
            rank_s, unrank_s = round_trip(zl, PlainProbe, chk, *records[i])
            timed += ((2 * i, rank_s), (2 * i + 1, unrank_s))
        return timed

    return Plan(jobs, stream, retime=retime)


# --- numerals -------------------------------------------------------------------


def rand_digits(rng, k, n):
    return tuple(rng.choices(range(1, k + 1), k=n))


def _small_ops(rng, zl, count):
    """Mixed 1..12-digit calls in bases 10 and 60: (name, fn name, args, expected check)."""
    ops = []
    kinds = ("add", "multiply", "successor", "predecessor", "sigma", "omega", "parse_lex", "format_lex", "lattice")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        k = rng.choice((10, 60))
        x = rand_digits(rng, k, rng.randint(1, 12))
        y = rand_digits(rng, k, rng.randint(1, 12))
        a, b = zl.LexNumeral(k, x), zl.LexNumeral(k, y)
        vx, vy = value(x, k), value(y, k)
        alpha = zl.default_alphabet(k)
        if kind == "add":
            ops.append((kind, "add", (a, b), lambda r, v=vx + vy, k=k: value(r.digits, k) == v))
        elif kind == "multiply":
            ops.append((kind, "multiply", (a, b), lambda r, v=vx * vy, k=k: value(r.digits, k) == v))
        elif kind == "successor":
            ops.append((kind, "successor", (a,), lambda r, v=vx + 1, k=k: value(r.digits, k) == v))
        elif kind == "predecessor":
            ops.append((kind, "predecessor", (a,), lambda r, v=vx - 1, k=k: value(r.digits, k) == v))
        elif kind == "sigma":
            ops.append((kind, "sigma", (k, vx), lambda r, x=x: r.digits == x))
        elif kind == "omega":
            ops.append((kind, "omega", (a,), lambda r, v=vx: r == v))
        elif kind == "parse_lex":
            ops.append((kind, "parse_lex", (lex_text(x, k), k, alpha), lambda r, x=x: r.digits == x))
        elif kind == "format_lex":
            ops.append((kind, "format_lex", (a, alpha), lambda r, t=lex_text(x, k): r == t))
        else:
            k = 10
            x, y = rand_digits(rng, k, rng.randint(1, 6)), rand_digits(rng, k, rng.randint(1, 6))
            gens = tuple(sorted(rng.sample(range(1, k + 1), rng.randint(1, 4))))
            ops.append(_lattice_op(zl, x, y, gens, k))
    return ops


def _lattice_op(zl, x, y, gens, k):
    valid = lattice_valid(x, y, gens, k)
    args = (zl.LexNumeral(k, x), zl.LexNumeral(k, y), gens)
    return ("lattice", "lattice_multiply", args, (valid, value(x, k) * value(y, k)))


def _sweep_ops(rng, zl, scale):
    """Size sweep: (name, fn name, args, check, slope size or None)."""
    ops = []
    for i in range(9):  # multiply at 10..1000 digits; these give size_slope
        n = max(2, round(10 * scale * 100 ** (i / 8)))
        x, y = rand_digits(rng, 10, n), rand_digits(rng, 10, n)
        v = value(x, 10) * value(y, 10)
        ops.append(("multiply", "multiply", (zl.LexNumeral(10, x), zl.LexNumeral(10, y)),
                    lambda r, v=v: value(r.digits, 10) == v, n))
    for n in (10, 30, 100, 300):  # lattice with random generator sets that hold 1
        n = max(2, round(n * scale))
        x, y = rand_digits(rng, 10, n), rand_digits(rng, 10, n)
        gens = tuple(sorted({1, *rng.sample(range(2, 11), rng.randint(1, 4))}))
        ops.append(_lattice_op(zl, x, y, gens, 10) + (None,))
    for k in (10, 60):
        n = max(4, round(20000 * scale))
        x, y = rand_digits(rng, k, n), rand_digits(rng, k, n)
        v = value(x, k) + value(y, k)
        ops.append(("add", "add", (zl.LexNumeral(k, x), zl.LexNumeral(k, y)),
                    lambda r, v=v, k=k: value(r.digits, k) == v, None))
        for n in (1000, 10000):
            n = max(4, round(n * scale))
            x = rand_digits(rng, k, n)
            v = value(x, k)
            z = zero_digits(v, k)
            ops.append(("convert", "theta_lex_to_zero", (zl.LexNumeral(k, x),),
                        lambda r, z=z: list(r.digits) == z, None))
            ops.append(("convert", "theta_zero_to_lex", (zl.ZeroNumeral(k, tuple(z)),),
                        lambda r, x=x: r.digits == x, None))
            ops.append(("encode", "sigma", (k, v), lambda r, x=x: r.digits == x, None))
            ops.append(("decode", "omega", (zl.LexNumeral(k, x),), lambda r, v=v: r == v, None))
    return ops


def _run_op(zl, probe, chk, op) -> float:
    """Call one op, check its outcome and return the seconds the call took."""
    name, fn_name, args, expect = op[:4]
    layer = CALL_LAYER[fn_name]
    fn = getattr(zl, fn_name)  # looked up per call, so tracing wrappers apply
    with probe.item():
        t0 = perf_counter()
        try:
            result, raised = fn(*args), None
        except Exception as exc:  # a rejected input is an outcome to check, not a crash
            result, raised = None, exc
        dt = perf_counter() - t0
    if name == "lattice":
        valid, product = expect
        if raised is None:
            chk.check(valid and value(result.digits, args[0].base) == product, f"lattice_multiply {args[2]}", layer)
        elif isinstance(raised, ValueError) and valid:
            chk.rejected_valid(f"lattice_multiply({args[0]}, {args[1]}, generators={list(args[2])})", layer)
        else:
            chk.check(isinstance(raised, ValueError), f"lattice_multiply raised {raised!r}", layer)
    else:
        chk.check(raised is None and expect(result), f"{fn_name} on {name} input: {raised!r}", layer)
    return dt


def _lattice_job(x, y, gens, k=10):
    valid = lattice_valid(x, y, gens, k)
    product = value(x, k) * value(y, k)

    def check(out, code, chk, what):
        if code == 0:
            lines = _lines(out)
            chk.check(valid and len(lines) == 1 and lex_value(lines[0], k) == product, what)
        elif code == 1 and valid:
            chk.rejected_valid(what)
        else:
            chk.check(code == 1, f"{what}: exit {code}")

    argv = ["mul", "--generators", ",".join(map(str, gens)), lex_text(x, k), lex_text(y, k)]
    return _job(argv, check)


def numerals_plan(rng, workdir: Path, scale: float, zl) -> Plan:
    """Small calls and a size sweep in-process; a few CLI calls per op."""
    small = _small_ops(rng, zl, max(90, int(2700 * scale)))
    sweep = _sweep_ops(rng, zl, scale)

    def stream(zl, probe, chk):
        res = StreamResult()
        res.latencies = [_run_op(zl, probe, chk, op) for op in small]
        res.busy = sum(res.latencies)
        for op in sweep:
            dt = _run_op(zl, probe, chk, op)
            res.busy += dt
            if op[4] is not None:
                res.points.append((op[4], dt))
        return res

    def retime(zl, chk, step):
        if step % RETIME_SHARES:
            return []
        return [(i, _run_op(zl, PlainProbe, chk, op)) for i, op in enumerate(small)]

    jobs = []
    tk = max(4, int(300 * scale))

    def check_table(out, code, chk, what):
        lines = _lines(out)
        if not chk.check(code == 0 and len(lines) == tk * tk, f"{what}: exit {code}, {len(lines)} lines"):
            return
        bad = 0
        for i, line in enumerate(lines):
            a, b, r = (line.split("\t") + ["", ""])[:3]
            va, vb = lex_value(a, tk), lex_value(b, tk)
            if va != i // tk + 1 or vb != i % tk + 1 or lex_value(r, tk) != va * vb:
                bad += 1
        chk.check(bad == 0, f"{what}: {bad} wrong entries")

    jobs.append(_job(["table", "mul", "-b", str(tk), "--machine"], check_table))
    count = max(10, int(20000 * scale))

    def check_enumerate(out, code, chk, what):
        lines = _lines(out)
        ok = code == 0 and len(lines) == count
        chk.check(ok and all(lex_value(s, 10) == n for n, s in enumerate(lines, 1)), what)

    jobs.append(_job(["enumerate", "--count", str(count)], check_enumerate))
    for n in (100, 1000):
        n = max(2, round(n * scale))
        x, y = rand_digits(rng, 10, n), rand_digits(rng, 10, n)
        v = value(x, 10) * value(y, 10)
        jobs.append(_job(["mul", lex_text(x, 10), lex_text(y, 10)],
                         _expect_one(lambda s, v=v: lex_value(s, 10) == v)))
    n = max(2, round(100 * scale))
    gens = tuple(sorted({1, *rng.sample(range(2, 11), 3)}))
    jobs.append(_lattice_job(rand_digits(rng, 10, n), rand_digits(rng, 10, n), gens))
    jobs.append(_lattice_job((6,), (6,), (3, 5)))  # 6 = 3 + 3; a greedy split rejects it
    for _ in range(2):
        gens = tuple(sorted(rng.sample(range(1, 11), rng.randint(1, 4))))
        jobs.append(_lattice_job(rand_digits(rng, 10, 3), rand_digits(rng, 10, 3), gens))
    n = max(4, round(20000 * scale))
    x, y = rand_digits(rng, 10, n), rand_digits(rng, 10, n)
    v = value(x, 10) + value(y, 10)
    jobs.append(_job(["add", lex_text(x, 10), lex_text(y, 10)], _expect_one(lambda s, v=v: lex_value(s, 10) == v)))
    n = max(4, round(10000 * scale))
    for k in (10, 60):
        x = rand_digits(rng, k, n)
        v = value(x, k)
        zt = "".join(map(str, zero_digits(v, k))) if k == 10 else "".join(f"[{d}]" for d in zero_digits(v, k))
        base = ["-b", str(k)]
        jobs.append(_job(["convert", *base, "--to", "zero", lex_text(x, k)],
                         _expect_one(lambda s, v=v, k=k: zero_value(s, k) == v)))
        jobs.append(_job(["convert", *base, "--to", "lex", zt], _expect_one(lambda s, v=v, k=k: lex_value(s, k) == v)))
    x = rand_digits(rng, 10, n)
    v = value(x, 10)
    jobs.append(_job(["encode", str(v)], _expect_one(lambda s, t=lex_text(x, 10): s == t)))
    jobs.append(_job(["decode", lex_text(x, 10)], _expect_one(lambda s, v=v: s == str(v))))
    carry = (10,) * max(2, round(1000 * scale))  # successor carries through every digit
    vc = value(carry, 10)
    jobs.append(_job(["succ", lex_text(carry, 10)], _expect_one(lambda s, v=vc + 1: lex_value(s, 10) == v)))
    jobs.append(_job(["pred", lex_text((1,) + carry, 10)],
                     _expect_one(lambda s, v=value((1,) + carry, 10) - 1: lex_value(s, 10) == v)))
    return Plan(jobs, stream, retime=retime)


def make_plan(name: str, seed: int, workdir: Path, scale: float, zl) -> Plan:
    rng = random.Random(f"{name}:{seed}")
    if name == "reads":
        return reads_plan(rng, workdir, scale)
    if name == "contigs":
        return contigs_plan(rng, workdir, scale)
    if name == "numerals":
        return numerals_plan(rng, workdir, scale, zl)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("reads", "contigs", "numerals")
