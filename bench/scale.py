"""Small-operand, FASTA-read, table, CLI start and trace latency of the zeroless library.

    python3 bench/scale.py [--calls N] [--repeat R] [--out DIR]

For bases 10 and 60 it draws N seeded operands of 1 to 12 digits per op
kind: add, multiply, lattice_multiply with a generator set that holds 1
and with one that lacks it (whose operands avoid the digit 1, so every
call succeeds), sigma, omega, delta, parse_lex and format_lex (in the
CLI's default notation: 1..9,X in base 10, brackets in base 60). Each
kind's N calls are timed as one pass, R passes per kind, the kinds taking
turns; the fastest pass over N is the kind's µs per call. A fixed
pure-Python loop and ``str()`` of a fixed 10**5-digit int are timed the
same way, so that files from hosts of different speed can be compared.

The FASTA section writes 20,000 seeded reads of 150 bases, each on two
lines (80 and 70 bases), to a temporary file, and times ``read_fasta``
over it alone and with ``rank_sequence`` of each record, and
``read_fasta`` alone over the same reads in lowercase, as soft-masked
text has them, taking turns with the op kinds; the fastest of R passes
over 20,000 is the µs per read.

The long-numeral section times ``omega`` and ``sigma`` of one seeded
base-4 numeral of 10**4 digits and one of 10**5, taking turns with the
other kinds; the fastest of R passes is the ms per call.

The tables section runs ``zeroless table mul -b 300``, human grid and
``--machine`` rows, through ``cli.main`` in process with stdout on the
null device, and calls ``build_multiplication_table(300)`` from a
cleared cache, taking turns with the other kinds; the fastest of R
passes is the ms per table.

The CLI start section starts ``python -m zeroless.cli encode 1`` and
``python -m zeroless.cli unrank 123456789`` as fresh processes, with
``src`` on PYTHONPATH and this process's environment otherwise, taking
turns with a bare ``python -I -S -c pass``, R times each. The median
wall time of each is its ms per start; each CLI figure is also given
scaled to a 15 ms bare start, as the benchmark's ``setup_s`` is, so
that files from hosts of different speed can be compared.

The trace section starts ``python -m zeroless.cli mul --trace x y`` as
fresh processes, in the same environment, on two seeded base-10 operands
of 100 digits each and two of 300, stdout on the null device, taking
turns, R times each. The median wall time of each size is its ms per
run, and the largest peak RSS of its processes, as ``wait4`` reports
it, is its peak RSS.

The figures, with the machine, the interpreter, the seed and the commit,
go to DIR/BENCH_<date>_<commit>.json (DIR defaults to this script's
folder, and is made if missing); when ``src`` differs from the commit,
the commit is suffixed "-dirty-" and a hash of that difference.
The package is imported from this checkout's ``src``. Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BASES = (10, 60)
DIGITS = (1, 12)
GENERATORS = {"lattice_with_1": (1, 5), "lattice_without_1": (2, 3)}
SEED = 4101
READS, READ_BASES, LINE_WIDTH = 20000, 150, 80
TABLE_BASE = 300
LONG_BASE, LONG_DIGITS = 4, (10**4, 10**5)
TABLES = {"multiplication_human": ("mul",), "multiplication_machine": ("mul", "--machine")}
CLI_STARTS = {"encode_1": ("encode", "1"), "unrank_123456789": ("unrank", "123456789")}
TRACE_DIGITS = (100, 300)
BARE_START_REF_MS = 15.0  # the bare start that scaled start figures are scaled to, as setup_s is


def _commit():
    """Short commit of the checkout; "unknown" without git.

    When ``src`` differs from the commit, "-dirty-" and the first 8 hex
    digits of the SHA-1 of ``git diff HEAD -- src`` follow, so that two
    different uncommitted trees never share a name.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        diff = subprocess.run(["git", "diff", "HEAD", "--", "src"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if sha.returncode or diff.returncode:
        return "unknown"
    if not diff.stdout:
        return sha.stdout.strip()
    return f"{sha.stdout.strip()}-dirty-{hashlib.sha1(diff.stdout).hexdigest()[:8]}"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def _calls(zl, rng, k, n):
    """{kind: (function, [argument tuples])} for n calls in base k."""

    def digits(low=1):
        return tuple(rng.randint(low, k) for _ in range(rng.randint(*DIGITS)))

    def numeral(low=1):
        return zl.LexNumeral(k, digits(low))

    alpha = zl.default_alphabet(k)
    ranks = [zl.omega(numeral()) for _ in range(n)]
    calls = {
        "add": (zl.add, [(numeral(), numeral()) for _ in range(n)]),
        "multiply": (zl.multiply, [(numeral(), numeral()) for _ in range(n)]),
        "sigma": (zl.sigma, [(k, r) for r in ranks]),
        "omega": (zl.omega, [(numeral(),) for _ in range(n)]),
        "delta": (zl.delta, [(k, r) for r in ranks]),
        "parse_lex": (zl.parse_lex, [(zl.format_lex(numeral(), alpha), k, alpha) for _ in range(n)]),
        "format_lex": (zl.format_lex, [(numeral(), alpha) for _ in range(n)]),
    }
    for kind, gens in GENERATORS.items():
        low = min(gens)
        calls[kind] = (zl.lattice_multiply, [(numeral(low), numeral(low), gens) for _ in range(n)])
    return calls


def _python_loop():
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def _time(fn, args_list):
    t0 = perf_counter()
    for args in args_list:
        fn(*args)
    return perf_counter() - t0


def _write_reads(path, bases="ACGT"):
    rng = random.Random(SEED)
    with open(path, "w", encoding="ascii") as handle:
        for i in range(READS):
            seq = "".join(rng.choices(bases, k=READ_BASES))
            handle.write(f">read{i}\n{seq[:LINE_WIDTH]}\n{seq[LINE_WIDTH:]}\n")


def _read(zl, path):
    for _ in zl.read_fasta(path):
        pass


def _read_and_rank(zl, path):
    rank = zl.rank_sequence
    for record in zl.read_fasta(path):
        rank(record.sequence)


def _table(zl, argv, sink):
    zl.build_multiplication_table.cache_clear()  # what a CLI run of its own starts from
    with contextlib.redirect_stdout(sink):
        if zl.cli.main(argv):
            raise RuntimeError(f"zeroless {' '.join(argv)} failed")


def _build_table(zl):
    zl.build_multiplication_table.cache_clear()
    zl.build_multiplication_table(TABLE_BASE)


def _cli_env():
    """This process's environment with this checkout's ``src`` on PYTHONPATH and no ZEROLESS_ variable."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("ZEROLESS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _starts(repeat):
    """Median ms of fresh CLI processes and of a bare interpreter, started in turns."""
    env = _cli_env()
    argvs = {name: [sys.executable, "-m", "zeroless.cli", *args] for name, args in CLI_STARTS.items()}
    argvs["bare"] = [sys.executable, "-I", "-S", "-c", "pass"]
    walls = {name: [] for name in argvs}
    for _ in range(repeat):
        for name, argv in argvs.items():
            t0 = perf_counter()
            proc = subprocess.run(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True)
            walls[name].append(perf_counter() - t0)
            if proc.returncode or proc.stderr:
                raise RuntimeError(f"{' '.join(argv)} failed: {proc.stderr.decode(errors='replace')}")
    return {name: statistics.median(seconds) * 1e3 for name, seconds in walls.items()}


def _traces(repeat):
    """Median ms and largest peak RSS in MB of fresh ``mul --trace`` processes, the sizes in turns."""
    rng = random.Random(SEED)
    env = _cli_env()
    argvs = {}
    for h in TRACE_DIGITS:
        x, y = ("".join(rng.choices("123456789X", k=h)) for _ in "xy")
        argvs[f"mul_trace_{h}"] = [sys.executable, "-m", "zeroless.cli", "mul", "--trace", x, y]
    walls = {name: [] for name in argvs}
    peaks = dict.fromkeys(argvs, 0)
    rss_unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB elsewhere
    for _ in range(repeat):
        for name, argv in argvs.items():
            t0 = perf_counter()
            proc = subprocess.Popen(
                argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
            )
            with proc.stderr:
                err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            walls[name].append(perf_counter() - t0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode or err:
                raise RuntimeError(f"zeroless {' '.join(argv[3:5])} failed: {err.decode(errors='replace')}")
            peaks[name] = max(peaks[name], usage.ru_maxrss * rss_unit / 2**20)
    return {name: statistics.median(seconds) * 1e3 for name, seconds in walls.items()}, peaks


def measure(calls_per_kind: int, repeat: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import zeroless as zl
    import zeroless.cli  # zl.cli, for the tables section

    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    rng = random.Random(SEED)
    work = {}  # (name, base or "fasta" or None): (function, argument tuples, calls or reads per pass)
    for k in BASES:
        for kind, (fn, args_list) in _calls(zl, rng, k, calls_per_kind).items():
            work[kind, k] = (fn, args_list, len(args_list))
    for h in LONG_DIGITS:
        a = zl.LexNumeral(LONG_BASE, [rng.randint(1, LONG_BASE) for _ in range(h)])
        work[f"omega_{h}", "long"] = (zl.omega, [(a,)], 1)
        work[f"sigma_{h}", "long"] = (zl.sigma, [(LONG_BASE, zl.omega(a))], 1)
    big = int("7" * 100_000)
    work["python_loop", None] = (_python_loop, [()], 1)
    work["str_1e5_digits", None] = (str, [(big,)], 1)
    with tempfile.TemporaryDirectory() as folder, open(os.devnull, "w") as sink:
        path, lower = os.path.join(folder, "reads.fa"), os.path.join(folder, "lower.fa")
        _write_reads(path)
        _write_reads(lower, "acgt")
        work["read_fasta", "fasta"] = (_read, [(zl, path)], READS)
        work["read_fasta_rank_sequence", "fasta"] = (_read_and_rank, [(zl, path)], READS)
        work["read_fasta_lowercase", "fasta"] = (_read, [(zl, lower)], READS)
        for name, args in TABLES.items():
            argv = ["table", *args, "-b", str(TABLE_BASE)]
            work[name, "tables"] = (_table, [(zl, argv, sink)], 1)
        work["multiplication_build", "tables"] = (_build_table, [(zl,)], 1)
        best = dict.fromkeys(work, float("inf"))
        for _ in range(repeat):  # the kinds take turns, so a slow spell of the host hits them alike
            for key, (fn, args_list, count) in work.items():
                best[key] = min(best[key], _time(fn, args_list) / count)
    start_ms = _starts(repeat)
    trace_ms, trace_rss = _traces(repeat)
    per_call = {str(k): {} for k in BASES}
    for (name, k), seconds in best.items():
        if k in BASES:
            per_call[str(k)][name] = round(seconds * 1e6, 3)
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        "commit": _commit(),
        "machine": {
            "arch": platform.machine(),
            "cpu": _cpu_model(),
            "system": platform.system(),
            "release": platform.release(),
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
        "python": {"implementation": platform.python_implementation(), "version": platform.python_version()},
        "seed": SEED,
        "calls_per_kind": calls_per_kind,
        "repeat": repeat,
        "operand_digits": list(DIGITS),
        "generators": {kind: list(gens) for kind, gens in GENERATORS.items()},
        "calibration_us": {name: round(best[name, None] * 1e6, 1) for name in ("python_loop", "str_1e5_digits")},
        "us_per_call": per_call,
        "fasta": {
            "reads": READS,
            "read_bases": READ_BASES,
            "line_width": LINE_WIDTH,
            "us_per_read": {
                name: round(best[name, "fasta"] * 1e6, 3)
                for name in ("read_fasta", "read_fasta_rank_sequence", "read_fasta_lowercase")
            },
        },
        "long_numerals": {
            "base": LONG_BASE,
            "digits": list(LONG_DIGITS),
            "ms_per_call": {name: round(seconds * 1e3, 3) for (name, k), seconds in best.items() if k == "long"},
        },
        "tables": {
            "base": TABLE_BASE,
            "ms_per_table": {name: round(seconds * 1e3, 4) for (name, k), seconds in best.items() if k == "tables"},
        },
        "traces": {
            "base": 10,
            "digits": list(TRACE_DIGITS),
            "runs": repeat,
            "ms_per_run": {name: round(ms, 2) for name, ms in trace_ms.items()},
            "peak_rss_mb": {name: round(mb, 2) for name, mb in trace_rss.items()},
        },
        "cli_starts": {
            "starts": repeat,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "ms_per_start": {name: round(ms, 2) for name, ms in start_ms.items()},
            "scaled_ms_per_start": {
                name: round(start_ms[name] * BARE_START_REF_MS / start_ms["bare"], 2) for name in CLI_STARTS
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=300, help="calls per op kind and base")
    parser.add_argument(
        "--repeat",
        type=int,
        default=25,
        help="timed passes per op kind, FASTA pass and table; starts per CLI command and trace size",
    )
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent, help="folder for the JSON file")
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeat < 1:
        parser.error("--calls and --repeat must be at least 1")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out: {exc}")
    result = measure(args.calls, args.repeat)
    path = args.out / f"BENCH_{result['date'].replace('-', '')}_{result['commit']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
