"""Benchmark of the zeroless CLI and library on seeded workloads.

    python3 perfbench/run.py --workload reads|contigs|numerals --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src`` and
the CLI runs as ``python -m zeroless.cli`` with ``src`` on the path.
One client drives the program in a closed loop: each CLI process or
library call starts only after the previous one ends, nothing runs in
parallel. With ``--trace 0`` rounds of the workload (its CLI jobs, then
its in-process call stream) repeat until S seconds have passed, and the
end-to-end metrics are printed. With ``--trace 1`` an untraced and a
traced in-process pass alternate instead, and the per-layer metrics are
printed; the spans of the first traced pass are written to
``perfbench/results``.

Every output is checked against an oracle in ``workloads.py``. A summary
with units, sample counts and the environment goes to stdout, and the
last line is one JSON object with the keys correct, attempted, failed
and metrics. ``baseline.json`` records why each workload exists, which
layer metric should move which end-to-end metric, and the numbers of
the commit the benchmark was written against.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SHARE = 0.15  # share of a run spent starting fresh ``encode 1`` processes
PYTHON_START_REF_S = 0.015  # bare interpreter start-up that setup_s is scaled to
JOB_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
BENCH_CALLS = 5  # calls per backend kernel case

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_p50_us", "us"),
    ("call_tail_us", "us"),
    ("size_slope", "ratio"),
)


# --- processes --------------------------------------------------------------


def _cli_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZEROLESS_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs ``python -m zeroless.cli *argv`` jobs through ``spawner.py``
    (with ``cli=False``, ``argv`` is the whole command line).

    ``run`` returns (stdout text, exit code, wall s, user+sys cpu s, max
    rss MB), the resource figures read by ``os.wait4`` for that job alone.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_cli_env(), cwd=ROOT, text=True,
        )

    def run(self, argv, stdin: Path | None, cli=True):
        out = self.workdir / "job.out"
        job = {
            "argv": [sys.executable, "-m", "zeroless.cli", *argv] if cli else argv,
            "stdin": str(stdin) if stdin is not None else None,
            "stdout": str(out),
            "stderr": str(self.workdir / "job.err"),
            "timeout": JOB_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job spawner exited")
        r = json.loads(reply)
        return out.read_text(encoding="utf-8", errors="replace"), r["code"], r["wall"], r["cpu"], r["rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S if exc[0] is None else 5)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.poll() is None:
            self.proc.terminate()  # stops its running job, then exits
            self.proc.wait()
        self.proc.stdout.close()
        return False


def run_in_process(cli, argv, stdin: Path | None):
    """``cli.main(argv)`` with stdin/stdout/stderr swapped; returns (stdout, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    fin = open(stdin, encoding="utf-8") if stdin is not None else io.StringIO("")
    saved = sys.stdin
    sys.stdin = fin
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is exit 1 in a real process
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = saved
        fin.close()
    return out.getvalue(), code


# --- statistics -------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_quantile(n: int) -> float:
    """Highest quantile of n samples with TAIL_BEYOND samples above it."""
    return max(0.5, 1 - TAIL_BEYOND / n)


def log_log_slope(points):
    """Least-squares slope of log(seconds) on log(size), fastest time per size."""
    by_size = {}
    for size, seconds in points:
        by_size[size] = min(seconds, by_size.get(size, math.inf))
    xs = [math.log(s) for s in by_size]
    ys = [math.log(t) for t in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# --- environment ------------------------------------------------------------


def git_sha():
    """Commit of the checkout; None outside a git repository or without git."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def environment(zl, args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "backend": zl.backend_name(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


# --- runs -------------------------------------------------------------------


def measure_setup(spawner, chk):
    """Wall seconds of a fresh ``zeroless encode 1`` and of a bare interpreter start."""
    out, code, wall, _, _ = spawner.run(["encode", "1"], None)
    chk.check(code == 0 and out == "1\n", f"zeroless encode 1 printed {out!r}, exit {code}", "cli")
    bare = spawner.run([sys.executable, "-I", "-S", "-c", "pass"], None, cli=False)[2]
    return wall, bare


def end_to_end_run(plan, zl, args, spawner, chk, W):
    """Rounds of CLI jobs and a call-stream pass until ``args.seconds`` have passed.

    A shared host's speed drifts by up to 1.5x for seconds at a time and
    stalls single calls, so each figure is chosen to be steady under that:
    - wall_s, cpu_s: per-round sums over the CLI jobs, mean over rounds;
    - setup_s: median wall time of the fresh ``encode 1`` processes,
      scaled by PYTHON_START_REF_S over the median wall time of a bare
      ``python -I -S -c pass`` started next to each of them. The host's
      process start-up speed drifts by 20% from minute to minute; the
      scale cancels that drift and nothing the repository does can
      change the bare start. The unscaled median is printed too;
    - call_p50_us: median over the calls of a pass of each call's fastest
      time in the run (every pass makes the same calls in the same
      order, and ``plan.retime`` times cheap calls again between CLI
      jobs, so each call is sampled all through the run);
    - call_tail_us: call_p50_us times the tail-to-median ratio of the
      call stream. The ratio is taken within each full pass (its highest
      percentile that leaves TAIL_BEYOND calls above it, over its
      median), median over the passes. A call that the program slows now
      and then (a garbage collection, a cache rebuilt) raises its pass's
      tail and counts; a slow spell of the host slows a pass's tail and
      median alike and cancels. Both latencies are then at the speed
      the host has at its fastest in the run;
    - size_slope: fit over the fastest time per item size.
    """
    setups, walls, cpus, rss, points = [], [], [], 0.0, []
    per_call, passes, step = {}, [], 0  # seconds per call index; per pass

    def keep(timings):
        timings = list(timings)
        for i, dt in timings:
            per_call.setdefault(i, []).append(dt)
        passes.append([dt for _, dt in timings])

    start, setup_spent = perf_counter(), 0.0

    def sample_setup():
        nonlocal setup_spent
        while not setups or setup_spent < SETUP_SHARE * (perf_counter() - start):
            t0 = perf_counter()
            setups.append(measure_setup(spawner, chk))
            setup_spent += perf_counter() - t0

    sample_setup()
    deadline = perf_counter() + args.seconds
    while not walls or perf_counter() < deadline:
        wall = cpu = 0.0
        for job in plan.jobs:
            out, code, w, c, r = spawner.run(job.argv, job.stdin)
            job.check(out, code, chk)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if plan.retime is not None:
                keep(plan.retime(zl, chk, step))
                step += 1
            sample_setup()
        walls.append(wall)
        cpus.append(cpu)
        res = plan.stream(zl, W.PlainProbe, chk)
        keep(enumerate(res.latencies))
        points += res.points
        sample_setup()
    rounds = len(walls)
    timed = sum(map(len, per_call.values()))
    calls = sorted(map(min, per_call.values()))
    full = [sorted(p) for p in passes if len(p) == len(calls)]
    q = tail_quantile(len(calls))
    tail_ratio = statistics.median(percentile(p, q) / percentile(p, 0.5) for p in full)
    setup_raw = statistics.median(w for w, _ in setups)
    python_start = statistics.median(b for _, b in setups)
    metrics = {
        "setup_s": setup_raw * PYTHON_START_REF_S / python_start,
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(cpus),
        "peak_rss_mb": rss,
        "call_p50_us": percentile(calls, 0.5) * 1e6,
        "call_tail_us": percentile(calls, 0.5) * tail_ratio * 1e6,
        "size_slope": log_log_slope(points),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": rounds,
        "cpu_s": rounds,
        "peak_rss_mb": rounds * len(plan.jobs),
        "call_p50_us": timed,
        "call_tail_us": len(full) * len(calls),
        "size_slope": len({s for s, _ in points}),
    }
    extra = {
        "rounds": rounds,
        "cli_jobs_per_round": len(plan.jobs),
        "calls_per_round": len(calls),
        "call_tail_percentile": round(q * 100, 4),
        "call_tail_passes": len(full),
        "call_tail_to_median": tail_ratio,
        "setup_unscaled_s": setup_raw,
        "python_start_s": python_start,
    }
    return metrics, samples, extra


def in_process_pass(plan, zl, probe, chk, caches):
    """CLI jobs through ``cli.main`` and then the call stream; returns library seconds."""
    busy = 0.0
    for job in plan.jobs:
        for cached in caches:  # a fresh process starts with empty caches
            cached.cache_clear()
        with probe.item():
            t0 = perf_counter()
            out, code = run_in_process(zl.cli, job.argv, job.stdin)
            busy += perf_counter() - t0
        job.check(out, code, chk)
    res = plan.stream(zl, probe, chk)
    return busy + res.busy


def backend_bench(zl, rng, chk, W):
    """The kernel cases of the former pure-vs-compiled script, median of BENCH_CALLS calls."""
    b = zl._backend
    digits = W.rand_digits
    a10, b10 = digits(rng, 10, 20000), digits(rng, 10, 20000)
    m1, m2 = digits(rng, 10, 400), digits(rng, 10, 400)
    carry = (10,) * 20000
    a60 = digits(rng, 60, 20000)
    v = W.value
    cases = {
        "backend.bench_add_20k_s": (b.add_digits, (a10, b10, 10), v(a10, 10) + v(b10, 10), 10),
        "backend.bench_multiply_400_s": (b.multiply_digits, (m1, m2, 10), v(m1, 10) * v(m2, 10), 10),
        "backend.bench_successor_carry_20k_s": (b.successor_digits, (carry, 10), v(carry, 10) + 1, 10),
        "backend.bench_shift_base60_20k_s": (b.multiply_by_base_digits, (a60, 60), v(a60, 60) * 60, 60),
    }
    out = {}
    for name, (fn, fargs, expected, k) in cases.items():
        times = []
        for _ in range(BENCH_CALLS):
            t0 = perf_counter()
            result = fn(*fargs)
            times.append(perf_counter() - t0)
        chk.check(v(result, k) == expected, name, "backend")
        out[name] = statistics.median(times)
    return out


def traced_run(plan, zl, args, chk, W, T):
    caches = (zl.tables.build_addition_table, zl.tables.build_multiplication_table)
    records_read = sum(job.records for job in plan.jobs) + plan.stream_records
    passes, walls, first = [], [], None
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        untraced = in_process_pass(plan, zl, W.PlainProbe, chk, caches)
        tracer = T.Tracer(keep_spans=first is None)
        rejected_before, failed_before = chk.valid_rejected, chk.by_layer.copy()
        tracer.install()
        try:
            traced = in_process_pass(plan, zl, tracer, chk, caches)
        finally:
            tracer.uninstall()
        m = T.layer_metrics(tracer, records_read, chk.valid_rejected - rejected_before, chk.by_layer - failed_before)
        m["trace.overhead_ratio"] = traced / untraced
        passes.append(m)
        walls.append(traced)
        first = first or tracer
    metrics = {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}
    bench = backend_bench(zl, random.Random(f"bench:{args.seed}"), chk, W)
    metrics.update(bench)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    n_spans = first.write_spans(spans_path)
    samples = {name: BENCH_CALLS if name in bench else len(passes) for name, _ in T.layer_metric_names()}
    extra = {
        "traced_passes": len(passes),
        "traced_pass_s": statistics.median(walls),
        "spans_written": n_spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, samples, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reads", "contigs", "numerals"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-check only)")
    args = parser.parse_args(argv)
    if not (SRC / "zeroless" / "cli.py").is_file():
        print(f"error: no zeroless sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # a terminated run still stops its CLI process and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    RESULTS.mkdir(exist_ok=True)
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, str(SRC))
    import zeroless as zl
    import zeroless.cli  # noqa: F401  (zl.cli is the traced module namespace)

    import tracing as T
    import workloads as W

    chk = W.Checker()
    env = environment(zl, args)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        plan = W.make_plan(args.workload, args.seed, workdir, args.scale, zl)
        if args.trace:
            metrics, samples, extra = traced_run(plan, zl, args, chk, W, T)
            units = dict(T.layer_metric_names())
        else:
            with Spawner(workdir) as spawner:
                metrics, samples, extra = end_to_end_run(plan, zl, args, spawner, chk, W)
            units = dict(END_TO_END)
    error_rate = (chk.failed + chk.valid_rejected) / chk.attempted
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}  (n={samples[name]})")
    print(
        f"error_rate = {error_rate:.6g}  (failed {chk.failed} + valid inputs rejected "
        f"{chk.valid_rejected} of {chk.attempted} attempted)"
    )
    for key, val in extra.items():
        print(f"{key} = {val}")
    for note in chk.notes:
        print(note, file=sys.stderr)
    record = {
        "environment": env,
        "metrics": {k: {"value": metrics[k], "unit": u, "samples": samples[k]} for k, u in units.items()},
        "error_rate": error_rate,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "valid_rejected": chk.valid_rejected,
        "notes": chk.notes,
        **extra,
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    line = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
