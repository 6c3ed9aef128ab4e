"""Tiny-scale self-check of the benchmark; run from the repository root:

    python3 perfbench/selfcheck.py

It checks that:
- every workload, traced and untraced, prints each metric named in
  BENCHMARK.json with its unit, both in the summary and in the last-line
  JSON, and that the JSON has exactly the keys the contract names;
- a planted wrong output (a copy of the package whose ``rank_sequence``
  is off by one) raises the failure count and the printed error_rate,
  and the traced run counts it in ``genome.failed``;
- without the package sources the benchmark exits non-zero and prints
  no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seconds", "1", "--scale", "0.05"]

PLANT = '''

_exact_rank_sequence = rank_sequence


def rank_sequence(sequence):  # planted by the benchmark self-check: off by one
    return _exact_rank_sequence(sequence) + 1
'''


def run(root: Path, workload: str, trace: int):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--trace", str(trace), *TINY]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def copy_tree(dest: Path, with_src: bool):
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.so"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        print(("ok   " if ok else "FAIL ") + what, flush=True)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            p = run(ROOT, w["name"], trace)
            lines = p.stdout.strip().splitlines()
            what = f"{w['name']} --trace {trace}"
            expect(p.returncode == 0 and bool(lines), f"{what}: exit 0 with output")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: correct")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted, f"{what}: every {key} metric in the JSON with its unit")
            printed = {m.group(1): m.group(2) for m in re.finditer(r"^(\S+) = \S+ (\S+)  \(n=\d+\)$", p.stdout, re.M)}
            expect(all(printed.get(k) == u for k, u in wanted.items()), f"{what}: every metric printed with its unit")
            expect(re.search(r"^error_rate = \S+", p.stdout, re.M) is not None, f"{what}: error_rate printed")

    with tempfile.TemporaryDirectory(prefix=".work-selfcheck-", dir=HERE) as tmp:
        planted = Path(tmp) / "planted"
        planted.mkdir()
        copy_tree(planted, with_src=True)
        with open(planted / "src" / "zeroless" / "genome.py", "a", encoding="utf-8") as fh:
            fh.write(PLANT)
        p = run(planted, "reads", 0)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if p.returncode == 0 and lines else {}
        rate = re.search(r"^error_rate = (\S+)", p.stdout, re.M)
        expect(result.get("failed", 0) > 0 and result.get("correct") is False, "planted wrong rank counts as failed")
        expect(rate is not None and float(rate.group(1)) > 0, "planted wrong rank raises error_rate")
        p = run(planted, "reads", 1)
        lines = p.stdout.strip().splitlines()
        layers = json.loads(lines[-1])["metrics"] if p.returncode == 0 and lines else {}
        expect(layers.get("genome.failed", {}).get("value", 0) > 0, "planted wrong rank counts in genome.failed")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        copy_tree(bare, with_src=False)
        p = run(bare, "reads", 0)
        expect(p.returncode != 0 and not p.stdout.strip(), "without sources: non-zero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
