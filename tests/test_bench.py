import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "scale.py"


def test_scale_script_writes_its_json(tmp_path):
    out = tmp_path / "made" / "here"  # --out makes a folder that does not exist
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--calls", "2", "--repeat", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    path = Path(proc.stdout.strip())
    assert path.parent == out and path.name.startswith("BENCH_")
    result = json.loads(path.read_text())
    kinds = {"add", "multiply", "lattice_with_1", "lattice_without_1", "sigma", "omega", "delta", "parse_lex",
             "format_lex"}
    assert set(result["us_per_call"]) == {"10", "60"}
    for per_kind in result["us_per_call"].values():
        assert set(per_kind) == kinds and all(us > 0 for us in per_kind.values())
    assert set(result["calibration_us"]) == {"python_loop", "str_1e5_digits"}
    assert result["seed"] == 4101 and result["python"]["version"]
    fasta = result["fasta"]
    assert (fasta["reads"], fasta["read_bases"], fasta["line_width"]) == (20000, 150, 80)
    assert set(fasta["us_per_read"]) == {"read_fasta", "read_fasta_rank_sequence", "read_fasta_lowercase"}
    assert all(us > 0 for us in fasta["us_per_read"].values())
    long_numerals = result["long_numerals"]
    assert (long_numerals["base"], long_numerals["digits"]) == (4, [10**4, 10**5])
    assert set(long_numerals["ms_per_call"]) == {
        "omega_10000", "sigma_10000", "omega_100000", "sigma_100000", "parse_lex_100000_base10", "sigma_10000_base60"
    }
    assert all(ms > 0 for ms in long_numerals["ms_per_call"].values())
    products = result["products"]
    digits = {"4": [1000, 10000, 100000], "10": [1000, 10000, 100000], "60": [1000, 10000]}
    assert products["digits"] == digits
    assert {k: list(map(int, by_h)) for k, by_h in products["ms_per_call"].items()} == digits
    assert all(ms > 0 for by_h in products["ms_per_call"].values() for ms in by_h.values())
    assert set(products["slope"]) == set(digits) and all(slope > 0 for slope in products["slope"].values())
    tables = result["tables"]
    assert tables["base"] == 300
    assert set(tables["ms_per_table"]) == {"multiplication_human", "multiplication_machine", "multiplication_build"}
    assert all(ms > 0 for ms in tables["ms_per_table"].values())
    traces = result["traces"]
    assert (traces["base"], traces["digits"], traces["runs"]) == (10, [100, 300, 1000], 1)
    names = {"mul_trace_100", "mul_trace_300", "mul_trace_1000"}
    assert set(traces["ms_per_run"]) == set(traces["peak_rss_mb"]) == names
    assert all(value > 0 for value in [*traces["ms_per_run"].values(), *traces["peak_rss_mb"].values()])
    starts = result["cli_starts"]
    assert starts["starts"] == 1
    assert set(starts["ms_per_start"]) == {"encode_1", "unrank_123456789", "site", "import_cli", "bare"}
    assert set(starts["scaled_ms_per_start"]) == {"encode_1", "unrank_123456789", "site", "import_cli"}
    assert all(ms > 0 for ms in [*starts["ms_per_start"].values(), *starts["scaled_ms_per_start"].values()])
    compiled = starts["compile_ms"]
    assert set(compiled["files"]) == {path.name for path in (SCRIPT.parents[1] / "src" / "zeroless").glob("*.py")}
    assert all(ms > 0 for ms in compiled["files"].values())
    assert compiled["sum"] == pytest.approx(sum(compiled["files"].values()), abs=0.01)


def test_child_peak_is_not_floored_by_the_parent():
    """A bare child started by a parent that touched 100 MB reads its own peak, not the parent's."""
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    ballast = b"\1" * (100 << 20)
    ms, peaks = scale._children({"pass": [sys.executable, "-c", "pass"]}, 1)
    assert len(ballast) == 100 << 20 and ms["pass"] > 0
    assert 0 < peaks["pass"] < 50


def test_scale_script_refuses_an_out_it_cannot_make(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(blocker / "sub")], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1].startswith("scale.py: error: --out: ")
