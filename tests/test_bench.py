import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "scale.py"


def test_scale_script_writes_its_json(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--calls", "2", "--repeat", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    path = Path(proc.stdout.strip())
    assert path.parent == tmp_path and path.name.startswith("BENCH_")
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
    assert set(long_numerals["ms_per_call"]) == {"omega_10000", "sigma_10000", "omega_100000", "sigma_100000"}
    assert all(ms > 0 for ms in long_numerals["ms_per_call"].values())
    tables = result["tables"]
    assert tables["base"] == 300
    assert set(tables["ms_per_table"]) == {"multiplication_human", "multiplication_machine"}
    assert all(ms > 0 for ms in tables["ms_per_table"].values())
