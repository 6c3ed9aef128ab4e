import hashlib
import io
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zeroless
from zeroless import cli, core, tables
from zeroless.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ZEROLESS_ALPHABET", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEncodeDecode:
    def test_encode_dna(self, capsys):
        code, out, err = run(capsys, "encode", "--base", "4", "--alphabet", "ACGT", "40")
        assert (code, out, err) == (0, "CAT\n", "")

    def test_encode_default_base(self, capsys):
        code, out, _ = run(capsys, "encode", "38070")
        assert (code, out) == (0, "37X6X\n")

    def test_encode_zero(self, capsys):
        code, out, _ = run(capsys, "encode", "0")
        assert (code, out) == (0, "ε\n")

    def test_decode_named_alphabet(self, capsys):
        code, out, _ = run(capsys, "decode", "--alphabet", "acgt", "GATT")
        assert (code, out) == (0, "228\n")

    def test_decode_brackets(self, capsys):
        code, out, _ = run(capsys, "decode", "--base", "60", "--alphabet", "bracket", "[7][7]")
        assert (code, out) == (0, "427\n")

    def test_huge_round_trip(self, capsys):
        n = str(10**100)
        code, out, _ = run(capsys, "encode", n)
        assert code == 0
        code, out, _ = run(capsys, "decode", out.strip())
        assert (code, out) == (0, n + "\n")

    def test_unknown_symbol_is_domain_error(self, capsys):
        code, out, err = run(capsys, "decode", "40")
        assert (code, out) == (1, "")
        assert err.startswith("error:")


class TestSuccPred:
    def test_succ_wraps_length(self, capsys):
        code, out, _ = run(capsys, "succ", "--alphabet", "ACGT", "TT")
        assert (code, out) == (0, "AAA\n")

    def test_pred(self, capsys):
        code, out, _ = run(capsys, "pred", "423")
        assert (code, out) == (0, "422\n")

    def test_pred_of_zero(self, capsys):
        code, out, err = run(capsys, "pred", "ε")
        assert (code, out) == (1, "")
        assert err == "error: zero has no predecessor\n"


class TestArithmetic:
    def test_add(self, capsys):
        code, out, _ = run(capsys, "add", "-a", "ACGT", "CAT", "GATT")
        assert (code, out) == (0, "GTCT\n")

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "37", "3X")
        assert (code, out) == (0, "147X\n")

    def test_mul_lattice(self, capsys):
        """There is no --lattice flag: without --trace or generators the product is taken by rank alone."""
        with pytest.raises(SystemExit) as exc:
            run(capsys, "mul", "--lattice", "423", "8X")
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith("zeroless: error: unrecognized arguments: --lattice\n")

    def test_mul_generators(self, capsys):
        code, out, _ = run(capsys, "mul", "--generators", "2,5", "427", "35")
        assert (code, out) == (0, "14945\n")

    def test_mul_trace(self, capsys):
        code, out, _ = run(capsys, "mul", "--trace", "--generators", "2,5", "427", "35")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("cell (1,1):")
        assert any(line.startswith("column 1:") for line in lines)
        assert lines[-2] == "with-zero: 14945"
        assert lines[-1] == "14945"

    def test_mul_generators_split_exactly(self, capsys):
        # 6 = 3 + 3, which a largest-first greedy split (5, then stuck) misses
        code, out, err = run(capsys, "mul", "--generators", "3,5", "6", "6")
        assert (code, out, err) == (0, "36\n", "")

    def test_undecomposable_cell_is_domain_error(self, capsys):
        code, out, err = run(capsys, "mul", "--generators", "2", "3", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: cell")

    def test_bad_generator_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "mul", "--generators", "2,five", "3", "3")
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["\u0663,5", "3_0,5", "+3,5", "-3,5", "3,,5", "3,\t5", "3,5\n", "\uff13,5"])
    def test_generators_take_ascii_digits_only(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "mul", f"--generators={text}", "6", "6")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"{text!r} is not a comma-separated list of digits\n")

    @pytest.mark.parametrize("text", ["3, 5", " 3 ,5 ", "3,  5", "03,5"])
    def test_generators_may_be_padded_with_spaces(self, capsys, text):
        code, out, err = run(capsys, "mul", "--generators", text, "6", "6")
        assert (code, out, err) == (0, "36\n", "")


class TestConvert:
    def test_to_zero(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "zero", "37X6X")
        assert (code, out) == (0, "38070\n")

    def test_to_lex(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "lex", "38070")
        assert (code, out) == (0, "37X6X\n")

    def test_zero_numeral(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "zero", "ε")
        assert (code, out) == (0, "0\n")


class TestTable:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "table", "add", "-b", "4", "-a", "ACGT")
        assert code == 0
        assert out.splitlines() == [
            "+   A   C   G   T",
            "A   C   G   T  AA",
            "C   G   T  AA  AC",
            "G   T  AA  AC  AG",
            "T  AA  AC  AG  AT",
        ]

    def test_machine(self, capsys):
        code, out, _ = run(capsys, "table", "mul", "--machine", "-b", "4", "-a", "ACGT")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert lines[0] == "A\tA\tA"
        assert lines[-1] == "T\tT\tGT"

    @pytest.mark.parametrize(
        "op, base, alphabet",
        [("mul", 4, "ACGT"), ("add", 4, "ACGT"), ("mul", 10, None), ("add", 10, None), ("mul", 60, None)],
    )
    def test_machine_matches_per_entry_rendering(self, capsys, op, base, alphabet):
        build = tables.build_multiplication_table if op == "mul" else tables.build_addition_table
        table = build(base)
        alpha = core.Alphabet.from_string(alphabet) if alphabet else core.default_alphabet(base)

        def show(digits):
            return core.format_lex(core.LexNumeral(base, digits), alpha)

        expected = "".join(
            f"{show((a,))}\t{show((b,))}\t{show(table.entry(a, b))}\n"
            for a in range(1, base + 1)
            for b in range(1, base + 1)
        )
        argv = ["table", op, "--machine", "-b", str(base)] + (["-a", alphabet] if alphabet else [])
        assert run(capsys, *argv) == (0, expected, "")

    def test_bracket_grid(self, capsys):
        code, out, _ = run(capsys, "table", "mul", "-b", "4", "-a", "bracket")
        assert code == 0
        assert out.splitlines() == [
            "  *  [1]     [2]     [3]     [4]",
            "[1]  [1]     [2]     [3]     [4]",
            "[2]  [2]     [4]  [1][2]  [1][4]",
            "[3]  [3]  [1][2]  [2][1]  [2][4]",
            "[4]  [4]  [1][4]  [2][4]  [3][4]",
        ]

    def test_bracket_machine(self, capsys):
        code, out, _ = run(capsys, "table", "add", "--machine", "-b", "3", "-a", "bracket")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0] == "[1]\t[1]\t[2]"
        assert lines[-1] == "[3]\t[3]\t[1][3]"

    def test_no_trailing_whitespace(self, capsys):
        _, out, _ = run(capsys, "table", "mul", "-b", "10")
        for line in out.splitlines():
            assert line == line.rstrip()

    def test_human_grid_streams_in_bounded_memory(self, tmp_path):
        """A 1200 by 1200 grid, whose k**2 cell texts alone take more, runs within 256 MB of address space.

        The child limits itself, so the limit acts on that process only.
        """
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
            "from zeroless import cli; "
            "sys.exit(cli.main(['table', 'mul', '-b', '1200']))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
        with open(tmp_path / "grid.txt", "wb") as out:
            proc = subprocess.run([sys.executable, "-c", code], stdout=out, stderr=subprocess.PIPE, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        with open(tmp_path / "grid.txt", "rb") as grid:
            lines = grid.readlines()
        assert len(lines) == 1201
        assert lines[-1].split()[-1] == b"[1199][1200]"


    @pytest.mark.parametrize("machine", [(), ("--machine",)])
    def test_base_too_large_to_list_is_refused_at_once(self, machine):
        """A base past the bound gets one error line before any label is built."""
        env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
        for base in ("99999999999999999999", str(tables._MAX_BASE + 1)):
            argv = [sys.executable, "-m", "zeroless.cli", "table", "add", *machine, "-b", base]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr == f"error: table base must be <= {tables._MAX_BASE}, got {base}\n"

    def test_largest_base_starts_within_the_grid_memory_budget(self):
        """At the bound, --machine prints its first line, and the human grid passes
        over rows, within the 256 MB of address space the 1200 grid gets above."""
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
            "from zeroless import cli; "
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
        base = str(tables._MAX_BASE)
        for machine in (("--machine",), ()):
            argv = [sys.executable, "-c", code, "table", "mul", *machine, "-b", base]
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
                try:
                    if machine:
                        assert proc.stdout.readline() == b"[1]\t[1]\t[1]\n"
                    else:  # its first line comes after a pass over all k rows
                        with pytest.raises(subprocess.TimeoutExpired):
                            proc.wait(timeout=3)
                finally:
                    proc.kill()
                    _, err = proc.communicate(timeout=30)
            assert err == b""


class TestEnumerate:
    def test_first_five(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--count", "5", "-a", "ACGT")
        assert (code, out) == (0, "A\nC\nG\nT\nAA\n")

    def test_count_zero(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--count", "0")
        assert (code, out) == (0, "")

    def test_count_zero_still_checks_the_base(self, capsys):
        assert run(capsys, "enumerate", "-b", "0", "--count", "0") == (1, "", "error: base must be >= 1, got 0\n")

    def test_output_is_written_in_batches(self, monkeypatch):
        # each write but the last is the first lines that reach _BATCH characters
        writes = []
        monkeypatch.setattr("sys.stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
        assert main(["enumerate", "--count", "30000", "-b", "60"]) == 0
        alpha = core.default_alphabet(60)
        assert "".join(writes) == "".join(core.format_lex(core.sigma(60, n), alpha) + "\n" for n in range(1, 30001))
        assert len(writes) > 3 and all(cli._BATCH <= len(w) < cli._BATCH + 16 for w in writes[:-1])
        assert 0 < len(writes[-1]) < cli._BATCH + 16

    @pytest.mark.parametrize("base, count", [(1, 40), (4, 3000), (60, 4000)])
    def test_matches_sigma(self, capsys, base, count):
        # 3000 and 4000 cross several batches and numeral lengths; base 60
        # prints bracket ciphers
        alpha = core.default_alphabet(base)
        expected = "".join(core.format_lex(core.sigma(base, n), alpha) + "\n" for n in range(1, count + 1))
        code, out, _ = run(capsys, "enumerate", "--count", str(count), "-b", str(base))
        assert (code, out) == (0, expected)
        if base == 60:
            assert out.startswith("[1]\n[2]\n")


class TestRankUnrank:
    def test_rank_file(self, capsys, tmp_path):
        path = tmp_path / "reads.fa"
        path.write_text(">seq1\nCAT\n>seq2\nGA\nTT\n")
        code, out, _ = run(capsys, "rank", "--fasta", str(path))
        assert (code, out) == (0, "seq1\t40\nseq2\t228\n")

    def test_rank_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(">s\nGATT\n"))
        code, out, _ = run(capsys, "rank")
        assert (code, out) == (0, "s\t228\n")

    def test_rank_skip_policy(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(">ok\nA\n>bad\nNN\n"))
        code, out, _ = run(capsys, "rank", "--policy", "skip")
        assert (code, out) == (0, "ok\t1\n")

    def test_rank_reject_policy(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(">bad\nNN\n"))
        code, out, err = run(capsys, "rank")
        assert code == 1
        assert err.startswith("error: line 2")

    def test_missing_file_is_one_line_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "rank", "--fasta", str(tmp_path / "missing.fa"))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2]") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [b">s\r\nGATT\r\n", b">ok\nA\n>s\xc3\xa9\nGATT\n"])
    def test_rank_stdin_reads_the_bytes_under_text(self, capsys, monkeypatch, tmp_path, data):
        path = tmp_path / "reads.fa"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, "rank") == run(capsys, "rank", "--fasta", str(path))

    def test_undecodable_file_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "latin.fa"
        path.write_bytes(b">caf\xe9\nACGT\n")
        code, out, err = run(capsys, "rank", "--fasta", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: 'ascii' codec") and err.count("\n") == 1

    def test_unrank(self, capsys):
        code, out, _ = run(capsys, "unrank", "228")
        assert (code, out) == (0, "GATT\n")

    def test_unrank_zero(self, capsys):
        code, out, _ = run(capsys, "unrank", "0")
        assert (code, out) == (0, "\n")

    def test_negative_rank_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "unrank", "-5")
        assert exc.value.code == 2


class TestNaturalArguments:
    """Numbers on the command line are ASCII digits and nothing else."""

    @pytest.mark.parametrize("command", ["encode", "unrank"])
    @pytest.mark.parametrize(
        "text", ["1_000", " +12 ", "+12", "12 ", "\u0661\u0662", "\uff11\uff12", "\u00b2", "", "1.0", "0x10", "--5"]
    )
    def test_rejected(self, capsys, command, text):
        with pytest.raises(SystemExit) as exc:
            run(capsys, command, "--", text)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"{text!r} is not a decimal number\n")

    def test_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enumerate", "--count", "1_0")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("'1_0' is not a decimal number\n")

    @pytest.mark.parametrize("text", ["1_0", " 10 ", "+10", "\u0661\u0660", "\uff11\uff10", "-", "-+1", "--1"])
    def test_base_rejected(self, capsys, text):
        """--base reads ASCII digits too; a leading "-" is let through to the library's base check."""
        with pytest.raises(SystemExit) as exc:
            run(capsys, "encode", f"--base={text}", "5")
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"argument --base/-b: invalid int value: {text!r}\n")

    def test_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "encode", "--", "-12")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("'-12' is negative\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("encode", "{}x"),
            ("unrank", "-{}"),
            ("enumerate", "--count", "{}x"),
            ("mul", "--generators", "{}x", "2", "3"),
            ("decode", "-b", "60", "{}x"),
            ("decode", "-b", "60", "[{}x]"),
            ("add", "-b", "60", "[1]", "[2]{}"),
            # range errors, and argparse's own message for --base
            ("decode", "-b", "60", "[6{}]"),
            ("decode", "-b", "6{}", "[0]"),
            ("mul", "--generators", "6{}", "2", "3"),
            ("encode", "-b", "{}x", "1"),
            ("encode", "-b", "6{}", "-a", "ABC", "1"),
        ],
    )
    def test_long_bad_argument_gives_a_short_error(self, capsys, argv):
        """A bad argument of 10**5 characters is echoed cut, with the exit code of a short one."""
        codes, errors = [], []
        for digits in ("7", "7" * 100_000):
            try:
                codes.append(main([part.format(digits) for part in argv]))
            except SystemExit as exc:
                codes.append(exc.code)
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err.splitlines())
        assert codes[0] == codes[1] in (1, 2)
        assert errors[1][:-1] == errors[0][:-1]  # argparse's usage lines, if any
        assert len(errors[1]) == 1 or codes[1] == 2
        assert len(errors[1][-1].encode()) < 200

    @pytest.mark.parametrize(
        "argv",
        [("encode", "-b", "-{}", "1"), ("table", "add", "-b", "-{}"), ("table", "mul", "--machine", "-b", "-{}")],
    )
    def test_huge_negative_base_gives_a_short_error(self, capsys, argv):
        code = main([part.format("7" * 100_000) for part in argv])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: base must be >= 1, got -7777") and err.count("\n") == 1
        assert len(err.encode()) < 120

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("decode", "-b", "0", "[1]"), "error: base must be >= 1, got 0\n"),
            (("convert", "-b", "1", "--to", "lex", "1"), "error: with-zero base must be >= 2, got 1\n"),
        ],
    )
    def test_a_bad_base_is_named_before_the_text(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), ("1000", 1000), ("9" * 5000, 10**5000 - 1)])
    def test_accepted(self, capsys, text, value):
        code, out, _ = run(capsys, "encode", text)
        assert (code, out) == (0, core.format_lex(core.sigma(10, value), core.default_alphabet(10)) + "\n")


class TestAlphabetResolution:
    def test_environment_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ZEROLESS_ALPHABET", "ACGT")
        code, out, _ = run(capsys, "decode", "CAT")
        assert (code, out) == (0, "40\n")

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ZEROLESS_ALPHABET", "ACGT")
        code, out, _ = run(capsys, "decode", "-a", "decimal-x", "3X")
        assert (code, out) == (0, "40\n")

    def test_base_alphabet_disagreement(self, capsys):
        code, out, err = run(capsys, "decode", "-b", "5", "-a", "ACGT", "CAT")
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_bracket_needs_base(self, capsys):
        code, out, err = run(capsys, "encode", "-a", "bracket", "7")
        assert (code, out) == (1, "")
        assert "--base" in err

    def test_bracket_output_above_ten(self, capsys):
        code, out, _ = run(capsys, "encode", "-b", "60", "14945")
        assert (code, out) == (0, "[4][9][5]\n")

    @pytest.mark.parametrize("env", [None, "ACGT"])
    def test_empty_alphabet_flag_is_an_error(self, capsys, monkeypatch, env):
        if env is not None:
            monkeypatch.setenv("ZEROLESS_ALPHABET", env)
        code, out, err = run(capsys, "decode", "-a", "", "1")
        assert (code, out, err) == (1, "", "error: alphabet must contain at least one symbol\n")

    def test_empty_environment_alphabet_is_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("ZEROLESS_ALPHABET", "")
        code, out, _ = run(capsys, "decode", "1X")
        assert (code, out) == (0, "20\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"zeroless {zeroless.__version__}\n"


def test_import_leaves_out_heavy_stdlib_modules():
    """Every CLI run pays for its imports: none of these may come with the package."""
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = (
        "import sys; before = set(sys.modules); import zeroless.cli; "
        f"print(sorted(set({heavy!r}) & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_MANY_READS = b"".join(b">r%d\nACGTTGCA\nac\n" % i for i in range(6000))  # over one block


@pytest.mark.parametrize(
    "data, code, lines",
    [
        (b">s\xc3\xa9\nGATT\n", 1, 0),  # a UTF-8 header: headers are ASCII
        (b">a\r\nGA\r\nTT\r\n>b\rCAT\r", 0, 2),  # CRLF and lone CR line ends
        (b">ok\nACGT\n>bad\nAXGT\n", 1, 1),
        (_MANY_READS, 0, 6000),
        (_MANY_READS + b">bad\nNN\n", 1, 6000),  # the records before the error are printed
    ],
)
def test_rank_file_and_stdin_agree(tmp_path, data, code, lines):
    """A real process decodes its stdin as it decodes a file, whatever PYTHONIOENCODING says."""
    path = tmp_path / "in.fa"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
    cli = [sys.executable, "-m", "zeroless.cli", "rank"]
    first = subprocess.run(cli + ["--fasta", str(path)], capture_output=True, env=env, timeout=60)
    assert (first.returncode, first.stdout.count(b"\n"), first.stderr.count(b"\n")) == (code, lines, code)
    for encoding in ("utf-8", "latin-1"):
        with open(path, "rb") as stdin:
            proc = subprocess.run(
                cli, stdin=stdin, capture_output=True, env=dict(env, PYTHONIOENCODING=encoding), timeout=60
            )
        assert (proc.returncode, proc.stdout, proc.stderr) == (first.returncode, first.stdout, first.stderr)


def test_rank_non_ascii_byte_after_many_reads(tmp_path):
    """8000 reads, then a Latin-1 header: every read is printed, then one line naming the byte's line."""
    rng = random.Random(8000)
    reads = ["".join(rng.choices("ACGT", k=150)) for _ in range(8000)]
    data = b"".join(b">r%d\n%s\n" % (i, seq.encode()) for i, seq in enumerate(reads)) + b">caf\xe9\nACGT\n"
    path = tmp_path / "latin.fa"
    path.write_bytes(data)
    expected_out = "".join(f"r{i}\t{zeroless.rank_sequence(seq)}\n" for i, seq in enumerate(reads)).encode()
    expected_err = b"error: 'ascii' codec can't decode byte 0xe9 in position 4: line 16001, column 5: "
    expected_err += b"FASTA text must be ASCII\n"
    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
    cli = [sys.executable, "-m", "zeroless.cli", "rank"]
    from_file = subprocess.run(cli + ["--fasta", str(path)], capture_output=True, env=env, timeout=60)
    with open(path, "rb") as stdin:
        from_stdin = subprocess.run(cli, stdin=stdin, capture_output=True, env=env, timeout=60)
    for proc in (from_file, from_stdin):
        assert (proc.returncode, proc.stderr) == (1, expected_err)
        assert proc.stdout == expected_out


def _seeded_fasta(kind):
    """FASTA text shaped as the benchmark's inputs, and its records.

    reads: 2000 two-line 150-base reads, about 1% holding an N; contigs:
    two records at each of 11 lengths from 100 to 30000 bases. Lines are
    80 bases wide.
    """
    rng = random.Random(kind)
    if kind == "reads":
        records = []
        for i in range(2000):
            seq = "".join(rng.choices("ACGT", k=150))
            if rng.random() < 0.01:
                pos = rng.randrange(150)
                seq = seq[:pos] + "N" + seq[pos + 1 :]
            records.append((f"read{i}", seq))
    else:
        lengths = [round(100 * 300 ** (i / 10)) for i in range(11) for _ in range(2)]
        records = [(f"contig{i}_len{n}", "".join(rng.choices("ACGT", k=n))) for i, n in enumerate(lengths)]
    lines = []
    for rid, seq in records:
        lines.append(f">{rid}\n")
        lines.extend(seq[i : i + 80] + "\n" for i in range(0, len(seq), 80))
    return "".join(lines), records


# sha256 of the stdout of `zeroless rank` on _seeded_fasta's inputs, as
# the reader that built each record with a Python __init__ wrote it
_RANK_DIGESTS = {
    ("reads", "skip"): "d7aa37118f1f706d131a4e07d596953103345381c8f6c30ca2aa1fd0e75a70ad",
    ("contigs", "reject"): "0581e06d485d6b4bf3397811470757c0d888fe8e85edcac34a239c7efba3f46a",
}


@pytest.mark.parametrize("kind, policy", sorted(_RANK_DIGESTS))
def test_rank_output_is_pinned(capsys, tmp_path, kind, policy):
    text, records = _seeded_fasta(kind)
    path = tmp_path / f"{kind}.fa"
    path.write_text(text)
    code, out, err = run(capsys, "rank", "--policy", policy, "--fasta", str(path))
    expected = []
    for rid, seq in records:
        if "N" not in seq:
            rank = 0  # Horner over the digits A=1 .. T=4
            for base in seq:
                rank = 4 * rank + "ACGT".index(base) + 1
            expected.append(f"{rid}\t{rank}\n")
    assert (code, out, err) == (0, "".join(expected), "")
    assert hashlib.sha256(out.encode()).hexdigest() == _RANK_DIGESTS[kind, policy]


_TRACE_GENERATORS = {10: (None, "1,5", "2", "2,5", "3,4", "7"), 60: (None, "1,30", "2", "7,11", "12,25", "59,60")}


def test_trace_output_is_pinned(capsys):
    # 200 seeded `mul --trace` runs, bases 10 and 60, 1-30 digit operands,
    # no generators or sets with and without 1, 118 of them with a failing
    # cell: one sha1 over every argv, exit code, stdout and stderr holds the
    # trace text and its errors byte for byte while the lattice code moves.
    rng = random.Random(20)
    digest = hashlib.sha1()
    for i in range(200):
        k = (10, 60)[i % 2]
        x, y = (
            core.format_lex(core.LexNumeral(k, tuple(rng.choices(range(1, k + 1), k=rng.randint(1, 30)))))
            for _ in "xy"
        )
        gens = rng.choice(_TRACE_GENERATORS[k])
        argv = ["mul", "--trace", "--base", str(k), x, y] + (["--generators", gens] if gens else [])
        digest.update(repr((argv, *run(capsys, *argv))).encode())
    assert digest.hexdigest() == "cb634d89f33d4a4cf28d500b5b961bf3f5ac37df"


def test_table_output_is_pinned(capsys):
    # `table add|mul` in bases 1-13, 60 and 101, human and --machine, in
    # the default symbols and in brackets, and in ACGT in base 4: one sha1
    # over every argv, exit code, stdout and stderr holds the tables byte
    # for byte, as written when each table held all its k**2 entries.
    digest = hashlib.sha1()
    for k in [*range(1, 14), 60, 101]:
        for alphabet in [(), ("-a", "bracket")] + [("-a", "acgt")] * (k == 4):
            for op in ("add", "mul"):
                for machine in ((), ("--machine",)):
                    argv = ["table", op, *machine, "-b", str(k), *alphabet]
                    digest.update(repr((argv, *run(capsys, *argv))).encode())
    assert digest.hexdigest() == "e1da43ff8ef93c6c78e89067c0c0651fbe6dcea7"


# generator sets for `mul --generators` per base, some of them failing a cell
_PIN_GENERATORS = {1: ("1",), 4: ("1,2", "2", "2,3"), 10: ("1,5", "2", "3,4"), 60: ("1,30", "2", "7,11")}


def test_command_output_is_pinned(capsys):
    # 200 seeded runs of encode, decode, succ, pred, add, mul (with and
    # without --generators), convert both ways, enumerate and unrank, in
    # bases 1, 4, 10 and 60, in the default symbols, ACGT and brackets,
    # some with a refused input: one sha1 over every argv, exit code,
    # stdout and stderr holds their bytes while the output path moves.
    rng = random.Random(24)
    digest = hashlib.sha1()

    def numeral(k, alpha):
        digits = tuple(rng.choices(range(1, k + 1), k=rng.randint(0, 12)))
        text = core.format_lex(core.LexNumeral(k, digits), alpha)
        return text if rng.random() > 0.1 else text + rng.choice(["0", "[0]", "?", "[61]"])

    for i in range(200):
        command = ("encode", "decode", "succ", "pred", "add", "mul", "mul", "to-zero", "to-lex", "enumerate",
                   "unrank")[i % 11]
        k = rng.choice((1, 4, 10, 60))
        options = rng.choice([(), ("-a", "bracket")] + [("-a", "acgt")] * (k == 4))
        alpha = core.Alphabet.named(options[1], k) if options else core.default_alphabet(k)
        head = [command, "-b", str(k), *options]
        if command == "encode":
            argv = head + [str(rng.randrange(60 if k == 1 else 10 ** rng.randint(1, 30)))]
        elif command in ("decode", "succ", "pred"):
            argv = head + [numeral(k, alpha)]
        elif command in ("add", "mul"):
            argv = head + [numeral(k, alpha), numeral(k, alpha)]
            if command == "mul" and i % 11 == 6:
                argv += ["--generators", rng.choice(_PIN_GENERATORS[k])]
        elif command == "to-zero":
            argv = ["convert", "--to", "zero", *head[1:], numeral(k, alpha)]
        elif command == "to-lex":
            value = rng.randrange(10 ** rng.randint(1, 20))
            text = core.format_zero(zeroless.delta(k, value)) if k > 1 else str(value)
            argv = ["convert", "--to", "lex", *head[1:], text if rng.random() > 0.1 else "0" + text]
        elif command == "enumerate":
            argv = head + ["--count", str(rng.randint(0, 50))]
        else:
            argv = ["unrank", str(rng.randrange(10 ** rng.randint(1, 40)))]
        digest.update(repr((argv, *run(capsys, *argv))).encode())
    assert digest.hexdigest() == "84258f9a2c4bd9080b46ae1756c4df24642832a3"


_OPTIONS = "[-h] [--base BASE] [--alphabet ALPHABET]"
_NAMES = ("encode", "decode", "succ", "pred", "add", "mul", "convert", "table", "enumerate", "rank", "unrank")
# argv: (exit code, last stderr line of an error or first stdout line)
_PARSER_EXITS = {
    (): (2, "zeroless: error: the following arguments are required: command"),
    ("--help",): (0, f"usage: zeroless [-h] [--version] {{{','.join(_NAMES)}}} ..."),
    ("--version",): (0, "zeroless 0.1.0"),
    ("bogus",): (
        2,
        f"zeroless: error: argument command: invalid choice: 'bogus' (choose from {', '.join(map(repr, _NAMES))})",
    ),
    ("encode", "-h"): (0, f"usage: zeroless encode {_OPTIONS} value"),
    ("decode", "-h"): (0, f"usage: zeroless decode {_OPTIONS} numeral"),
    ("succ", "-h"): (0, f"usage: zeroless succ {_OPTIONS} numeral"),
    ("pred", "-h"): (0, f"usage: zeroless pred {_OPTIONS} numeral"),
    ("add", "-h"): (0, f"usage: zeroless add {_OPTIONS} x y"),
    ("mul", "-h"): (0, f"usage: zeroless mul {_OPTIONS} [--generators GENERATORS] [--trace] x y"),
    ("convert", "-h"): (0, f"usage: zeroless convert {_OPTIONS} --to {{zero,lex}} numeral"),
    ("table", "-h"): (0, f"usage: zeroless table {_OPTIONS} [--machine] {{add,mul}}"),
    ("enumerate", "-h"): (0, f"usage: zeroless enumerate {_OPTIONS} --count COUNT"),
    ("rank", "-h"): (0, "usage: zeroless rank [-h] [--fasta FASTA] [--policy {reject,skip}]"),
    ("unrank", "-h"): (0, "usage: zeroless unrank [-h] rank"),
    # errors raised once a subcommand's parser ran
    ("encode", "1", "2"): (2, "zeroless: error: unrecognized arguments: 2"),
    ("mul", "--bogus", "1", "2"): (2, "zeroless: error: unrecognized arguments: --bogus"),
    ("rank", "--version"): (2, "zeroless: error: unrecognized arguments: --version"),
    ("unrank",): (2, "zeroless unrank: error: the following arguments are required: rank"),
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _PARSER_EXITS])
def test_one_subcommand_parser_prints_what_the_full_one_does(capsys, monkeypatch, argv):
    """Exit code and line of each usage error, help and version request.

    The name predates the single parser. A wide terminal keeps each usage
    on one line. Quotes are left out of the comparison, as later argparse
    releases stop quoting the choices.
    """
    monkeypatch.setenv("COLUMNS", "250")
    code, line = _PARSER_EXITS[tuple(argv)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    printed = err.splitlines()[-1] if code else out.splitlines()[0]
    assert (exc.value.code, printed.replace("'", "")) == (code, line.replace("'", ""))


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_closed_stdout_exits_quietly():
    """`zeroless enumerate --count 100000 | head -1` prints no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zeroless.cli", "enumerate", "--count", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()  # the reader goes away while the writer is mid-stream
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


# the words an argv is drawn from: every flag the table declares, values
# of every kind, and words that _match leaves to argparse
_FLAGS = sorted(
    {flag for _, arguments, _ in cli._COMMANDS.values() for names, _ in arguments for flag in names if flag[0] == "-"}
)
_VALUES = ["1", "0", "007", "60", "2,5", "3, 5", "zero", "lex", "add", "mul", "reject", "skip", "acgt", "ACGT",
           "bracket", "9X", "[7][7]", "ε", "-", "", "a b", "x=y", "1e3", "٣", "encode"]
_ODD = ["--base=10", "-b10", "-b=10", "--gen", "--ba", "--", "-5", "-1,2", "-h", "--help", "--version", "-ab", "---",
        "--to=zero", "-x", "- ", "-a b", "--fasta=-"]
_PARSER = cli._build_parser()


@st.composite
def _argvs(draw):
    """A command's arguments in any order, most of them plain, then up to two words from anywhere."""
    name = draw(st.sampled_from(_NAMES + ("bogus", "--version")))
    groups = []
    for flags, kw in cli._COMMANDS.get(name, (None, (), None))[1]:
        if flags[0][0] != "-":
            groups.append([draw(st.sampled_from(_VALUES))])
        elif draw(st.booleans()):
            flag = draw(st.sampled_from(flags))
            groups.append([flag] if kw.get("action") == "store_true" else [flag, draw(st.sampled_from(_VALUES))])
    argv = [name] + [word for group in draw(st.permutations(groups)) for word in group]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD + _FLAGS + _VALUES)))
    return argv


@settings(max_examples=600, deadline=None)
@given(_argvs())
def test_match_answers_as_argparse_does(argv):
    args = cli._match(argv)
    if args is not None:
        assert vars(args) == vars(_PARSER.parse_args(argv))


# one argv of each shape the benchmark's CLI jobs and set-up starts take,
# written out here because the tests do not import the benchmark
_BENCHMARK_ARGVS = [
    ["encode", "1"],
    ["rank", "--policy", "skip", "--fasta", "/work/reads.fa"],
    ["rank", "--policy", "skip", "--fasta", "-"],
    ["rank", "--fasta", "/work/contigs.fa"],
    ["unrank", "123456789"],
    ["table", "mul", "-b", "300", "--machine"],
    ["enumerate", "--count", "20000"],
    ["mul", "37", "3X"],
    ["mul", "--generators", "1,3,5,7", "427", "35"],
    ["add", "9X", "1"],
    ["convert", "-b", "10", "--to", "zero", "9X"],
    ["convert", "-b", "60", "--to", "lex", "[1][0][59]"],
    ["encode", "38070"],
    ["decode", "37X6X"],
    ["succ", "XX"],
    ["pred", "1XX"],
]


@pytest.mark.parametrize("argv", _BENCHMARK_ARGVS, ids=" ".join)
def test_match_answers_every_benchmark_shape(argv):
    args = cli._match(argv)
    assert args is not None and vars(args) == vars(_PARSER.parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [[], ["--version"], ["bogus"], ["encode", "-h"], ["encode", "--base=10", "5"], ["encode", "-b10", "5"],
     ["mul", "--gen", "3,5", "6", "6"], ["encode", "--", "5"], ["encode", "-b", "4", "-b", "5", "1"],
     ["encode", "-5"], ["encode", "x"], ["encode", "1", "2"], ["encode", "-b"], ["table", "div"],
     ["convert", "9X"], ["rank", "--fasta", "--policy", "skip"], ["mul", "--trace", "--trace", "6", "6"]],
    ids=" ".join,
)
def test_match_leaves_the_rest_to_argparse(argv):
    assert cli._match(argv) is None


def test_plain_runs_leave_out_argparse():
    """A plain argv never imports argparse, nor the gettext and locale its messages bring."""
    code = (
        "import sys; before = set(sys.modules); from zeroless import cli; "
        "codes = [cli.main(['encode', '1']), cli.main(['unrank', '5'])]; "
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\nAA\n[0, 0] []\n", "")


@pytest.mark.parametrize("argv", [["encode", "1"], ["encode", "--base=10", "1"]])
def test_out_of_memory_is_one_line(capsys, monkeypatch, argv):
    """Through the matcher and through argparse alike: exit 1 and one line, no traceback."""

    def exhaust(args):
        raise MemoryError

    text, arguments, _ = cli._COMMANDS["encode"]
    monkeypatch.setitem(cli._COMMANDS, "encode", (text, arguments, exhaust))
    assert run(capsys, *argv) == (1, "", "error: out of memory\n")
