import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeroless
from zeroless import (
    Alphabet,
    LexNumeral,
    build_addition_table,
    build_multiplication_table,
    default_alphabet,
    format_lex,
    omega,
    parse_lex,
    sigma,
)
from zeroless.tables import _MAX_BASE, OpTable, render_table, stream_grid, table_entries, table_rows

# k=4 addition grid over ACGT, row digit first
ADDITION_4 = """
A: C G T AA
C: G T AA AC
G: T AA AC AG
T: AA AC AG AT
"""

# k=10 multiplication grid, symbols 1..9 and X = ten
MULTIPLICATION_10 = """
1: 1 2 3 4 5 6 7 8 9 X
2: 2 4 6 8 X 12 14 16 18 1X
3: 3 6 9 12 15 18 21 24 27 2X
4: 4 8 12 16 1X 24 28 32 36 3X
5: 5 X 15 1X 25 2X 35 3X 45 4X
6: 6 12 18 24 2X 36 42 48 54 5X
7: 7 14 21 28 35 42 49 56 63 6X
8: 8 16 24 32 3X 48 56 64 72 7X
9: 9 18 27 36 45 54 63 72 81 8X
X: X 1X 2X 3X 4X 5X 6X 7X 8X 9X
"""

CHECK_BASES = (1, 2, 3, 4, 5, 8, 10, 16, 60, 64)


def grid_entries(text, alphabet):
    out = {}
    for line in text.strip().splitlines():
        row_sym, cells = line.split(":")
        a = alphabet.value(row_sym.strip())
        for b, cell in enumerate(cells.split(), start=1):
            out[(a, b)] = parse_lex(cell, alphabet=alphabet).digits
    return out


class TestAdditionTable:
    def test_matches_known_base4_grid(self, acgt):
        table = build_addition_table(4)
        expected = grid_entries(ADDITION_4, acgt)
        assert len(expected) == 16
        assert table.entries == expected

    def test_base10_rollover(self):
        table = build_addition_table(10)
        assert table.entry(10, 10) == (1, 10)  # X+X = 1X

    def test_unary(self):
        table = build_addition_table(1)
        assert table.entries == {(1, 1): (1, 1)}

    @pytest.mark.parametrize("k", CHECK_BASES)
    def test_values_and_symmetry(self, k):
        table = build_addition_table(k)
        assert set(table.entries) == {(a, b) for a in range(1, k + 1) for b in range(1, k + 1)}
        for (a, b), digits in table.entries.items():
            assert omega(LexNumeral(k, digits)) == a + b
            assert len(digits) <= 2
            assert digits == table.entry(b, a)

    @pytest.mark.parametrize("k", CHECK_BASES)
    def test_agrees_with_rank_route(self, k):
        table = build_addition_table(k)
        for (a, b), digits in table.entries.items():
            assert digits == sigma(k, a + b).digits

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError):
            build_addition_table(4).entry(0, 1)
        with pytest.raises(ValueError, match=r"^digit pair \(5, 1\) outside base 4$"):
            build_addition_table(4).result(5, 1)

    @pytest.mark.parametrize("a, b", [(1.0, 2), (2, 1.0), ("1", 2), (None, 1), (1, (2,))])
    def test_a_digit_that_is_no_int_is_outside(self, a, b):
        table = build_addition_table(4)
        for look_up in (table.entry, table.result):
            with pytest.raises(ValueError, match=r"^digit pair \(.*\) outside base 4$"):
                look_up(a, b)

    def test_result_and_symbol(self):
        table = build_addition_table(4)
        assert table.result(4, 4) == LexNumeral(4, (1, 4))
        assert (table.symbol, build_multiplication_table(4).symbol) == ("+", "*")


class TestMultiplicationTable:
    def test_matches_known_base10_grid(self, decimal_x):
        table = build_multiplication_table(10)
        expected = grid_entries(MULTIPLICATION_10, decimal_x)
        assert len(expected) == 100
        assert table.entries == expected

    def test_named_entries(self):
        table = build_multiplication_table(10)
        assert table.entry(5, 10) == (4, 10)  # 5*X = 4X
        assert table.entry(10, 10) == (9, 10)  # X*X = 9X
        assert table.entry(7, 7) == (4, 9)
        for j in range(1, 11):
            assert table.entry(1, j) == (j,)

    def test_base4_top_corner(self):
        assert build_multiplication_table(4).entry(4, 4) == (3, 4)

    def test_unary(self):
        table = build_multiplication_table(1)
        assert table.entries == {(1, 1): (1,)}

    @pytest.mark.parametrize("k", CHECK_BASES)
    def test_values_and_symmetry(self, k):
        table = build_multiplication_table(k)
        assert len(table.entries) == k * k
        for (a, b), digits in table.entries.items():
            assert omega(LexNumeral(k, digits)) == a * b
            assert len(digits) <= 2
            assert digits == table.entry(b, a)

    @pytest.mark.parametrize("k", CHECK_BASES)
    def test_agrees_with_rank_route(self, k):
        table = build_multiplication_table(k)
        for (a, b), digits in table.entries.items():
            assert digits == sigma(k, a * b).digits


class TestRendering:
    def test_addition_grid_base4(self, acgt):
        text = render_table(build_addition_table(4), acgt)
        assert text.splitlines() == [
            "+   A   C   G   T",
            "A   C   G   T  AA",
            "C   G   T  AA  AC",
            "G   T  AA  AC  AG",
            "T  AA  AC  AG  AT",
        ]

    def test_unary_grid(self):
        text = render_table(build_addition_table(1))
        assert text.splitlines() == ["+   1", "1  11"]

    def test_multiplication_grid_shape(self):
        lines = render_table(build_multiplication_table(10)).splitlines()
        assert len(lines) == 11
        assert lines[0].split() == ["*", "1", "2", "3", "4", "5", "6", "7", "8", "9", "X"]
        assert lines[10].split() == ["X", "X", "1X", "2X", "3X", "4X", "5X", "6X", "7X", "8X", "9X"]

    def test_no_trailing_whitespace(self):
        for k in (1, 4, 10, 60):
            for build in (build_addition_table, build_multiplication_table):
                for line in render_table(build(k)).splitlines():
                    assert line == line.rstrip()

    def test_machine_entries(self):
        lines = table_entries(build_addition_table(4))
        assert len(lines) == 16
        assert lines[0] == "1\t1\t2"
        assert lines[-1] == "4\t4\t14"
        bracket = table_entries(build_multiplication_table(60))
        assert bracket[-1] == "[60]\t[60]\t[59][60]"

    def test_none_alphabet_is_brackets(self):
        table = build_addition_table(4)
        assert render_table(table, None).splitlines()[1] == "[1]     [2]     [3]     [4]  [1][1]"
        assert table_entries(table, None)[-1] == "[4]\t[4]\t[1][4]"
        assert table_entries(table)[-1] == "4\t4\t14"

    def test_rows_are_the_machine_entries(self):
        table = build_multiplication_table(12)
        rows = list(table_rows(table))
        assert len(rows) == 12
        assert all(row.count("\n") == 12 and row.endswith("\n") for row in rows)
        assert "".join(rows) == "".join(line + "\n" for line in table_entries(table))

    @pytest.mark.parametrize("k", [*range(1, 14), 60, 101])
    @pytest.mark.parametrize("kind", ["addition", "multiplication"])
    def test_stream_rows_match_the_built_table(self, kind, k):
        """``table_rows``, worked out a row at a time, against the entries looked up and formatted one by one."""
        table = (build_addition_table if kind == "addition" else build_multiplication_table)(k)
        alphabets = [default_alphabet(k), None] + ([Alphabet.named("acgt")] if k == 4 else [])
        for alphabet in alphabets:

            def show(digits):
                return format_lex(LexNumeral(k, digits), alphabet)

            expected = [
                "".join(f"{show((a,))}\t{show((b,))}\t{show(table.entry(a, b))}\n" for b in range(1, k + 1))
                for a in range(1, k + 1)
            ]
            assert list(table_rows(table, alphabet)) == expected
        assert list(table_rows(table)) == list(table_rows(table, default_alphabet(k)))

    @pytest.mark.parametrize("k", [1, 4, 11, 60, 101])
    @pytest.mark.parametrize("kind", ["addition", "multiplication"])
    def test_grid_cells_are_the_entries(self, kind, k):
        """Each grid cell is its entry formatted on its own, right-aligned in columns of one width."""
        table = (build_addition_table if kind == "addition" else build_multiplication_table)(k)
        for alphabet in (default_alphabet(k), None):
            lines = render_table(table, alphabet).splitlines()
            assert "".join(stream_grid(table, alphabet)) == render_table(table, alphabet) + "\n"
            assert len(lines) == k + 1 and len({len(line) for line in lines}) == 1
            for a, line in enumerate(lines[1:], start=1):
                cells = [format_lex(LexNumeral(k, table.entry(a, b)), alphabet) for b in range(1, k + 1)]
                assert line.split() == [format_lex(LexNumeral(k, (a,)), alphabet), *cells]

    def test_stream_rows_guards(self):
        """The outputs take a table, and a table refuses a base outside [1, _MAX_BASE] when it is made."""
        for kind in ("addition", "multiplication"):
            with pytest.raises(ValueError, match=r"^base must be >= 1, got 0$"):
                OpTable(kind, 0)
            with pytest.raises(ValueError, match=r"^base must be >= 1, got -4$"):
                OpTable(kind, -4)
            with pytest.raises(ValueError, match=rf"^table base must be <= {_MAX_BASE}, got {_MAX_BASE + 1}$"):
                OpTable(kind, _MAX_BASE + 1)
            assert OpTable(kind, _MAX_BASE).base == _MAX_BASE
            with pytest.raises(TypeError):
                OpTable(kind, 4.0)

    def test_stream_grid_guards(self):
        """The builders make their tables, so they refuse what a table refuses."""
        for build in (build_addition_table, build_multiplication_table):
            with pytest.raises(ValueError, match="base must be >= 1"):
                build(0)
            with pytest.raises(ValueError, match="table base must be <="):
                build(_MAX_BASE + 1)
            with pytest.raises(TypeError):
                build(4.0)

    def test_kind_guard(self):
        with pytest.raises(ValueError, match=r"^unknown table kind 'division'$"):
            OpTable("division", 4)


def test_tables_are_cached():
    assert build_addition_table(7) is build_addition_table(7)
    assert build_multiplication_table(7) is build_multiplication_table(7)


def test_largest_tables_hold_no_cells():
    """A table at the largest base, and a 1200 one, are made and looked up within 256 MB of address space.

    The child limits itself, so the limit acts on that process only.
    """
    code = (
        "import resource; "
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
        "from zeroless import tables; "
        "k = tables._MAX_BASE; "
        "print(tables.build_multiplication_table(k).entry(k, k), tables.build_addition_table(1200).entry(1200, 1200))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zeroless.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"({_MAX_BASE - 1}, {_MAX_BASE}) (1, 1200)\n", "")
