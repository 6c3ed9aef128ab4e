"""Single-digit operation tables for zeroless arithmetic.

The tables are not computed by ranking. Each one is obtained from the
classical with-zero table by rewriting every entry with the value-
preserving borrow sweep (so trailing zeros disappear into the digit k)
and then extending it with a row and column for the digit k itself,
which classical tables do not have. Tests check the result against the
rank maps independently.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from zeroless._backend import zero_to_lex_digits
from zeroless.core import Alphabet, LexNumeral, _Frozen, _set, default_alphabet, format_lex

_OP_SYMBOL = {"addition": "+", "multiplication": "*"}
# an alphabet argument left out: the base's default symbols (None means brackets)
_DEFAULT = object()


class OpTable(_Frozen):
    """Zeroless digit-pair results for one operation in one base."""

    __slots__ = ("kind", "base", "entries")

    def __init__(self, kind: str, base: int, entries: dict[tuple[int, int], tuple[int, ...]]):
        _set(self, "kind", kind)
        _set(self, "base", base)
        _set(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in _OP_SYMBOL:
            raise ValueError(f"unknown table kind {self.kind!r}")

    def entry(self, a: int, b: int) -> tuple[int, ...]:
        """Result digits for the pair (a, b), most significant first."""
        try:
            return self.entries[(a, b)]
        except KeyError:
            raise ValueError(f"digit pair ({a}, {b}) outside base {self.base}") from None

    def result(self, a: int, b: int) -> LexNumeral:
        return LexNumeral(self.base, self.entry(a, b))

    @property
    def symbol(self) -> str:
        return _OP_SYMBOL[self.kind]


def _classical_entries(k, op):
    """Results of op on the digits 1..k-1, from with-zero form rewritten zeroless."""
    entries = {}
    cells = {}  # many digit pairs share a result value
    for a in range(1, k):
        for b in range(a, k):  # op is commutative
            v = op(a, b)
            if v not in cells:
                # v < k**2, so its with-zero form has at most two digits
                high, low = divmod(v, k)
                classical = (high, low) if high else (low,)
                cells[v] = tuple(zero_to_lex_digits(classical, k))
            entries[(a, b)] = entries[(b, a)] = cells[v]
    return entries


@lru_cache(maxsize=None)
def build_addition_table(k: int) -> OpTable:
    """Digit sums 1..k by 1..k as zeroless strings; cached per base."""
    if k < 1:
        raise ValueError(f"base must be >= 1, got {k}")
    entries = _classical_entries(k, operator.add)
    for j in range(1, k + 1):
        # the digit k has no classical counterpart: j + k rolls over to [1][j]
        entries[(j, k)] = (1, j)
        entries[(k, j)] = (1, j)
    return OpTable("addition", k, entries)


@lru_cache(maxsize=None)
def build_multiplication_table(k: int) -> OpTable:
    """Digit products 1..k by 1..k as zeroless strings; cached per base."""
    if k < 1:
        raise ValueError(f"base must be >= 1, got {k}")
    entries = _classical_entries(k, operator.mul)
    for j in range(1, k + 1):
        # j * k = (j-1) shifted once, then the digit k; for j = 1 just [k]
        product = (j - 1, k) if j > 1 else (k,)
        entries[(j, k)] = product
        entries[(k, j)] = product
    return OpTable("multiplication", k, entries)


def render_table(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> str:
    """Human-readable operation grid, row digit first.

    Digits show in ``alphabet``, as bracket ciphers when it is None, and
    in the base's default symbols when it is left out.
    """
    if alphabet is _DEFAULT:
        alphabet = default_alphabet(table.base)
    k = table.base

    def cell(digits):
        return format_lex(LexNumeral(k, tuple(digits)), alphabet)

    labels = [cell((d,)) for d in range(1, k + 1)]
    grid = [[cell(table.entries[(a, b)]) for b in range(1, k + 1)] for a in range(1, k + 1)]
    widths = [max(len(labels[j]), max(len(row[j]) for row in grid)) for j in range(k)]
    head_w = max(len(table.symbol), max(len(s) for s in labels))
    lines = []
    header = [table.symbol.rjust(head_w)] + [labels[j].rjust(widths[j]) for j in range(k)]
    lines.append("  ".join(header).rstrip())
    for i in range(k):
        row = [labels[i].rjust(head_w)] + [grid[i][j].rjust(widths[j]) for j in range(k)]
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines)


def _labels(k, alphabet):
    if alphabet is _DEFAULT:
        alphabet = default_alphabet(k)
    return [format_lex(LexNumeral(k, (d,)), alphabet) for d in range(1, k + 1)]


def _rows(labels, results):
    """Lines "a<TAB>b<TAB>result", one row digit's k lines per item.

    ``results(a)`` gives the texts of the results in row ``a``.
    """
    rights = [f"\t{label}\t" for label in labels]
    for a, left in enumerate(labels, start=1):
        yield "".join([f"{left}{right}{text}\n" for right, text in zip(rights, results(a))])


def table_rows(table: OpTable, alphabet: Alphabet | None = _DEFAULT):
    """Machine-oriented lines "a<TAB>b<TAB>result", yielded one row at a time.

    Each item is the k lines of one row digit, every line ending in a
    newline. ``alphabet`` is read as in ``render_table``.
    """
    k = table.base
    labels = _labels(k, alphabet)
    entries = table.entries

    def results(a):
        # a numeral renders as its digits' renderings side by side
        return ["".join([labels[d - 1] for d in entries[(a, b)]]) for b in range(1, k + 1)]

    return _rows(labels, results)


def stream_rows(kind: str, k: int, alphabet: Alphabet | None = _DEFAULT):
    """``table_rows(build_<kind>_table(k), alphabet)`` without the table.

    Each row is worked out on its own, so memory holds O(k) entries, not
    the k**2 of ``OpTable.entries``. An entry's value v is at most k**2,
    so ``divmod(v, k)`` gives its with-zero digits [h][l], and the
    borrow sweep is one step: [h][0] becomes [h-1][k]. That also gives
    the row and column of the digit k, which classical tables lack
    (j + k is [1][j], j * k is [j-1][k]).
    """
    if kind not in _OP_SYMBOL:
        raise ValueError(f"unknown table kind {kind!r}")
    if k < 1:
        raise ValueError(f"base must be >= 1, got {k}")
    op = operator.add if kind == "addition" else operator.mul
    labels = _labels(k, alphabet)

    def results(a):
        for b in range(1, k + 1):
            high, low = divmod(op(a, b), k)
            if not low:
                high, low = high - 1, k
            yield labels[high - 1] + labels[low - 1] if high else labels[low - 1]

    return _rows(labels, results)


def table_entries(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> list:
    """Machine-oriented tab-delimited lines "a<TAB>b<TAB>result", row-major."""
    return [line for row in table_rows(table, alphabet) for line in row[:-1].split("\n")]
