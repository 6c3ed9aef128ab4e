"""Single-digit operation tables for zeroless arithmetic.

The tables are not computed by ranking. An entry a op b is at most
k**2, so ``divmod`` by k gives its with-zero digits [h][l], and the
value-preserving borrow sweep to zeroless digits is one step: [h][0]
becomes [h-1][k]. The same rule gives the row and column of the digit
k, which classical tables lack. Tests check the result against the rank
maps independently.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from zeroless.core import Alphabet, LexNumeral, _Frozen, _set, default_alphabet, format_lex

_OP_SYMBOL = {"addition": "+", "multiplication": "*"}
_OP = {"addition": operator.add, "multiplication": operator.mul}
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


def _row(kind, k, a):
    """Digits (high, low) of ``a op b`` for b = 1..k; high is 0 for one digit."""
    op = _OP[kind]
    row = []
    for b in range(1, k + 1):
        high, low = divmod(op(a, b), k)
        row.append((high, low) if low else (high - 1, k))
    return row


def _check(kind, k):
    if kind not in _OP:
        raise ValueError(f"unknown table kind {kind!r}")
    if k < 1:
        raise ValueError(f"base must be >= 1, got {k}")


def _build(kind, k):
    _check(kind, k)
    entries = {}
    for a in range(1, k + 1):
        for b, (high, low) in enumerate(_row(kind, k, a), start=1):
            entries[(a, b)] = (high, low) if high else (low,)
    return OpTable(kind, k, entries)


@lru_cache(maxsize=None)
def build_addition_table(k: int) -> OpTable:
    """Digit sums 1..k by 1..k as zeroless strings; cached per base."""
    return _build("addition", k)


@lru_cache(maxsize=None)
def build_multiplication_table(k: int) -> OpTable:
    """Digit products 1..k by 1..k as zeroless strings; cached per base."""
    return _build("multiplication", k)


def render_table(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> str:
    """Human-readable operation grid, row digit first.

    Digits show in ``alphabet``, as bracket ciphers when it is None, and
    in the base's default symbols when it is left out.
    """
    k = table.base
    rendered = _labels(k, alphabet)
    labels = rendered[1:]
    grid = [_texts(table, rendered, a) for a in range(1, k + 1)]
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
    """Each digit's rendering, indexed by the digit; index 0 holds ""."""
    if alphabet is _DEFAULT:
        alphabet = default_alphabet(k)
    return ["", *(format_lex(LexNumeral(k, (d,)), alphabet) for d in range(1, k + 1))]


def _texts(table, labels, a):
    """The renderings of the results in row ``a``; a numeral renders as
    its digits' renderings side by side."""
    entries = table.entries
    return ["".join(map(labels.__getitem__, entries[(a, b)])) for b in range(1, table.base + 1)]


def _rows(labels, results):
    """Lines "a<TAB>b<TAB>result", one row digit's k lines per item.

    ``results(a)`` gives the texts of the results in row ``a``.
    """
    rights = [f"\t{label}\t" for label in labels[1:]]
    for a, left in enumerate(labels[1:], start=1):
        yield "".join([f"{left}{right}{text}\n" for right, text in zip(rights, results(a))])


def table_rows(table: OpTable, alphabet: Alphabet | None = _DEFAULT):
    """Machine-oriented lines "a<TAB>b<TAB>result", yielded one row at a time.

    Each item is the k lines of one row digit, every line ending in a
    newline. ``alphabet`` is read as in ``render_table``.
    """
    labels = _labels(table.base, alphabet)
    return _rows(labels, lambda a: _texts(table, labels, a))


def stream_rows(kind: str, k: int, alphabet: Alphabet | None = _DEFAULT):
    """``table_rows(build_<kind>_table(k), alphabet)`` without the table.

    Each row is worked out on its own, so memory holds O(k) entries, not
    the k**2 of ``OpTable.entries``.
    """
    _check(kind, k)
    labels = _labels(k, alphabet)
    return _rows(labels, lambda a: [labels[high] + labels[low] for high, low in _row(kind, k, a)])


def table_entries(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> list:
    """Machine-oriented tab-delimited lines "a<TAB>b<TAB>result", row-major."""
    return [line for row in table_rows(table, alphabet) for line in row[:-1].split("\n")]
