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
from itertools import chain

from zeroless.core import Alphabet, LexNumeral, _echo_int, _Frozen, _set, default_alphabet, format_lex

_OP_SYMBOL = {"addition": "+", "multiplication": "*"}
_OP = {"addition": operator.add, "multiplication": operator.mul}
# an alphabet argument left out: the base's default symbols (None means brackets)
_DEFAULT = object()
# largest base with a table: a table holds O(k) labels and cells while it
# streams, and at this base both outputs start within 256 MB of address space
_MAX_BASE = 1 << 18


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
            raise ValueError(f"digit pair ({_echo_int(a)}, {_echo_int(b)}) outside base {self.base}") from None

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
        raise ValueError(f"base must be >= 1, got {_echo_int(k)}")
    if k > _MAX_BASE:
        raise ValueError(f"table base must be <= {_MAX_BASE}, got {_echo_int(k)}")


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
    return "".join(stream_grid(table.kind, table.base, alphabet))[:-1]


def stream_grid(kind: str, k: int, alphabet: Alphabet | None = _DEFAULT):
    """The lines of ``render_table``, each ending in a newline, without the
    table: a first pass over the rows takes the column widths, so memory
    holds O(k) cells, not k**2."""
    _check(kind, k)
    return _grid(kind, k, _labels(k, alphabet))


def _grid(kind, k, labels):
    widths = [len(label) for label in labels[1:]]
    for cells in _cells(kind, k, labels):
        widths = list(map(max, widths, map(len, cells)))
    symbol = _OP_SYMBOL[kind]
    head_w = max(len(symbol), *map(len, labels))
    for left, cells in zip([symbol, *labels[1:]], chain([labels[1:]], _cells(kind, k, labels))):
        yield "  ".join([left.rjust(head_w), *map(str.rjust, cells, widths)]).rstrip() + "\n"


def _labels(k, alphabet):
    """Each digit's rendering, indexed by the digit; index 0 holds ""."""
    if alphabet is _DEFAULT:
        alphabet = default_alphabet(k)
    return ["", *(format_lex(LexNumeral(k, (d,)), alphabet) for d in range(1, k + 1))]


def _cells(kind, k, labels):
    """The renderings of the results, one list per row digit; a numeral
    renders as its digits' renderings side by side."""
    for a in range(1, k + 1):
        yield [labels[high] + labels[low] for high, low in _row(kind, k, a)]


def _rows(kind, k, labels):
    """Lines "a<TAB>b<TAB>result", one row digit's k lines per item."""
    rights = [f"\t{label}\t" for label in labels[1:]]
    for left, row in zip(labels[1:], _cells(kind, k, labels)):
        yield "".join([f"{left}{right}{text}\n" for right, text in zip(rights, row)])


def table_rows(table: OpTable, alphabet: Alphabet | None = _DEFAULT):
    """Machine-oriented lines "a<TAB>b<TAB>result", one item per row digit:
    its k lines, each ending in a newline. ``alphabet`` is read as in
    ``render_table``."""
    return stream_rows(table.kind, table.base, alphabet)


def stream_rows(kind: str, k: int, alphabet: Alphabet | None = _DEFAULT):
    """``table_rows`` for ``kind`` in base ``k``, without the table: each
    row is worked out on its own, so memory holds O(k) cells, not k**2."""
    _check(kind, k)
    return _rows(kind, k, _labels(k, alphabet))


def table_entries(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> list:
    """Machine-oriented tab-delimited lines "a<TAB>b<TAB>result", row-major."""
    return [line for row in table_rows(table, alphabet) for line in row[:-1].split("\n")]
