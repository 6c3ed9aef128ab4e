"""Single-digit operation tables for zeroless arithmetic.

A table is its kind and its base; no entry is stored. An entry a op b
is at most k**2, so ``divmod`` by k gives its with-zero digits [h][l],
and the value-preserving borrow sweep to zeroless digits is one step:
[h][0] becomes [h-1][k]. The same rule gives the row and column of the
digit k, which classical tables lack. A lookup works out its one entry
by that rule, and every output works out one row at a time, so memory
holds O(k) cells, never k**2. Tests check the result against the rank
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
# largest base with a table: a table's outputs hold O(k) labels and cells,
# and at this base both start within 256 MB of address space
_MAX_BASE = 1 << 18


class OpTable(_Frozen):
    """Zeroless digit-pair results for one operation in one base.

    It holds its kind and base alone; each entry is worked out when it
    is looked up.
    """

    __slots__ = ("kind", "base")

    def __init__(self, kind: str, base: int):
        _set(self, "kind", kind)
        _set(self, "base", base)
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in _OP:
            raise ValueError(f"unknown table kind {self.kind!r}")
        operator.index(self.base)  # TypeError for a float base, whose entries would be floats
        if self.base < 1:
            raise ValueError(f"base must be >= 1, got {_echo_int(self.base)}")
        if self.base > _MAX_BASE:
            raise ValueError(f"table base must be <= {_MAX_BASE}, got {_echo_int(self.base)}")

    def entry(self, a: int, b: int) -> tuple[int, ...]:
        """Result digits for the pair (a, b), most significant first."""
        k = self.base
        if not (isinstance(a, int) and isinstance(b, int) and 0 < a <= k and 0 < b <= k):
            raise ValueError(f"digit pair ({_echo_int(a)}, {_echo_int(b)}) outside base {k}")
        [(high, low)] = _row(self.kind, k, a, (b,))
        return (high, low) if high else (low,)

    def result(self, a: int, b: int) -> LexNumeral:
        return LexNumeral(self.base, self.entry(a, b))

    @property
    def entries(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Every entry by its digit pair, row-major: k**2 of them, built anew on each access."""
        digits = range(1, self.base + 1)
        return {(a, b): self.entry(a, b) for a in digits for b in digits}

    @property
    def symbol(self) -> str:
        return _OP_SYMBOL[self.kind]


def _row(kind, k, a, bs):
    """Digits (high, low) of ``a op b`` for each b in ``bs``; high is 0 for one digit."""
    op = _OP[kind]
    row = []
    for b in bs:
        high, low = divmod(op(a, b), k)
        row.append((high, low) if low else (high - 1, k))
    return row


@lru_cache(maxsize=None)
def build_addition_table(k: int) -> OpTable:
    """Digit sums 1..k by 1..k as zeroless strings; cached per base."""
    return OpTable("addition", k)


@lru_cache(maxsize=None)
def build_multiplication_table(k: int) -> OpTable:
    """Digit products 1..k by 1..k as zeroless strings; cached per base."""
    return OpTable("multiplication", k)


def render_table(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> str:
    """Human-readable operation grid, row digit first.

    Digits show in ``alphabet``, as bracket ciphers when it is None, and
    in the base's default symbols when it is left out.
    """
    return "".join(stream_grid(table, alphabet))[:-1]


def stream_grid(table: OpTable, alphabet: Alphabet | None = _DEFAULT):
    """The lines of ``render_table``, each ending in a newline: a first
    pass over the rows takes the column widths, so memory holds O(k)
    cells, not k**2."""
    labels = _labels(table.base, alphabet)
    widths = [len(label) for label in labels[1:]]
    for cells in _cells(table, labels):
        widths = list(map(max, widths, map(len, cells)))
    head_w = max(len(table.symbol), *map(len, labels))
    for left, cells in zip([table.symbol, *labels[1:]], chain([labels[1:]], _cells(table, labels))):
        yield "  ".join([left.rjust(head_w), *map(str.rjust, cells, widths)]).rstrip() + "\n"


def _labels(k, alphabet):
    """Each digit's rendering, indexed by the digit; index 0 holds ""."""
    if alphabet is _DEFAULT:
        alphabet = default_alphabet(k)
    return ["", *(format_lex(LexNumeral(k, (d,)), alphabet) for d in range(1, k + 1))]


def _cells(table, labels):
    """The renderings of the results, one list per row digit; a numeral
    renders as its digits' renderings side by side."""
    digits = range(1, table.base + 1)
    for a in digits:
        yield [labels[high] + labels[low] for high, low in _row(table.kind, table.base, a, digits)]


def table_rows(table: OpTable, alphabet: Alphabet | None = _DEFAULT):
    """Machine-oriented lines "a<TAB>b<TAB>result", one item per row digit:
    its k lines, each ending in a newline. Each row is worked out on its
    own, so memory holds O(k) cells, not k**2. ``alphabet`` is read as in
    ``render_table``."""
    labels = _labels(table.base, alphabet)
    rights = [f"\t{label}\t" for label in labels[1:]]
    for left, row in zip(labels[1:], _cells(table, labels)):
        yield "".join([f"{left}{right}{text}\n" for right, text in zip(rights, row)])


def table_entries(table: OpTable, alphabet: Alphabet | None = _DEFAULT) -> list:
    """Machine-oriented tab-delimited lines "a<TAB>b<TAB>result", row-major."""
    return [line for row in table_rows(table, alphabet) for line in row[:-1].split("\n")]
