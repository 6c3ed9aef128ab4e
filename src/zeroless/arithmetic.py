"""Arithmetic on zeroless numerals, including lattice multiplication.

Addition, single-digit scaling and the shift by the base work digit-wise
on the zeroless strings themselves. Full multiplication goes through
ranks instead: the rank map is a value-preserving bijection, so the
product is sigma(k, omega(a) * omega(b)), one bignum multiplication
between two radix conversions. The digit-string schoolbook stays in
``_backend.multiply_digits`` as the reference it is tested against.
Lattice multiplication works on digits by design: its per-cell products
are collected in with-zero columns, summed with ordinary carries, and
the finished intermediate is rewritten as a zeroless string at the very
end. Cells whose digit products are inconvenient to know by heart can be
split over a set of generator digits; the partial products then land in
the same columns. Each digit is tested against the sums of generators
first; the lattice itself runs only when its trace is asked for, and
without one the product is taken by rank.
"""

from __future__ import annotations

import operator

from zeroless import _backend
from zeroless.core import (
    _SET_BASES, LexNumeral, ZeroNumeral, _check_same_base, _echo_int, _Frozen, _set, omega, sigma,
)


def add(a: LexNumeral, b: LexNumeral) -> LexNumeral:
    """Sum of two zeroless numerals, computed digit-wise."""
    _check_same_base(a, b)
    return LexNumeral(a.base, _backend.add_digits(a.digits, b.digits, a.base))


def scale(a: LexNumeral, d: int) -> LexNumeral:
    """Product of a zeroless numeral with a single digit d in [1, base]."""
    if not 1 <= d <= a.base:
        raise ValueError(f"digit {_echo_int(d)} out of range [1, {_echo_int(a.base)}]")
    if a.is_zero:
        return a
    return LexNumeral(a.base, _backend.scale_digits(a.digits, d, a.base))


def multiply_by_base(a: LexNumeral) -> LexNumeral:
    """One-position shift: predecessor digits with the base digit appended."""
    return LexNumeral(a.base, _backend.multiply_by_base_digits(a.digits, a.base))


def multiply(a: LexNumeral, b: LexNumeral) -> LexNumeral:
    """Product of two zeroless numerals: the numeral of rank omega(a) * omega(b)."""
    _check_same_base(a, b)
    return sigma(a.base, omega(a) * omega(b))


class LatticeTrace(_Frozen):
    """Everything the lattice wrote down before the final rewrite.

    ``columns`` lists the collected entries per column, most significant
    column first; ``steps`` narrates the run (entries placed, carries
    appended, columns summed), with columns numbered 1 upward from the
    least significant; ``intermediate`` is the canonical with-zero
    numeral left after the column sums.
    """

    __slots__ = ("columns", "steps", "intermediate")

    def __init__(
        self, columns: tuple[tuple[int, ...], ...], steps: tuple[str, ...], intermediate: ZeroNumeral
    ):
        _set(self, "columns", columns)
        _set(self, "steps", steps)
        _set(self, "intermediate", intermediate)


class _Splits:
    """Fewest-parts sums of generators, worked out up to the largest value asked.

    Coin change by dynamic programming over 0..value: ``first[v]`` is the
    first part of the fewest-parts sum making v.
    Among sums with the fewest parts the one with the largest parts wins:
    generators are tried largest first and a later one only replaces an
    earlier one on a strictly shorter sum, so the parts come out largest
    first. It is asked only for values that some sum makes, since
    ``lattice_multiply`` checks every digit first.
    """

    def __init__(self, generators: tuple):
        self.generators = generators  # sorted descending
        self.count = [0]  # fewest parts making v, None when no sum does
        self.first = [0]

    def _extend(self, value: int) -> None:
        count, first = self.count, self.first
        for v in range(len(count), value + 1):
            best, pick = None, 0
            for g in self.generators:
                if g <= v and count[v - g] is not None and (best is None or count[v - g] + 1 < best):
                    best, pick = count[v - g] + 1, g
            count.append(best)
            first.append(pick)

    def parts(self, value: int) -> list:
        self._extend(value)
        first = self.first
        parts = []
        while value:
            g = first[value]
            parts.append(g)
            value -= g
        return parts


_UNSET = bytes.maketrans(b"01", b"\1\0")  # bit string: 1 at each unset bit


def _unmade_test(k: int, gens: tuple):
    """Test for the digits of base k that no sum of gens (largest first) makes.

    Up to base 256 the sums are the bits of one int. Above, no sum makes
    a digit d < least[d % g], the least sum in its class modulo the
    smallest generator g (Nijenhuis 1979): work bounded by g.
    """
    g = gens[-1]
    if k <= _SET_BASES:
        made = 1
        for h in gens:
            while h <= k:
                made |= made << h
                h <<= 1
        return format(made & ((2 << k) - 1) | 2 << k, "b")[:0:-1].encode().translate(_UNSET).__getitem__
    import heapq

    least = {}  # class modulo g: least sum of generators in it, up to k
    heap = [0]
    while heap and heap[0] <= k:
        s = heapq.heappop(heap)
        if s % g not in least:
            least[s % g] = s
            for h in gens:
                heapq.heappush(heap, s + h)
    return lambda d: d < least.get(d % g, d + 1)


def _cell_products(xd: int, yd: int, generators: tuple, splits: _Splits | None, unmade) -> tuple:
    """(left, right, product) triples a single cell contributes."""
    if not generators or xd in generators or yd in generators:
        return ((xd, yd, xd * yd),)
    if unmade is None or not unmade(yd):
        return tuple((xd, g, xd * g) for g in splits.parts(yd))
    return tuple((g, yd, g * yd) for g in splits.parts(xd))


def lattice_multiply(x: LexNumeral, y: LexNumeral, generators=None, trace: bool = False):
    """Product of two zeroless numerals via the lattice of digit products.

    Every cell (i, j) sends the low part of its product to column i + j
    and the overflow to column i + j + 1; the columns are summed right to
    left with ordinary carries and the resulting with-zero numeral is
    rewritten as a zeroless string. ``generators`` restricts which digit
    products the cells may use (None allows them all; an explicit empty
    set is an error): a cell with neither digit in the set splits its
    right digit, or else its left one, into the fewest generators that
    sum to it, largest first. With ``trace=True`` the return value is a
    (result, LatticeTrace) pair instead of the bare result.

    Every digit is tested against the generators first: the first failing
    cell (row-major) is reported before any cell is written. Without a
    trace the product is then taken by rank, the lattice's own result.
    """
    _check_same_base(x, y)
    k = x.base
    if k < 2:
        raise ValueError("lattice multiplication needs a base >= 2")
    if generators is None:
        gens = ()
    else:
        gens = tuple(sorted(set(map(operator.index, generators)), reverse=True))
        if not gens:
            raise ValueError("generator set must not be empty")
    for g in gens:
        if not 1 <= g <= k:
            raise ValueError(f"generator {_echo_int(g)} out of range [1, {_echo_int(k)}]")
    if x.is_zero or y.is_zero:
        result = LexNumeral.zero(k)
        if trace:
            return result, LatticeTrace((), (), ZeroNumeral.zero(k))
        return result
    unmade = None  # every digit is made: no generators, or 1 among them
    if gens and gens[-1] != 1:
        # a cell fails when both its digits do: the first unmade digits of x and y
        unmade = _unmade_test(k, gens)
        yd = next(filter(unmade, y.digits), None)
        if yd is not None:
            xd = next(filter(unmade, x.digits), None)
            if xd is not None:
                raise ValueError(f"cell {xd} x {yd}: neither digit decomposes into generators {sorted(gens)}")
    if not trace:
        return multiply(x, y)
    m, n = len(x.digits), len(y.digits)
    splits = _Splits(gens) if gens else None
    columns = [[] for _ in range(m + n)]
    steps = []
    for i, xd in enumerate(x.digits):
        for j, yd in enumerate(y.digits):
            c = (m - 1 - i) + (n - 1 - j)
            for a, b, p in _cell_products(xd, yd, gens, splits, unmade):
                columns[c].append(p % k)
                columns[c + 1].append(p // k)
                steps.append(
                    f"cell ({i + 1},{j + 1}): {a}*{b} = {p}, "
                    f"digit {p % k} in column {c + 1}, carry {p // k} to column {c + 2}"
                )
    digits = []
    carry = 0
    for c, col in enumerate(columns):
        total = sum(col) + carry
        previous = carry
        carry, d = divmod(total, k)
        digits.append(d)
        shown = "+".join(str(e) for e in col) if col else "0"
        steps.append(
            f"column {c + 1}: {shown} + carry {previous} = {total}"
            f" -> digit {d}, carry {carry}"
        )
    while carry:
        carry, d = divmod(carry, k)
        digits.append(d)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    zero_msf = digits[::-1]
    result = LexNumeral(k, _backend.zero_to_lex_digits(zero_msf, k))
    full_trace = LatticeTrace(
        tuple(tuple(col) for col in reversed(columns)),
        tuple(steps),
        ZeroNumeral(k, zero_msf),
    )
    return result, full_trace
