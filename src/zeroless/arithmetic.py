"""Arithmetic on zeroless numerals, including lattice multiplication.

Addition, single-digit scaling and the shift by the base work digit-wise
on the zeroless strings themselves. Full multiplication goes through
ranks: the product is sigma(k, omega(a) * omega(b)), one bignum
multiplication between two radix conversions. A long base-10 product
skips the binary ints: ``radix.decimal_product`` multiplies the ranks
as decimal text in the C decimal module. The digit-string schoolbook
stays in ``_backend.multiply_digits`` as the reference.
The lattice is kept for its trace: ``lattice_steps`` streams the cells'
products into with-zero columns and sums them with ordinary carries.
Cells may be restricted to a set of generator digits; a cell with
neither digit among them splits one into the fewest generators, found
by a bounded search. Every digit is checked against the generators
first, and the product itself is taken by rank.
"""

import functools
import math
import operator

from zeroless import _backend, radix
from zeroless.core import (
    _SET_BASES, LexNumeral, ZeroNumeral, _check_same_base, _echo_int, _Frozen, _set, omega, sigma,
)


def add(a: LexNumeral, b: LexNumeral) -> LexNumeral:
    """Sum of two zeroless numerals, computed digit-wise."""
    _check_same_base(a, b)
    return LexNumeral(a.base, _backend.add_digits(a.digits, b.digits, a.base))


def scale(a: LexNumeral, d: int) -> LexNumeral:
    """Product of a zeroless numeral with a single digit d in [1, base]."""
    d = operator.index(d)
    if not 1 <= d <= a.base:
        raise ValueError(f"digit {_echo_int(d)} out of range [1, {_echo_int(a.base)}]")
    if a.is_zero:
        return a
    return LexNumeral(a.base, _backend.scale_digits(a.digits, d, a.base))


def multiply_by_base(a: LexNumeral) -> LexNumeral:
    """One-position shift: predecessor digits with the base digit appended."""
    return LexNumeral(a.base, _backend.multiply_by_base_digits(a.digits, a.base))


def multiply(a: LexNumeral, b: LexNumeral) -> LexNumeral:
    """Product of two zeroless numerals: the numeral of rank omega(a) * omega(b).

    In base 10, factors of radix.PRODUCT10_DIGITS digits or more together
    are multiplied as decimal text by ``radix.decimal_product``; every
    other product is sigma of the int product of the ranks.
    """
    _check_same_base(a, b)
    k, x, y = a.base, a.digits, b.digits
    if k == 10 and x and y and len(x) + len(y) >= radix.PRODUCT10_DIGITS:
        digits = radix.decimal_product(x, y)
        if digits is not None:
            return LexNumeral(10, digits)
    return sigma(k, omega(a) * omega(b))


class LatticeTrace(_Frozen):
    """Everything the lattice wrote down before the final rewrite.

    ``columns`` lists the collected entries per column, most significant
    column first; ``steps`` narrates the run (entries placed, carries
    appended, columns summed), with columns numbered 1 upward from the
    least significant; ``intermediate`` is the canonical with-zero
    numeral left after the column sums.
    """

    __slots__ = ("columns", "steps", "intermediate")

    def __init__(self, columns: tuple, steps: tuple, intermediate: ZeroNumeral):
        _set(self, "columns", columns)
        _set(self, "steps", steps)
        _set(self, "intermediate", intermediate)


_UNSET = bytes.maketrans(b"01", b"\1\0")  # bit string: 1 at each unset bit


def _unmade_test(k: int, gens: tuple):
    """Test for the digits of base k that no sum of gens (largest first) makes.

    Up to base 256 the sums are the bits of one int. Above, ``_split``
    answers each distinct digit once, with work bounded by its steps, not
    by the digit or the generators' size; a digit it cannot settle in
    _SPLIT_STEPS steps is refused as the trace refuses it.
    """
    if k <= _SET_BASES:
        made = 1
        for h in gens:
            while h <= k:
                made |= made << h
                h <<= 1
        return format(made & ((2 << k) - 1) | 2 << k, "b")[:0:-1].encode().translate(_UNSET).__getitem__
    return functools.cache(lambda d: _split(d, gens) is None)


_SPLIT_STEPS = 1 << 16  # branches one cell split may try before the trace is refused


def _largest_count(rest: int, a: int, b: int) -> tuple:
    """The largest c with a*c <= rest and rest - a*c a multiple of b (c < 0 if none), and the step to
    the next; rest is a multiple of gcd(a, b). With b = 0, no generator after a, c is rest // a."""
    if not b:
        return rest // a, 1
    h = math.gcd(a, b)
    m = b // h
    top = rest // a
    return top - (top - rest // h * pow(a // h, -1, m)) % m, m


def _split(d: int, gens: tuple):
    """The fewest gens (sorted descending) that sum to d, as (generator, count) runs; None if no sum does.

    Branch and bound over each generator's count, largest generator and
    largest count first, so the first fewest-parts sum found has the
    largest parts. A count is tried only when what it leaves is a multiple
    of the gcd of the generators after it, the last two generators take
    their counts in closed form, and a branch that needs as many parts as
    the best sum yet is cut. So work grows with the generators and the
    branches, not with d; past _SPLIT_STEPS steps the split is refused.
    """
    r = len(gens)
    tail = [0] * (r + 1)  # tail[i]: gcd of gens[i:]
    for i in range(r - 1, -1, -1):
        tail[i] = math.gcd(gens[i], tail[i + 1])
    if d % tail[0]:
        return None
    best, runs = d + 1, None
    frames = [[d, 0, *_largest_count(d, gens[0], tail[1])]]  # per generator: rest, parts before, count, step
    for _ in range(_SPLIT_STEPS):
        i = len(frames) - 1
        rest, used, c, _ = frames[i]
        left = rest - gens[i] * c
        if c >= 0 and used + c + (-(-left // gens[i + 1]) if left else 0) < best:
            if left:
                frames.append([left, used + c, *_largest_count(left, gens[i + 1], tail[i + 2])])
                continue
            best, runs = used + c, [(g, f[2]) for g, f in zip(gens, frames) if f[2]]
        else:  # a smaller count needs no fewer parts: this generator is done
            frames.pop()
            if not frames:
                return runs
        frame = frames[-1]  # its next count; the last two generators take only their largest
        frame[2] = frame[2] - frame[3] if len(frames) < r - 1 else -1
    raise ValueError(f"digit {_echo_int(d)}: no split into generators {sorted(gens)} in {_SPLIT_STEPS} steps")


def _lattice_rule(x: LexNumeral, y: LexNumeral, generators) -> tuple:
    """(gens sorted descending, test for unmade digits or None) once every cell of x by y is checked."""
    _check_same_base(x, y)
    k = x.base
    if k < 2:
        raise ValueError("lattice multiplication needs a base >= 2")
    gens = () if generators is None else tuple(sorted(set(map(operator.index, generators)), reverse=True))
    if generators is not None and not gens:
        raise ValueError("generator set must not be empty")
    for g in gens:
        if not 1 <= g <= k:
            raise ValueError(f"generator {_echo_int(g)} out of range [1, {_echo_int(k)}]")
    if not gens or gens[-1] == 1 or x.is_zero or y.is_zero:
        return gens, None  # every digit is made, or there is no cell
    # a cell fails when both its digits do: the first unmade digits of x and y
    unmade = _unmade_test(k, gens)
    yd = next(filter(unmade, y.digits), None)
    xd = next(filter(unmade, x.digits), None) if yd else None
    if xd:
        raise ValueError(f"cell {xd} x {yd}: neither digit decomposes into generators {sorted(gens)}")
    return gens, unmade


def lattice_steps(x: LexNumeral, y: LexNumeral, generators=None, columns: list | None = None):
    """The lattice's trace lines: each cell's products row-major, then each column's sum.

    A cell with neither digit among the generators splits its right digit,
    or else its left one, into the fewest generators that sum to it,
    largest first, one line per part. Every digit is checked, and every
    split searched, before the first line. Columns are numbered 1 up from
    the least significant; their entries are kept in ``columns``, one
    bytearray per column below base 256 (an entry is at most k), else one
    list of ints.
    """
    gens, unmade = _lattice_rule(x, y, generators)
    if x.is_zero or y.is_zero:
        return
    k, m, n = x.base, len(x.digits), len(y.digits)
    xs = set(x.digits).difference(gens) if gens else ()  # a cell splits only when its x digit is here
    ys = set(y.digits).difference(gens)
    made = {d for d in ys if unmade is None or not unmade(d)}  # split in their cells; an unmade one splits x
    splits = {d: _split(d, gens) for d in sorted(made if made == ys else made | xs)} if xs else {}
    columns = [] if columns is None else columns
    columns += (bytearray() if k < 256 else [] for _ in range(m + n))
    for i, xd in enumerate(x.digits, 1):
        for j, yd in enumerate(y.digits, 1):
            if xd not in xs or yd in gens:
                parts = ((xd, yd),)
            elif yd in splits:
                parts = ((xd, g) for g, count in splits[yd] for _ in range(count))
            else:
                parts = ((g, yd) for g, count in splits[xd] for _ in range(count))
            c = m - i + n - j
            for a, b in parts:
                p = a * b
                columns[c].append(p % k)
                columns[c + 1].append(p // k)
                yield (f"cell ({i},{j}): {a}*{b} = {p}, digit {p % k} in column {c + 1}, "
                       f"carry {p // k} to column {c + 2}")
    carry = 0
    for c, col in enumerate(columns, 1):
        total = sum(col) + carry
        yield (f"column {c}: {'+'.join(map(str, col))} + carry {carry} = {total}"
               f" -> digit {total % k}, carry {total // k}")
        carry = total // k


def lattice_multiply(x: LexNumeral, y: LexNumeral, generators=None, trace: bool = False):
    """Product of two zeroless numerals via the lattice of digit products.

    Every cell (i, j) sends the low part of its product to column i + j
    and the overflow to column i + j + 1; the columns summed with carries
    give the with-zero numeral of the product. ``generators`` restricts
    the cells' products as in ``lattice_steps`` (None allows them all; an
    empty set is an error), and the first cell, row-major, neither of
    whose digits a sum of generators makes is refused. The product is
    taken by rank; ``trace=True`` returns it with a LatticeTrace of
    ``lattice_steps``.
    """
    if not trace:
        _lattice_rule(x, y, generators)
        return multiply(x, y)
    columns = []
    steps = tuple(lattice_steps(x, y, generators, columns))
    product = multiply(x, y)
    intermediate = ZeroNumeral(x.base, _backend.lex_to_zero_digits(product.digits, x.base))
    return product, LatticeTrace(tuple(map(tuple, reversed(columns))), steps, intermediate)
