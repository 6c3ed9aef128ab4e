"""Radix conversion between ints and digit lists or ASCII digit text.

``number`` and ``digits`` convert between an int and its base-k digits,
with-zero ones of a value (low 0) or zeroless ones of a rank (low 1), by
one set of routes: the zeroless numeral of rank n and length h is the h
with-zero digits of n - minlex(k, h), each raised by one. Up to
``PEEL_BITS`` bits, ``digits`` writes base 10 with one ``str()`` and
peels other bases one digit per step. ``text`` writes such text by C
conversions, in base 10 by ``str()`` up to ``decimal_limit()`` digits
and in base 4 by ``hex()`` with each hex digit widened to two base-4
digits, and ``readable`` says where ``int(text, k)`` reads it back.
Base 4 is linear; base 10 is quadratic before Python 3.12, but beats
the loops below to about 10**4 digits.

``decimal_product`` multiplies two base-10 numerals with no int at all:
each rank is its offset text, read by the C ``decimal`` module (libmpdec),
plus a repunit, the product is exact, and its offset from the repunit
below it is written back as text. libmpdec reads and writes decimal text
in linear time and multiplies long coefficients by Karatsuba and
number-theoretic transforms, so no step is quadratic on any interpreter.

Elsewhere, following Brent & Zimmermann, *Modern Computer Arithmetic*,
§1.7, blocks of ``CUTOFF`` digits go through the plain digit loop, and
blocks are joined (``value``, in every base) or cut (``split``) with
the powers k**(CUTOFF * 2**i), each the square of the one before, built
per call. ``value`` needs only multiplications, so it runs in
O(M(n) log n) with CPython's Karatsuba M(n); ``split`` divides, and
before Python 3.12 CPython's long division of big ints is schoolbook,
so there it stays quadratic in machine words, with a far smaller
constant than one bignum divmod per digit.
"""

import functools
import math
import sys

#: Digit count at or below which the plain loops run; above it, the
#: loops work on blocks of this many digits.
CUTOFF = 64
#: Bits up to which ``digits`` writes base 10 with one str() and peels
#: other bases one digit per step; the split overtakes the peel from
#: 400-600 bits on CPython 3.11.
PEEL_BITS = 256
#: Digits up to which ``number`` runs the Horner loop; it crosses the
#: int() route at 14-16 digits in base 10 on CPython 3.10-3.13.
HORNER_DIGITS = 15
#: Digits of both factors together from which a base-10 product takes
#: ``decimal_product``; it crosses the int route at 350-420 digits on
#: CPython 3.11-3.13.
PRODUCT10_DIGITS = 450

# CPython's default int/str limit (none before 3.10.7)
_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)
_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
# the lowest int/str limit CPython allows, other than none
_LEAST_LIMIT = getattr(sys.int_info, "str_digits_check_threshold", 640)
# ASCII digits to the digit values low..low+9, and back, for low 0 and 1
_FROM_ASCII = tuple(bytes.maketrans(b"0123456789", bytes(range(low, low + 10))) for low in (0, 1))
_TO_ASCII = tuple(bytes.maketrans(bytes(range(low, low + 10)), b"0123456789") for low in (0, 1))
# each byte below 255 to the next: with-zero digits raised to zeroless ones
_RAISE = bytes(range(1, 256)) + b"\0"
# each hex digit to the byte whose two hex digits are its two base-4 digits
_QUADS = bytes.maketrans(b"0123456789abcdef", bytes((v >> 2) << 4 | v & 3 for v in range(16)))
# repunits (10**h - 1) // 9 = minlex(10, h), for every h a rank of at most
# PEEL_BITS bits can have; the last is read as _REPUNITS[h + 1] in
# ``digits``, where h is the least length of a PEEL_BITS-bit rank
_REPUNITS = tuple((10**h - 1) // 9 for h in range(len(str(1 << PEEL_BITS)) + 1))
# the length of the least base-10 rank of each bit length: a rank of that
# bit length has this length or one more, as repunits grow tenfold
_LEX10_LENGTHS = (0, *(len(str(9 * (1 << b) + 1)) - 1 for b in range(PEEL_BITS)))


def decimal_limit():
    """Most digits that base 10 converts through ``int()`` and ``str()``.

    CPython's default int/str limit, 4300, or the process's limit if
    lower, so that no conversion raises.
    """
    limit = _limit()
    return limit if 0 < limit < _STR_DIGITS else _STR_DIGITS


def text(x, k, h):
    """The h with-zero digits of 0 <= x < k**h as ASCII bytes, most
    significant first, or None where no C conversion writes them."""
    if k == 10 and 0 < h and (h <= _LEAST_LIMIT or h <= decimal_limit()):
        return str(x).zfill(h).encode()
    if k == 4:
        # hex digits, each widened to two base-4 digits, less the pad
        quads = x.to_bytes((h + 3) // 4, "big").hex().encode().translate(_QUADS).hex()
        return quads[len(quads) - h :].encode()
    return None


def readable(k, h):
    """Whether ``int(text, k)`` reads h >= 1 digits as ``text`` writes them."""
    return k == 4 or k == 10 and (h <= _LEAST_LIMIT or h <= decimal_limit())


def number(digits, k, low):
    """Value (low 0) or rank (low 1) of digits in base k >= 2, most significant first."""
    h = len(digits)
    if h <= HORNER_DIGITS:
        acc = 0
        for d in digits:
            acc = acc * k + d
        return acc
    if readable(k, h):
        n = int(bytes(digits).translate(_TO_ASCII[low]), k)
        return n + (k**h - 1) // (k - 1) if low else n
    return value(digits, k)


def digits(n, k, low):
    """Digits of the value n >= 1 (low 0) or rank n >= 0 (low 1) in base
    k >= 2, most significant first, as a list or bytes; base-10 and long
    ones are bytes below base 256.

    Base 10 writes a value or rank of at most PEEL_BITS bits with one
    str(): a rank takes its length from its bit length and one comparison
    with a repunit, and minlex from a table.
    """
    bits = n.bit_length()
    if k == 10 and bits <= PEEL_BITS:
        # at most 78 digits, which str() writes under any int/str limit
        if not low:
            return str(n).encode().translate(_FROM_ASCII[0])
        h = _LEX10_LENGTHS[bits]
        h += n >= _REPUNITS[h + 1]
        return str(n - _REPUNITS[h]).zfill(h).encode().translate(_FROM_ASCII[1]) if n else b""
    if bits <= PEEL_BITS:
        # n - low = q*k + r: the last digit is r + low, and q the rest;
        # % and // outrun divmod's tuple up to 256 bits on CPython 3.10-3.13
        out = []
        while n:
            n -= low
            out.append(n % k + low)
            n //= k
        out.reverse()
        return out
    if not low:
        h = ilog(k, n) + 1
    else:
        h = lex_length(k, n)
        n -= (k**h - 1) // (k - 1)
    out = text(n, k, h)
    if out is not None:
        return out.translate(_FROM_ASCII[low])
    out = split(n, k, h)
    if k < 256:  # as bytes, which a numeral checks in one pass
        out = bytes(out)
        return out.translate(_RAISE) if low else out
    return [d + 1 for d in out] if low else out


@functools.cache
def _exact_decimal():
    """(Decimal, exact context) of the C decimal module, imported on the
    first call; None where the module is missing."""
    try:
        import _decimal
    except ImportError:  # a build without it: the int route serves
        return None
    ctx = _decimal.Context(prec=_decimal.MAX_PREC, Emax=_decimal.MAX_EMAX, Emin=_decimal.MIN_EMIN)
    ctx.traps[_decimal.Inexact] = True
    return _decimal.Decimal, ctx


def decimal_product(a, b):
    """The zeroless base-10 digits, as bytes, of the product of the ranks
    of the nonempty zeroless base-10 digits a and b; None where the C
    decimal module is missing.

    The rank of h digits is their offset text plus minlex(10, h), the
    repunit (10**h - 1) // 9. A product p of D decimal digits is a numeral
    of D digits, or of D - 1 when p is below minlex(10, D), and its digits
    are the offset from that repunit.
    """
    exact = _exact_decimal()
    if exact is None:
        return None
    dec, ctx = exact

    def repunit(h):
        return ctx.divide_int(ctx.subtract(ctx.scaleb(1, h), 1), 9)

    x, y = (ctx.add(dec(bytes(f).translate(_TO_ASCII[1]).decode()), repunit(len(f))) for f in (a, b))
    p = ctx.multiply(x, y)
    h = p.adjusted() + 1
    floor = repunit(h)
    if p < floor:
        h -= 1
        floor = ctx.divide_int(floor, 10)
    return str(ctx.subtract(p, floor)).zfill(h).encode().translate(_FROM_ASCII[1])


def value(digits, k):
    """Value of a digit list (most significant first) under acc = acc*k + d.

    Digits may be any non-negative ints: zeroless digits 1..k, with-zero
    digits 0..k-1.
    """
    n = len(digits)
    if n <= CUTOFF:
        acc = 0
        for d in digits:
            acc = acc * k + d
        return acc
    # blocks of CUTOFF digits, least significant first; only the last
    # (most significant) block may be shorter
    blocks = []
    for end in range(n, 0, -CUTOFF):
        acc = 0
        for d in digits[max(end - CUTOFF, 0) : end]:
            acc = acc * k + d
        blocks.append(acc)
    power = k**CUTOFF
    while len(blocks) > 1:
        joined = [lo + hi * power for lo, hi in zip(blocks[0::2], blocks[1::2])]
        if len(blocks) % 2:
            joined.append(blocks[-1])
        blocks = joined
        power *= power
    return blocks[0]


def split(x, k, h):
    """The h with-zero digits of 0 <= x < k**h, most significant first."""
    written = text(x, k, h)
    if written is not None:
        return list(written.translate(_FROM_ASCII[0]))
    if h <= CUTOFF:
        out = [0] * h
        for i in range(h - 1, -1, -1):
            x, out[i] = divmod(x, k)
        return out
    nblocks = -(-h // CUTOFF)
    powers = [k**CUTOFF]  # powers[i] = k**(CUTOFF * 2**i)
    while 2 ** len(powers) < nblocks:
        powers.append(powers[-1] * powers[-1])
    out = []

    def emit(y, m):
        # the m blocks of y, each CUTOFF digits wide
        if m == 1:
            out.extend(split(y, k, CUTOFF))
            return
        i = (m - 1).bit_length() - 1  # largest 2**i < m
        hi, lo = divmod(y, powers[i])
        emit(hi, m - (1 << i))
        emit(lo, 1 << i)

    emit(x, nblocks)
    return out[nblocks * CUTOFF - h :]  # the leading pad is all zeros


def ilog(k, m):
    """The h with k**h <= m < k**(h+1), for k >= 2 and m >= 1."""
    # log2(m) lies in [b-1, b) for b = m.bit_length(), so the estimate is
    # within one of h; exact integer comparisons settle it
    h = int((m.bit_length() - 1) / math.log2(k))
    p = k**h
    while p > m:
        p //= k
        h -= 1
    while p * k <= m:
        p *= k
        h += 1
    return h


def lex_length(k, n):
    """Length of the zeroless numeral of rank n >= 1 in base k >= 2.

    It is the h with minlex(k, h) <= n <= maxlex(k, h), which is the h
    with k**h <= n*(k-1) + 1 < k**(h+1).
    """
    return ilog(k, n * (k - 1) + 1)
