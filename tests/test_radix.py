"""Every radix route against plain digit loops.

``TestRouteEdges`` builds its cases from radix's own thresholds
(``HORNER_DIGITS``, ``CUTOFF`` and its doubling, ``PEEL10_BITS``,
``PEEL_BITS``) and CPython's int/str limits, and runs each through
``check_routes``: ranks either side of every edge, in 11 bases, under
the lowest limit, the default one and none. The other classes test the
block loops and length searches on their own. References are the
left-to-right Horner loop, ``plain_digits`` and ``sigma_oracle`` (last
digit peeled per step), none of which goes through ``radix``.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroless import (
    LexNumeral,
    ZeroNumeral,
    delta,
    maxlex,
    minlex,
    multiply,
    omega,
    omega_zero,
    radix,
    rank_sequence,
    sigma,
    theta_lex_to_zero,
    theta_zero_to_lex,
    unrank_sequence,
)
from zeroless.core import sigma_oracle
from zeroless.radix import PEEL10_BITS, PEEL_BITS

C = radix.CUTOFF
LENGTHS = (C - 1, C, C + 1, 2 * C, 2 * C + 1, 1000, 5000)
BASES = (1, 2, 3, 4, 10, 60)


def horner(digits, k):
    acc = 0
    for d in digits:
        acc = acc * k + d
    return acc


@pytest.fixture
def int_limit():
    """Sets CPython's int/str digit limit; the test run's is put back after."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def plain_digits(x, k):
    """With-zero digits of x >= 1, most significant first."""
    out = []
    while x:
        x, d = divmod(x, k)
        out.append(d)
    return out[::-1]


# CPython's lowest and default int/str limits, and none
LIMITS = (sys.int_info.str_digits_check_threshold, sys.int_info.default_max_str_digits, 0)


def check_routes(k, n, int_limit, square=False):
    """Rank n in base k >= 2 through every radix route under each limit, against the oracles.

    With square, also the product of its numeral with itself.
    """
    lex, zero = sigma_oracle(k, n), plain_digits(n, k) or [0]
    h = len(lex)
    for limit in LIMITS:
        int_limit(limit)
        assert radix.decimal_limit() == (limit or LIMITS[1])
        a, z = sigma(k, n), delta(k, n)
        assert a == lex, (n, limit)
        assert omega(a) == n
        assert list(z.digits) == zero
        assert omega_zero(z) == n
        assert radix.split(n - minlex(k, h), k, h) == [d - 1 for d in lex.digits]
        assert theta_lex_to_zero(a) == z
        assert theta_zero_to_lex(z) == a
        if k == 4:
            seq = "".join("ACGT"[d - 1] for d in lex.digits)
            assert unrank_sequence(n) == seq
            assert rank_sequence(seq) == n
        if square:
            assert omega(multiply(a, a)) == n * n


class TestValueSplit:
    @pytest.mark.parametrize("k", (2, 3, 10, 60, 1000))
    @pytest.mark.parametrize("h", (0, 1) + LENGTHS)
    def test_value_matches_horner(self, k, h):
        digits = [(7 * i + 3) % (k + 1) for i in range(h)]  # 0..k, both kinds of digit
        assert radix.value(digits, k) == horner(digits, k)
        assert radix.value(tuple(digits), k) == horner(digits, k)

    @given(st.sampled_from((2, 3, 4, 10, 60)), st.sampled_from(LENGTHS), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_split_inverts_value(self, k, h, rnd):
        digits = [rnd.randrange(k) for _ in range(h)]
        x = horner(digits, k)
        assert radix.split(x, k, h) == digits
        assert radix.value(digits, k) == x

    @pytest.mark.parametrize("k", (2, 4, 10, 60))
    @pytest.mark.parametrize("h", (1,) + LENGTHS)
    def test_split_extremes(self, k, h):
        assert radix.split(0, k, h) == [0] * h
        assert radix.split(k**h - 1, k, h) == [k - 1] * h
        assert radix.split(k ** (h - 1), k, h) == [1] + [0] * (h - 1)

    def test_split_of_zero_length(self):
        assert radix.split(0, 10, 0) == []
        assert radix.split(0, 4, 0) == []


class TestIlog:
    @pytest.mark.parametrize("k", (2, 3, 4, 7, 10, 60, 2**64 + 1))
    @pytest.mark.parametrize("h", (0, 1, 2, 52, 53, 64, 1000, 5000))
    def test_boundaries(self, k, h):
        p = k**h
        assert radix.ilog(k, p) == h
        assert radix.ilog(k, p * k - 1) == h
        if p > 1:
            assert radix.ilog(k, p - 1) == h - 1

    @pytest.mark.parametrize("k", (2, 3, 4, 10, 60))
    @pytest.mark.parametrize("h", (1, 2) + LENGTHS)
    def test_lex_length_at_bounds(self, k, h):
        lo = 1 + sum(k**i for i in range(1, h))  # minlex as a plain sum
        hi = lo + k**h - 1
        assert radix.lex_length(k, lo) == radix.lex_length(k, hi) == h
        assert radix.lex_length(k, lo - 1) == h - 1
        assert radix.lex_length(k, hi + 1) == h + 1


class TestLongNumerals:
    """omega and sigma on numerals longer than the plain-loop cutoff."""

    @pytest.mark.parametrize("k", BASES)
    @pytest.mark.parametrize("h", LENGTHS)
    def test_boundary_ranks(self, k, h):
        for n in (minlex(k, h), maxlex(k, h), maxlex(k, h) + 1):
            a = sigma(k, n)
            assert a == sigma_oracle(k, n)
            assert omega(a) == n == horner(a.digits, k)
        assert sigma(k, minlex(k, h)).digits == (1,) * h
        assert sigma(k, maxlex(k, h)).digits == (k,) * h

    @given(st.sampled_from(BASES), st.sampled_from(LENGTHS), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_numerals(self, k, h, rnd):
        digits = tuple(rnd.randint(1, k) for _ in range(h))
        n = horner(digits, k)
        assert omega(LexNumeral(k, digits)) == n
        assert sigma(k, n).digits == digits
        assert sigma_oracle(k, n).digits == digits

    @pytest.mark.parametrize("k", (2, 10, 60))
    @pytest.mark.parametrize("h", LENGTHS)
    def test_delta(self, k, h):
        for n in (k ** (h - 1), k**h - 1, minlex(k, h) * 7 + 1):
            assert list(delta(k, n).digits) == plain_digits(n, k)


class TestDecimalRoute:
    """Base 10 through int()/str(), up to radix.decimal_limit() digits.

    Numerals of up to the limit take the decimal route, longer ones the
    block loops. TestRouteEdges checks each edge; the lengths here are
    hand-picked ones kept beside it.
    """

    LENGTHS = (1, 2, 15, 16, 63, 64, 65, 639, 640, 641, 4299, 4300, 4301, 6000)

    @pytest.mark.parametrize("h", LENGTHS)
    def test_agrees_with_oracles_under_a_limit(self, h, int_limit):
        rnd = random.Random(h)
        digits = tuple(rnd.randint(1, 10) for _ in range(h))
        n = horner(digits, 10)
        assert sigma_oracle(10, n).digits == digits
        assert radix.value(digits, 10) == n
        check_routes(10, n, int_limit)

    @given(st.integers(1, 5000), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_lengths_match_the_radix_loops(self, h, rnd):
        digits = tuple(rnd.randint(1, 10) for _ in range(h))
        n = radix.value(digits, 10)  # the Horner and block loops, no int()
        assert omega(LexNumeral(10, digits)) == n
        assert sigma(10, n).digits == digits
        offset = n - minlex(10, h)
        assert radix.split(offset, 10, h) == [d - 1 for d in digits]
        assert radix.value(radix.split(offset, 10, h), 10) == offset
        assert delta(10, n) == ZeroNumeral(10, map(int, str(n)))


class TestBase4Route:
    """Base 4 through hex() widened to base-4 digits and int(text, 4).

    Four lengths in a row cover each pad the widening strips, h mod 4
    being 0 to 3. TestRouteEdges checks each edge; the lengths here are
    hand-picked ones kept beside it.
    """

    LENGTHS = (1, 2, 3, 4, 14, 15, 16, 17, 64, 65, 66, 67, 127, 128, 129, 130, 1000, 1001, 1002, 1003)

    @pytest.mark.parametrize("h", LENGTHS)
    def test_agrees_with_oracles(self, h, int_limit):
        rnd = random.Random(h)
        digits = tuple(rnd.randint(1, 4) for _ in range(h))
        n = horner(digits, 4)
        assert sigma_oracle(4, n).digits == digits
        assert radix.text(n - minlex(4, h), 4, h) == bytes(ord("0") + d - 1 for d in digits)
        check_routes(4, n, int_limit)

    @pytest.mark.parametrize("h", LENGTHS)
    def test_length_edges(self, h, int_limit):
        for edge in (minlex(4, h), maxlex(4, h)):
            for n in (edge - 1, edge, edge + 1):
                check_routes(4, n, int_limit)


def _route_cases():
    """Per base, the ranks at and either side of each radix cut-over.

    Lengths sit at each edge length ±1, base 4 also taking each h mod 4
    the hex widening strips, base 10 every length its tables of lengths
    and repunits serve, and bases with a C text route the two limit
    lengths ±1, where products are checked too; bit sizes sit at each
    peel edge.
    """
    for k in (2, 3, 4, 8, 10, 16, 36, 60, 255, 256, 257):
        edges = [radix.HORNER_DIGITS, radix.CUTOFF, 2 * radix.CUTOFF]
        if k == 10:  # with the pads, lengths 1 to one past the longest the tables serve
            edges += range(2, len(str(1 << PEEL_BITS)) + 1)
        limits = LIMITS[:2] if radix.readable(k, 1) else ()
        pads = range(-1, 4) if k == 4 else (-1, 0, 1)
        for h in sorted({e + d for e in (*edges, *limits) for d in pads}):
            lo, hi = minlex(k, h), maxlex(k, h)
            ranks = (lo - 1, lo, lo + 1, random.Random(h).randint(lo, hi), hi - 1, hi, hi + 1)
            yield pytest.param(k, ranks, any(h - e in pads for e in limits), id=f"{k}-h{h}")
        ranks = tuple((1 << b) + d for b in (PEEL10_BITS, PEEL_BITS) for d in range(-2, 2))
        yield pytest.param(k, ranks, False, id=f"{k}-peel")


class TestRouteEdges:
    """Every route of radix.number and radix.digits at its edges, under each int/str limit.

    The cases come from radix's own thresholds and sys.int_info, so a
    route or threshold added there is tested here by adding its base or
    constant to the inputs.
    """

    @pytest.mark.parametrize("k, ranks, square", _route_cases())
    def test_agrees_with_oracles(self, k, ranks, square, int_limit):
        for n in ranks:
            check_routes(k, n, int_limit, square)
