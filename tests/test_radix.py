"""Divide-and-conquer radix conversion against plain digit loops.

The lengths straddle the block size ``radix.CUTOFF`` and its doubling, and
go well past it, so that every join and cut of the divide-and-conquer paths
runs. References are the left-to-right Horner loop and ``sigma_oracle``
(last digit peeled per step), neither of which goes through ``radix``.
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
    omega,
    omega_zero,
    radix,
    sigma,
    theta_lex_to_zero,
    theta_zero_to_lex,
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


def plain_digits(x, k):
    """With-zero digits of x >= 1, most significant first."""
    out = []
    while x:
        x, d = divmod(x, k)
        out.append(d)
    return out[::-1]


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

    @pytest.mark.parametrize("k", (2, 3, 4, 10, 60))
    def test_either_side_of_peeling(self, k):
        edge = 1 << PEEL_BITS  # sigma and delta peel digits below this size, split above
        for n in (edge - 2, edge - 1, edge, edge + 1, edge * k):
            assert sigma(k, n) == sigma_oracle(k, n)
            assert list(delta(k, n).digits) == plain_digits(n, k)
            assert omega_zero(delta(k, n)) == n

    def test_either_side_of_decimal_peeling(self):
        edge = 1 << PEEL10_BITS  # base 10 peels below this size, writes str() above
        for n in (edge - 2, edge - 1, edge, edge + 1, edge * 10):
            assert sigma(10, n) == sigma_oracle(10, n)
            assert list(delta(10, n).digits) == plain_digits(n, 10)
            assert omega_zero(delta(10, n)) == n

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
    block loops; the lengths sit on both sides of the Horner cut of
    omega and omega_zero (radix.HORNER_DIGITS), CUTOFF, the lowest limit
    CPython allows (640) and its default (4300).
    """

    LENGTHS = (1, 2, 15, 16, 63, 64, 65, 639, 640, 641, 4299, 4300, 4301, 6000)

    @pytest.fixture
    def int_limit(self):
        """Sets CPython's int/str digit limit; the test run's is put back after."""
        saved = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("h", LENGTHS)
    def test_agrees_with_oracles_under_a_limit(self, h, int_limit):
        rnd = random.Random(h)
        digits = tuple(rnd.randint(1, 10) for _ in range(h))
        n = horner(digits, 10)
        offset = [d - 1 for d in digits]
        zero = plain_digits(n, 10)
        assert sigma_oracle(10, n).digits == digits
        for limit in (640, 4300, 0):
            int_limit(limit)
            assert radix.decimal_limit() == (limit or 4300)
            a = sigma(10, n)
            assert a.digits == digits
            assert omega(a) == n == radix.value(digits, 10)
            assert radix.split(n - minlex(10, h), 10, h) == offset
            z = delta(10, n)
            assert list(z.digits) == zero
            assert omega_zero(z) == n
            assert theta_lex_to_zero(a) == z
            assert theta_zero_to_lex(z) == a
            for m in (minlex(10, h), maxlex(10, h)):
                assert omega(sigma(10, m)) == m

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

    The lengths sit on both sides of the Horner cut of omega and
    omega_zero (radix.HORNER_DIGITS), CUTOFF and the peel edge of sigma
    and delta: a rank of 256 bits has 128 or 129 digits. Four lengths in
    a row cover each pad the widening strips, h mod 4 being 0 to 3.
    """

    LENGTHS = (1, 2, 3, 4, 14, 15, 16, 17, 64, 65, 66, 67, 127, 128, 129, 130, 1000, 1001, 1002, 1003)

    @pytest.mark.parametrize("h", LENGTHS)
    def test_agrees_with_oracles(self, h):
        rnd = random.Random(h)
        digits = tuple(rnd.randint(1, 4) for _ in range(h))
        n = horner(digits, 4)
        a = sigma(4, n)
        assert a.digits == digits == sigma_oracle(4, n).digits
        assert omega(a) == n
        offset = n - minlex(4, h)
        assert radix.text(offset, 4, h) == bytes(ord("0") + d - 1 for d in digits)
        assert radix.split(offset, 4, h) == [d - 1 for d in digits]
        assert list(delta(4, n).digits) == plain_digits(n, 4)
        assert omega_zero(delta(4, n)) == n

    @pytest.mark.parametrize("h", LENGTHS)
    def test_length_edges(self, h):
        for edge in (minlex(4, h), maxlex(4, h)):
            for n in (edge - 1, edge, edge + 1):
                a = sigma(4, n)
                assert a == sigma_oracle(4, n)
                assert omega(a) == n
                assert list(delta(4, n).digits) == (plain_digits(n, 4) or [0])
