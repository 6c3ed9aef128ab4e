"""The digit kernels in ``zeroless._backend`` against plain-int oracles.

Each kernel's result is compared with the digits of the value it should
have: the value of a zeroless digit string is taken with ``radix.value``,
zeroless result digits come from ``core.sigma_oracle`` (the last digit
peeled per step) and with-zero digits from plain division, so no kernel
is checked against another kernel. ``horner_value`` is ``radix.value``,
which ``test_radix`` checks against the plain Horner loop; here it meets
only the bases beyond one machine word.
"""

import pytest
from hypothesis import given, strategies as st

from zeroless import _backend as kernels
from zeroless.core import sigma_oracle
from zeroless.radix import value

# bases past one machine word, and the largest signed 32-bit one
BIG_BASES = (2**31, 2**40, 2**31 - 1)


def lex(n, k):
    """Zeroless digits of n >= 0 in base k."""
    return list(sigma_oracle(k, n).digits)


def zero(n, k):
    """Canonical with-zero digits of n >= 0 in base k >= 2."""
    digits = []
    while n:
        n, r = divmod(n, k)
        digits.append(r)
    return digits[::-1] or [0]


@st.composite
def lex_case(draw, min_base=2, max_base=60, max_len=15):
    k = draw(st.integers(min_base, max_base))
    a = tuple(draw(st.lists(st.integers(1, k), max_size=max_len)))
    b = tuple(draw(st.lists(st.integers(1, k), max_size=max_len)))
    d = draw(st.integers(1, k))
    return k, a, b, d


@st.composite
def zero_case(draw, max_value=10**24):
    k = draw(st.integers(2, 60))
    return k, tuple(zero(draw(st.integers(0, max_value)), k))


class TestAgainstOracles:
    @given(lex_case())
    def test_add(self, case):
        k, a, b, _ = case
        assert list(kernels.add_digits(a, b, k)) == lex(value(a, k) + value(b, k), k)

    @given(lex_case())
    def test_scale(self, case):
        k, a, _, d = case
        assert list(kernels.scale_digits(a, d, k)) == lex(value(a, k) * d, k)

    @given(lex_case())
    def test_successor(self, case):
        k, a, _, _ = case
        assert list(kernels.successor_digits(a, k)) == lex(value(a, k) + 1, k)

    @given(lex_case())
    def test_predecessor(self, case):
        k, a, _, _ = case
        if not a:
            with pytest.raises(ValueError, match="zero has no predecessor"):
                kernels.predecessor_digits(a, k)
        else:
            assert list(kernels.predecessor_digits(a, k)) == lex(value(a, k) - 1, k)

    @given(lex_case())
    def test_multiply_by_base(self, case):
        k, a, _, _ = case
        assert list(kernels.multiply_by_base_digits(a, k)) == lex(value(a, k) * k, k)

    @given(lex_case())
    def test_multiply(self, case):
        k, a, b, _ = case
        assert list(kernels.multiply_digits(a, b, k)) == lex(value(a, k) * value(b, k), k)

    @given(lex_case())
    def test_lex_to_zero(self, case):
        k, a, _, _ = case
        assert list(kernels.lex_to_zero_digits(a, k)) == zero(value(a, k), k)

    @given(zero_case())
    def test_zero_to_lex(self, case):
        k, z = case
        assert list(kernels.zero_to_lex_digits(z, k)) == lex(value(z, k), k)


class TestEdgeInputs:
    @pytest.mark.parametrize("k", BIG_BASES)
    def test_big_bases(self, k):
        a = (k, k - 1, 5)
        b = (k // 2, 1)
        va, vb = value(a, k), value(b, k)
        assert va == sum(d * k**i for i, d in enumerate(reversed(a)))
        assert kernels.horner_value(a, k) == va
        assert list(kernels.add_digits(a, b, k)) == lex(va + vb, k)
        assert list(kernels.scale_digits(a, k, k)) == lex(va * k, k)
        assert list(kernels.successor_digits(a, k)) == lex(va + 1, k)
        assert list(kernels.predecessor_digits(b, k)) == lex(vb - 1, k)
        assert list(kernels.multiply_by_base_digits(a, k)) == lex(va * k, k)
        assert list(kernels.multiply_digits(a, b, k)) == lex(va * vb, k)
        assert list(kernels.multiply_digits((k, k), (k, k), k)) == lex(value((k, k), k) ** 2, k)
        assert list(kernels.lex_to_zero_digits(a, k)) == zero(va, k)
        assert list(kernels.zero_to_lex_digits(tuple(zero(va, k)), k)) == list(a)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_unary(self, n):
        a = (1,) * n
        assert list(kernels.add_digits(a, (1, 1), 1)) == lex(n + 2, 1)
        assert list(kernels.scale_digits(a, 1, 1)) == lex(n, 1)
        assert list(kernels.successor_digits(a, 1)) == lex(n + 1, 1)
        assert list(kernels.multiply_by_base_digits(a, 1)) == lex(n, 1)
        assert list(kernels.multiply_digits(a, (1, 1, 1), 1)) == lex(3 * n, 1)
        if n:
            assert list(kernels.predecessor_digits(a, 1)) == lex(n - 1, 1)
        else:
            with pytest.raises(ValueError, match="zero has no predecessor"):
                kernels.predecessor_digits(a, 1)

    @pytest.mark.parametrize("k", [2, 7, 60, *BIG_BASES])
    def test_zero_converts_to_the_empty_string(self, k):
        assert list(kernels.zero_to_lex_digits((0,), k)) == []
        assert list(kernels.lex_to_zero_digits((), k)) == [0]


def test_backend_name():
    assert kernels.backend_name() == "pure"
