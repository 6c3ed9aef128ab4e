import pytest
from hypothesis import given, strategies as st

from zeroless import (
    LexNumeral,
    ZeroNumeral,
    delta,
    omega,
    omega_zero,
    parse_lex,
    parse_zero,
    radix,
    sigma,
    theta_lex_to_zero,
    theta_zero_to_lex,
)
from zeroless.core import default_alphabet


def dx(text):
    """Parse a base-10 zeroless numeral over the 1..9, X alphabet."""
    return parse_lex(text, alphabet=default_alphabet(10))


@st.composite
def base_and_value(draw, max_value=2 ** (2 * radix.PEEL_BITS)):
    """A base, 2..60 or either side of 256, and a value on both sides of the peel."""
    k = draw(st.one_of(st.integers(2, 60), st.sampled_from((256, 257))))
    n = draw(st.integers(0, max_value))
    return k, n


class TestOmegaZero:
    def test_known_values(self):
        assert omega_zero(parse_zero("220", base=4)) == 40
        assert omega_zero(parse_zero("38070", base=10)) == 38070
        assert omega_zero(ZeroNumeral.zero(7)) == 0

    @given(base_and_value())
    def test_inverts_delta(self, kn):
        k, n = kn
        assert omega_zero(delta(k, n)) == n


class TestDelta:
    def test_known_values(self):
        assert delta(10, 38070).digits == (3, 8, 0, 7, 0)
        assert delta(4, 40) == parse_zero("220", base=4)
        assert delta(10, 0) == ZeroNumeral.zero(10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            delta(10, -1)
        with pytest.raises(ValueError):
            delta(1, 5)

    @given(base_and_value())
    def test_canonical(self, kn):
        k, n = kn
        z = delta(k, n)
        assert all(0 <= d < k for d in z.digits)
        assert z.digits[0] != 0 or z.digits == (0,)


class TestThetaLexToZero:
    def test_known_values(self):
        assert theta_lex_to_zero(dx("37X6X")) == parse_zero("38070", base=10)
        assert theta_lex_to_zero(dx("2X9X5")) == parse_zero("31005", base=10)
        assert theta_lex_to_zero(dx("XX")) == parse_zero("110", base=10)
        assert theta_lex_to_zero(LexNumeral(4, (2, 1, 4))) == parse_zero("220", base=4)
        assert theta_lex_to_zero(LexNumeral.zero(10)) == ZeroNumeral.zero(10)

    def test_needs_positional_base(self):
        with pytest.raises(ValueError):
            theta_lex_to_zero(LexNumeral(1, (1, 1)))

    @given(base_and_value())
    def test_matches_value_route(self, kn):
        k, n = kn
        assert theta_lex_to_zero(sigma(k, n)) == delta(k, n)

    @given(base_and_value())
    def test_preserves_value_and_length(self, kn):
        k, n = kn
        a = sigma(k, n)
        z = theta_lex_to_zero(a)
        assert omega_zero(z) == omega(a)
        if not a.is_zero:
            assert len(z.digits) in (len(a.digits), len(a.digits) + 1)


class TestThetaZeroToLex:
    def test_known_values(self):
        assert theta_zero_to_lex(parse_zero("38070", base=10)) == dx("37X6X")
        assert theta_zero_to_lex(parse_zero("31005", base=10)) == dx("2X9X5")
        assert theta_zero_to_lex(parse_zero("220", base=4)).digits == (2, 1, 4)
        assert theta_zero_to_lex(ZeroNumeral.zero(10)).is_zero

    @given(base_and_value())
    def test_matches_rank_route(self, kn):
        k, n = kn
        assert theta_zero_to_lex(delta(k, n)) == sigma(k, n)

    @given(base_and_value())
    def test_preserves_value_and_length(self, kn):
        k, n = kn
        z = delta(k, n)
        a = theta_zero_to_lex(z)
        assert omega(a) == omega_zero(z)
        assert len(a.digits) in (len(z.digits) - 1, len(z.digits))


class TestMutualInverse:
    @given(base_and_value())
    def test_round_trips(self, kn):
        k, n = kn
        a = sigma(k, n)
        z = delta(k, n)
        assert theta_zero_to_lex(theta_lex_to_zero(a)) == a
        assert theta_lex_to_zero(theta_zero_to_lex(z)) == z
