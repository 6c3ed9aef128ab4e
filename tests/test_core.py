import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroless import core
from zeroless import (
    Alphabet,
    LexNumeral,
    ZeroNumeral,
    default_alphabet,
    format_lex,
    format_zero,
    lex_length,
    maxlex,
    minlex,
    omega,
    parse_lex,
    parse_zero,
    predecessor,
    rank_within_length,
    shortlex_compare,
    sigma,
    successor,
)
from zeroless.core import omega_recursive, sigma_oracle

from conftest import shortlex_tuples

# first 40 strings over A<C<G<T in shortlex order
FIRST_40 = (
    "A C G T AA AC AG AT CA CC CG CT GA GC GG GT TA TC TG TT "
    "AAA AAC AAG AAT ACA ACC ACG ACT AGA AGC AGG AGT ATA ATC ATG ATT "
    "CAA CAC CAG CAT"
).split()

bases = st.integers(min_value=1, max_value=60)


@st.composite
def base_and_rank(draw, max_rank=10**30):
    """(k, n) pairs; unary ranks stay small enough to materialize."""
    k = draw(bases)
    n = draw(st.integers(0, 20000 if k == 1 else max_rank))
    return k, n


def lex(digits, base=4):
    return LexNumeral(base, tuple(digits))


def assert_same_error(first, second):
    """Both calls raise ValueError with one message."""
    messages = []
    for use in (first, second):
        with pytest.raises(ValueError) as exc:
            use()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


class TestAlphabet:
    def test_symbol_value_identity(self, acgt):
        for i, s in enumerate(acgt.symbols, start=1):
            assert acgt.value(s) == i
            assert acgt.symbol(i) == s

    def test_named(self):
        assert Alphabet.named("acgt").symbols == tuple("ACGT")
        assert Alphabet.named("decimal-x").symbols == tuple("123456789X")
        assert Alphabet.named("decimal-x", 4).symbols == tuple("1234")
        assert Alphabet.named("bracket") is None
        with pytest.raises(ValueError):
            Alphabet.named("acgt", 5)
        with pytest.raises(ValueError):
            Alphabet.named("klingon")
        with pytest.raises(ValueError, match=r"^alphabet 'decimal-x' covers bases 1\.\.10$"):
            Alphabet.named("decimal-x", 11)

    def test_value_and_symbol_errors(self, acgt):
        with pytest.raises(ValueError, match="^unknown symbol 'N'$"):
            acgt.value("N")
        for digit in (0, 5):
            with pytest.raises(ValueError, match=rf"^digit {digit} out of range \[1, 4\]$"):
                acgt.symbol(digit)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Alphabet.from_string("ABA")

    def test_syntax_characters_rejected(self):
        with pytest.raises(ValueError):
            Alphabet.from_string("a[")

    def test_default_alphabet(self):
        assert default_alphabet(4).symbols == tuple("1234")
        assert default_alphabet(10).symbols == tuple("123456789X")
        assert default_alphabet(11) is None


class TestNumeralTypes:
    def test_lex_digit_range(self):
        with pytest.raises(ValueError):
            LexNumeral(4, (0, 1))
        with pytest.raises(ValueError):
            LexNumeral(4, (5,))
        with pytest.raises(ValueError):
            LexNumeral(0, ())

    def test_zero_numeral_canonical(self):
        with pytest.raises(ValueError):
            ZeroNumeral(4, (0, 1))  # leading zero
        with pytest.raises(ValueError):
            ZeroNumeral(4, ())
        with pytest.raises(ValueError):
            ZeroNumeral(1, (0,))
        assert ZeroNumeral(4, (0,)).is_zero

    def test_zero_constructors(self):
        assert LexNumeral.zero(4).is_zero
        assert len(LexNumeral.zero(4)) == 0
        assert len(ZeroNumeral.zero(4)) == 1
        assert len(ZeroNumeral(10, (1, 0, 0))) == 3


# digit values on either side of every range edge the check has: 0 and 1,
# the base, the 256 of a cached set, and the big bases themselves
EDGES = (-1, 0, 1, 2, 9, 10, 11, 59, 60, 61, 255, 256, 257, 2**31 - 1, 2**31, 2**31 + 1, 2**40, 2**40 + 1)


class TestDigitCheck:
    """The construction check against the plain min/max rule, on ints."""

    @pytest.mark.parametrize("k", (1, 2, 10, 60, 2**31, 2**40))
    def test_lex_accepts_what_min_max_accepts(self, k):
        for length in (1, 2):
            for digits in itertools.product(EDGES, repeat=length):
                expected = 1 <= min(digits) and max(digits) <= k
                try:
                    LexNumeral(k, digits)
                    accepted = True
                except ValueError as exc:
                    assert str(exc) == f"digits {digits} not all in [1, {k}]"
                    accepted = False
                assert accepted == expected, digits

    @pytest.mark.parametrize("k", (2, 10, 60, 2**31, 2**40))
    def test_zero_accepts_what_min_max_accepts(self, k):
        for length in (1, 2):
            for digits in itertools.product(EDGES, repeat=length):
                in_range = 0 <= min(digits) and max(digits) < k
                try:
                    ZeroNumeral(k, digits)
                    accepted = True
                except ValueError as exc:
                    if in_range:  # only the leading-zero rule may refuse it
                        assert str(exc).startswith("leading zero")
                    else:
                        assert str(exc) == f"digits {digits} not all in [0, {k - 1}]"
                    accepted = False
                assert accepted == (in_range and not (length > 1 and digits[0] == 0)), digits

    @pytest.mark.parametrize("k", (10, 2**31))
    @pytest.mark.parametrize("digits", [(1.5, 2), (2, 0.5), ("1",), (None,), ((1,),)])
    def test_non_int_digits(self, k, digits):
        with pytest.raises(ValueError, match=r"not all in \[1, "):
            LexNumeral(k, digits)
        with pytest.raises(ValueError, match=r"not all in \[0, "):
            ZeroNumeral(k, digits)

    def test_non_int_digits_in_a_big_base(self):
        # the ordered check takes only ints; a set compares by equality
        with pytest.raises(ValueError):
            LexNumeral(2**31, (2.0,))
        with pytest.raises(ValueError):
            ZeroNumeral(2**31, (1, 0.0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LexNumeral(300.0, (1, 2)),
            lambda: LexNumeral(4.0, (1, 2)),
            lambda: LexNumeral(4.0, ()),
            lambda: ZeroNumeral(4.0, (1, 2)),
            lambda: ZeroNumeral(300.0, (1, 2)),
            lambda: ZeroNumeral(4.0, ()),
            lambda: sigma(4.0, 6),
        ],
        ids=["lex-300", "lex-4", "lex-4-empty", "zero-4", "zero-300", "zero-4-empty", "sigma-4"],
    )
    def test_a_base_that_is_no_int_is_refused(self, make):
        # whatever is cached: base 4's digit tests are made first, and an
        # equal float must not reach them
        LexNumeral(4, (1,)), ZeroNumeral(4, (1,))
        for _ in range(2):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                make()

    def test_digits_are_kept_as_a_tuple(self):
        a = LexNumeral(10, [1, 2])
        assert a.digits == (1, 2) and hash(a) == hash(LexNumeral(10, (1, 2)))
        assert ZeroNumeral(10, [1, 0]).digits == (1, 0)
        assert LexNumeral(4, iter((4, 1))).digits == (4, 1)
        assert LexNumeral(10, b"\x01\x0a").digits == (1, 10)
        t = (3, 1)
        assert LexNumeral(4, t).digits is t


class TestShortlexCompare:
    def test_prefix_is_less(self, acgt):
        assert shortlex_compare(parse_lex("A", alphabet=acgt), parse_lex("AA", alphabet=acgt)) == -1

    def test_equal(self, acgt):
        cat = parse_lex("CAT", alphabet=acgt)
        assert shortlex_compare(cat, cat) == 0

    def test_length_dominates(self, acgt):
        assert shortlex_compare(parse_lex("GT", alphabet=acgt), parse_lex("TA", alphabet=acgt)) == -1

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            shortlex_compare(LexNumeral(4, (1,)), LexNumeral(5, (1,)))

    def test_huge_base_mismatch_is_echoed_cut(self):
        with pytest.raises(ValueError) as exc:
            shortlex_compare(LexNumeral(10**100_000 + 7, (1,)), LexNumeral(4, (1,)))
        message = str(exc.value)
        assert message.startswith("base mismatch: 1000") and message.endswith("(100001 digits) != 4")
        assert len(message) < 120


class TestOmega:
    def test_paper_values(self, acgt):
        assert omega(parse_lex("CAT", alphabet=acgt)) == 40
        assert omega(parse_lex("GATT", alphabet=acgt)) == 228
        assert omega(parse_lex("GTCT", alphabet=acgt)) == 268

    def test_empty_is_zero(self):
        assert omega(LexNumeral.zero(4)) == 0

    def test_recursive_form(self):
        assert omega_recursive(2, lex((1, 4))) == 40
        assert omega_recursive(1, lex(())) == 1
        assert omega_recursive(3, lex((1, 4, 4))) == 228
        with pytest.raises(ValueError):
            omega_recursive(5, lex((1,)))

    @given(st.integers(1, 8), st.lists(st.integers(1, 8), max_size=8))
    def test_recursive_equals_prepend(self, x, digits):
        k = 8
        a = LexNumeral(k, tuple(digits))
        assert omega_recursive(x, a) == omega(LexNumeral(k, (x, *digits)))


class TestBounds:
    def test_maxlex(self):
        assert maxlex(4, 2) == 20
        assert maxlex(7, 0) == 0
        assert maxlex(10, 3) == 1110

    def test_minlex(self):
        assert minlex(4, 3) == 21
        assert minlex(9, 1) == 1
        assert minlex(4, 2) == 5

    def test_adjacent_lengths(self):
        for k in (1, 2, 4, 10, 60):
            for h in range(1, 8):
                assert minlex(k, h) == maxlex(k, h - 1) + 1

    def test_lex_length(self):
        assert lex_length(4, 37) == 3
        assert lex_length(4, 36) == 3
        assert lex_length(4, 1) == 1
        assert lex_length(10, 1110) == 3
        assert lex_length(10, 1111) == 4
        with pytest.raises(ValueError):
            lex_length(4, 0)

    @given(base_and_rank())
    def test_length_law(self, kn):
        k, n = kn
        if n == 0:
            n = 1
        assert len(sigma(k, n)) == lex_length(k, n)


class TestSigma:
    def test_paper_decompositions(self):
        assert sigma(4, 37).digits == (2, 1, 1)
        assert sigma(4, 36).digits == (1, 4, 4)
        assert sigma(4, 0).digits == ()
        assert sigma(10, 31005).digits == (2, 10, 9, 10, 5)

    def test_oracle_values(self):
        assert sigma_oracle(4, 40).digits == (2, 1, 4)
        assert sigma_oracle(7, 1).digits == (1,)
        assert sigma_oracle(10, 1480).digits == (1, 4, 7, 10)

    def test_negative_rank(self):
        with pytest.raises(ValueError):
            sigma(4, -1)
        with pytest.raises(ValueError):
            sigma_oracle(4, -1)

    @given(base_and_rank())
    def test_roundtrip(self, kn):
        k, n = kn
        assert omega(sigma(k, n)) == n

    @given(base_and_rank())
    def test_agrees_with_oracle(self, kn):
        k, n = kn
        assert sigma(k, n) == sigma_oracle(k, n)

    @given(st.integers(2, 60), st.integers(0, 10**9))
    def test_monotone(self, k, n):
        assert shortlex_compare(sigma(k, n), sigma(k, n + 1)) == -1

    def test_enumeration_is_shortlex(self):
        for k in (1, 2, 3, 4, 5):
            max_len = 6 if k > 1 else 8
            for n, digits in enumerate(shortlex_tuples(k, max_len)):
                assert sigma(k, n).digits == digits
                assert omega(LexNumeral(k, digits)) == n

    def test_first_forty_strings(self, acgt):
        got = [format_lex(sigma(4, n), acgt) for n in range(1, 41)]
        assert got == FIRST_40

    def test_unary(self):
        assert sigma(1, 5).digits == (1,) * 5
        assert omega(LexNumeral(1, (1,) * 9)) == 9
        assert sigma_oracle(1, 5) == sigma(1, 5)


class TestRankWithinLength:
    def test_values(self, acgt):
        assert rank_within_length(parse_lex("AAA", alphabet=acgt)) == 1
        assert rank_within_length(parse_lex("CAT", alphabet=acgt)) == 20
        assert rank_within_length(parse_lex("T", alphabet=acgt)) == 4
        with pytest.raises(ValueError):
            rank_within_length(LexNumeral.zero(4))

    def test_against_enumeration(self):
        k = 3
        for length in (1, 2, 3):
            for pos, digits in enumerate(itertools.product(range(1, k + 1), repeat=length), 1):
                assert rank_within_length(LexNumeral(k, digits)) == pos


class TestSuccessorPredecessor:
    def test_golden(self, acgt):
        assert format_lex(successor(parse_lex("TT", alphabet=acgt)), acgt) == "AAA"
        assert successor(LexNumeral.zero(4)).digits == (1,)
        assert predecessor(LexNumeral(10, (4, 2, 3))).digits == (4, 2, 2)

    def test_predecessor_of_zero(self):
        with pytest.raises(ValueError):
            predecessor(LexNumeral.zero(4))

    def test_borrow_deletes_position(self):
        assert predecessor(LexNumeral(4, (1, 1))).digits == (4,)
        assert predecessor(LexNumeral(4, (1,))).digits == ()

    @pytest.mark.parametrize("k", (1, 2, 10, 60))
    def test_every_last_digit(self, k):
        # a last digit below k (above 1) changes alone; at k (1) it carries (borrows)
        for head in ((), (1,), (k,), (k, 1)):
            for last in range(1, k + 1):
                a = LexNumeral(k, head + (last,))
                n = omega(a)
                assert successor(a) == sigma(k, n + 1)
                assert predecessor(a) == sigma(k, n - 1)

    @given(base_and_rank(max_rank=10**24))
    def test_inverse_and_unit_steps(self, kn):
        k, n = kn
        a = sigma(k, n)
        s = successor(a)
        assert omega(s) == n + 1
        assert predecessor(s) == a


class TestParseFormat:
    def test_symbol_parsing(self, acgt):
        assert parse_lex("CAT", alphabet=acgt).digits == (2, 1, 4)

    def test_bracket_parsing(self):
        assert parse_lex("[35]", base=60).digits == (35,)
        assert parse_lex("[2][10][9]", base=10).digits == (2, 10, 9)
        assert parse_lex("[03][1]", base=10).digits == (3, 1)  # leading zeros are read

    def test_x_notation(self, decimal_x):
        assert parse_lex("2X9X5", alphabet=decimal_x).digits == (2, 10, 9, 10, 5)

    def test_zero_token(self, acgt):
        assert parse_lex("ε", alphabet=acgt).is_zero
        assert parse_lex("", alphabet=acgt).is_zero
        assert format_lex(LexNumeral.zero(4), acgt) == "ε"
        assert format_lex(LexNumeral.zero(60)) == "ε"

    def test_parse_errors(self, acgt):
        with pytest.raises(ValueError):
            parse_lex("CAN", alphabet=acgt)  # unknown symbol
        with pytest.raises(ValueError):
            parse_lex("[0]", base=4)  # bracket value out of range
        with pytest.raises(ValueError):
            parse_lex("[5]", base=4)
        with pytest.raises(ValueError):
            parse_lex("[]", base=4)  # empty cipher brackets
        with pytest.raises(ValueError):
            parse_lex("[2", base=4)  # unterminated
        with pytest.raises(ValueError):
            parse_lex("A[2]", alphabet=acgt)  # mixed notations
        with pytest.raises(ValueError):
            parse_lex("[2]A", base=4, alphabet=Alphabet.named("acgt"))
        with pytest.raises(ValueError):
            parse_lex("12", base=4, alphabet=Alphabet.named("decimal-x"))  # size mismatch
        with pytest.raises(ValueError):
            parse_lex("12")  # no base, no alphabet
        with pytest.raises(ValueError):
            parse_lex("12", base=60)  # symbols need an alphabet
        parse_lex("[2][3]", base=60)  # brackets need only the base

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda: parse_lex("[1]", base=0), "base must be >= 1, got 0"),
            (lambda: parse_lex("x", base=-3), "base must be >= 1, got -3"),
            (lambda: parse_zero("1", base=1), "with-zero base must be >= 2, got 1"),
            (lambda: parse_zero("[5]", base=0), "with-zero base must be >= 2, got 0"),
            (lambda: parse_zero("1", symbols="0"), "with-zero base must be >= 2, got 1"),
        ],
    )
    def test_a_bad_base_is_named_before_the_text(self, read, message):
        with pytest.raises(ValueError) as exc:
            read()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("CAN", "unknown symbol 'N' at position 2"),
            ("NAC", "unknown symbol 'N' at position 0"),
            ("CA[1]", "unexpected character '[' at position 2: bracket and symbol ciphers cannot be mixed"),
            ("C[N", "unexpected character '[' at position 1: bracket and symbol ciphers cannot be mixed"),
            ("CN[", "unknown symbol 'N' at position 1"),
        ],
    )
    def test_symbol_error_messages(self, acgt, text, message):
        for _ in range(2):  # the second parse finds the symbol map cached
            with pytest.raises(ValueError) as exc:
                parse_lex(text, alphabet=acgt)
            assert str(exc.value) == message

    def test_symbol_maps_are_kept_apart(self):
        # one symbol sequence, read as zeroless and as with-zero digits
        assert parse_lex("BA", alphabet=Alphabet.from_string("ABCD")).digits == (2, 1)
        assert parse_zero("BA", symbols="ABCD").digits == (1, 0)
        assert parse_lex("BA", alphabet=Alphabet.from_string("BA")).digits == (1, 2)
        # "[" is never a symbol, in a with-zero symbol set as in an alphabet
        with pytest.raises(ValueError, match="^alphabet symbol '\\[' collides with numeral syntax$"):
            parse_zero("1[", symbols="0[1")

    @pytest.mark.parametrize("symbols", ["00", "0[1", "]1", "0 1", "0ε", "0\t", ""])
    def test_with_zero_symbols_take_the_alphabet_checks(self, symbols):
        with pytest.raises(ValueError) as refused:
            Alphabet.from_string(symbols)
        for use in (lambda: format_zero(ZeroNumeral(2, (1, 0)), symbols), lambda: parse_zero("00", symbols=symbols)):
            with pytest.raises(ValueError) as exc:
                use()
            assert str(exc.value) == str(refused.value)

    @pytest.mark.parametrize("symbols", ["01", "ACGT", "0123456789", "αβγ", "XYZabc!"])
    def test_with_zero_symbols_as_an_alphabet(self, symbols):
        from zeroless.conversion import delta

        alpha, k = Alphabet.from_string(symbols), len(symbols)
        for n in range(k**3 + 2 * k):
            z = delta(k, n)
            text = format_zero(z, symbols)
            assert format_zero(z, alpha) == text
            assert parse_zero(text, symbols=alpha) == parse_zero(text, symbols=symbols) == z
            assert parse_zero(text, k, alpha) == z
            for bad in (text + "[", text + "ε", text + "?"):
                assert_same_error(lambda: parse_zero(bad, symbols=alpha), lambda: parse_zero(bad, symbols=symbols))
        wide = ZeroNumeral(k + 1, (1,))
        assert_same_error(lambda: format_zero(wide, alpha), lambda: format_zero(wide, symbols))
        assert_same_error(lambda: parse_zero("1", k + 1, alpha), lambda: parse_zero("1", k + 1, symbols))

    @pytest.mark.parametrize(
        "use, message",
        [
            (lambda: parse_zero("10", 3, "01"), "base 3 disagrees with symbol set of size 2"),
            (lambda: parse_zero("10"), "parsing needs a base or a symbol set"),
            (lambda: format_zero(ZeroNumeral(10, (1, 0)), "01"), "symbol set of size 2 cannot render base 10"),
            (
                lambda: format_zero(ZeroNumeral(3, (1, 0)), Alphabet.from_string("01")),
                "symbol set of size 2 cannot render base 3",
            ),
        ],
    )
    def test_with_zero_argument_errors(self, use, message):
        with pytest.raises(ValueError) as exc:
            use()
        assert str(exc.value) == message

    def test_format_needs_matching_alphabet(self, acgt):
        with pytest.raises(ValueError):
            format_lex(LexNumeral(10, (1,)), acgt)

    @given(st.integers(1, 60), st.lists(st.integers(1, 60), max_size=10))
    def test_bracket_roundtrip(self, k, digits):
        digits = tuple(min(d, k) for d in digits)
        a = LexNumeral(k, digits)
        assert parse_lex(format_lex(a), base=k) == a

    @given(st.lists(st.integers(1, 4), max_size=12))
    def test_symbol_roundtrip(self, digits):
        acgt = Alphabet.named("acgt")
        a = LexNumeral(4, tuple(digits))
        assert parse_lex(format_lex(a, acgt), alphabet=acgt) == a

    @pytest.mark.parametrize(
        "text, cipher, pos",
        [
            ("[\u0663][1]", "[\u0663]", 0),
            ("[1][\u00b2]", "[\u00b2]", 3),
            ("[\uff11]", "[\uff11]", 0),
            ("[1][ 2]", "[ 2]", 3),
            ("[+2]", "[+2]", 0),
        ],
    )
    def test_bracket_ciphers_take_ascii_digits_only(self, text, cipher, pos):
        for parse in (parse_lex, parse_zero):
            with pytest.raises(ValueError) as exc:
                parse(text, base=60)
            assert str(exc.value) == f"cipher bracket {cipher!r} at position {pos} is not a decimal integer"

    @settings(max_examples=400)
    @given(
        st.one_of(
            st.lists(st.integers(0, 400), min_size=1, max_size=6).map(lambda ds: "".join(f"[{d}]" for d in ds)),
            st.lists(st.sampled_from(["[", "]", "][", "1", "07", "300", "", "x", "A", "\u0663", "\u00b2", " "]))
            .map(lambda parts: "[" + "".join(parts)),
        ),
        st.integers(1, 300),
        st.integers(0, 1),
    )
    def test_brackets_parse_as_the_scan_does(self, text, base, low):
        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        def reference():
            values = core._scan_brackets(text)
            for v in values:
                if not low <= v <= base + low - 1:
                    raise ValueError(f"cipher [{v}] out of range [{low}, {base + low - 1}]")
            return values

        assert outcome(lambda: core._parse_ciphers(text, base, None, low)) == outcome(reference)

    @given(st.integers(1, 400), st.lists(st.integers(0, 399), max_size=30))
    def test_brackets_format_as_the_cipher_join_did(self, k, values):
        lex = tuple(v % k + 1 for v in values)
        assert format_lex(LexNumeral(k, lex)) == ("".join(f"[{d}]" for d in lex) or "ε")
        if k > 10:
            zero = [v % k for v in values] or [0]
            while len(zero) > 1 and zero[0] == 0:
                zero.pop(0)
            assert format_zero(ZeroNumeral(k, zero)) == "".join(f"[{d}]" for d in zero)

    def test_error_messages_cut_the_echoed_input(self):
        long = "7" * 100_000
        for text, start, end in [
            (long + "x", "cannot read '7777", "(100001 characters): no alphabet given, so only bracket ciphers are understood"),
            (f"[1][{long}x]", "cipher bracket '[7777", "(100003 characters) at position 3 is not a decimal integer"),
        ]:
            with pytest.raises(ValueError) as exc:
                parse_lex(text, 60)
            message = str(exc.value)
            assert message.startswith(start) and message.endswith(end) and len(message) < 200

    def test_range_errors_cut_the_echoed_value(self):
        long = "7" * 100_000
        for read, start, end in [
            (lambda: parse_lex(f"[1][{long}]", 60), "cipher [7777", "7... (100000 digits)] out of range [1, 60]"),
            (lambda: parse_zero(f"[{long}]", 60), "cipher [7777", "7... (100000 digits)] out of range [0, 59]"),
            (lambda: parse_lex("[0]", int(long)), "cipher [0] out of range [1, 7777", "7... (100000 digits)]"),
        ]:
            with pytest.raises(ValueError) as exc:
                read()
            message = str(exc.value)
            assert message.startswith(start) and message.endswith(end) and len(message) < 200

    def test_base_and_rank_errors_cut_the_echoed_value(self):
        from zeroless import conversion, genome, tables

        big = int("7" * 100_000)
        for fail in [
            lambda: LexNumeral(-big, ()),
            lambda: LexNumeral(big, (0,)),
            lambda: ZeroNumeral(-big, (0,)),
            lambda: ZeroNumeral(big, (-1,)),
            lambda: core.maxlex(-big, 1),
            lambda: core.maxlex(2, -big),
            lambda: core.minlex(-big, 1),
            lambda: core.minlex(2, -big),
            lambda: core.lex_length(-big, 1),
            lambda: core.sigma(-big, 1),
            lambda: core.sigma(2, -big),
            lambda: core.sigma_oracle(-big, 1),
            lambda: core.sigma_oracle(2, -big),
            lambda: conversion.delta(-big, 1),
            lambda: conversion.delta(2, -big),
            lambda: tables.OpTable("addition", -big),
            lambda: genome.unrank_sequence(-big),
        ]:
            with pytest.raises(ValueError, match=r"7777\.\.\. \(100000 digits\)\]?$") as exc:
                fail()
            assert len(str(exc.value)) < 120
        with pytest.raises(ValueError, match=r"got -1e\+50$"):  # not an int: str() of it
            LexNumeral(-1e50, ())

    @settings(max_examples=300)
    @given(st.one_of(st.integers(-(10**120), 10**120), st.integers(30, 400).flatmap(
        lambda e: st.sampled_from([10**e - 1, 10**e, -(10**e), 2**(3 * e), 7 * 10**e // 9]))))
    def test_echo_int_is_str_cut_after_40_digits(self, n):
        text = str(abs(n))
        expected = str(n) if len(text) <= 40 else f"{'-' * (n < 0)}{text[:40]}... ({len(text)} digits)"
        assert core._echo_int(n) == expected

    def test_zero_numeral_text(self):
        assert parse_zero("38070", 10).digits == (3, 8, 0, 7, 0)
        assert parse_zero("[0]", 60).digits == (0,)
        assert format_zero(ZeroNumeral(10, (3, 8, 0, 7, 0))) == "38070"
        assert format_zero(ZeroNumeral(60, (4, 9, 5))) == "[4][9][5]"
        with pytest.raises(ValueError):
            parse_zero("038", 10)  # leading zero is not canonical
        with pytest.raises(ValueError):
            parse_zero("3X", 10)  # X is not a with-zero symbol

    @settings(max_examples=30)
    @given(st.integers(2, 60), st.integers(0, 10**24))
    def test_zero_numeral_roundtrip(self, k, n):
        from zeroless.conversion import delta

        z = delta(k, n)
        assert parse_zero(format_zero(z), base=k) == z
