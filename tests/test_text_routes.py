"""Numeral text through byte tables and bracket tuples, against per-symbol loops.

``format_lex``/``parse_lex`` and ``format_zero``/``parse_zero`` read and
write ASCII symbol sets, which Alphabet's rules keep to 92 symbols, with
``bytes.translate``, and bracket ciphers up to base 256 from a tuple.
The oracles here are the loops those routes replaced.
"""

import random
import string

import pytest

from zeroless import (
    Alphabet,
    LexNumeral,
    ZeroNumeral,
    format_lex,
    format_zero,
    parse_lex,
    parse_zero,
    predecessor,
    sigma,
    successor,
)
from zeroless.core import BYTE_CHECK_DIGITS

PRINTABLE = string.digits + string.ascii_letters + string.punctuation  # the 94 printable non-space ASCII
SYMBOLS = PRINTABLE.replace("[", "").replace("]", "")  # the 92 an Alphabet takes


def text_of(digits, symbols, low):
    """Text of digit values, one symbol per digit."""
    return "".join(symbols[d - low] for d in digits)


def values_of(text, symbols, low):
    """Digit values of symbol text, or the ValueError text of the first bad character."""
    index = {s: i + low for i, s in enumerate(symbols)}
    for pos, ch in enumerate(text):
        if ch == "[":
            return f"unexpected character '[' at position {pos}: bracket and symbol ciphers cannot be mixed"
        if ch not in index:
            return f"unknown symbol {ch!r} at position {pos}"
    return tuple(index[ch] for ch in text)


def outcome(read):
    try:
        return read().digits
    except ValueError as exc:
        return str(exc)


def zero_digits(rng, k):
    """A canonical with-zero digit tuple in base k."""
    return (rng.randint(1, k - 1), *(rng.randint(0, k - 1) for _ in range(rng.randint(0, 29))))


def brackets(digits):
    return "".join(f"[{int(d)}]" for d in digits)


@pytest.mark.parametrize("size", range(1, len(SYMBOLS) + 1))
def test_ascii_alphabets_match_the_symbol_loops(size):
    rng = random.Random(size)
    symbols = "".join(rng.sample(SYMBOLS, size))
    alpha = Alphabet.from_string(symbols)
    strays = [rng.choice(PRINTABLE), "[", " ", "é", "\udce9", "ε"]
    for _ in range(20):
        digits = tuple(rng.randint(1, size) for _ in range(rng.randint(1, 30)))
        text = format_lex(LexNumeral(size, digits), alpha)
        assert text == text_of(digits, symbols, 1)
        assert parse_lex(text, alphabet=alpha).digits == digits
        bad = list(text)
        bad.insert(rng.randint(1, len(bad)), rng.choice(strays))  # a leading "[" reads as brackets
        bad = "".join(bad)
        assert outcome(lambda: parse_lex(bad, alphabet=alpha)) == values_of(bad, symbols, 1)


@pytest.mark.parametrize("size", [2, 3, 10, 47, 92, 93, 94])
def test_ascii_with_zero_symbols_match_the_symbol_loops(size):
    rng = random.Random(size)
    if size > len(SYMBOLS):  # then "[" or "]" is among the symbols, which refuse them
        symbols = "".join(rng.sample(PRINTABLE, size))
        for use in (lambda: format_zero(ZeroNumeral(size, (1,)), symbols), lambda: parse_zero("1", symbols=symbols)):
            with pytest.raises(ValueError, match=r"^alphabet symbol '[][]' collides with numeral syntax$"):
                use()
        return
    symbols = "".join(rng.sample(SYMBOLS, size))
    alpha = Alphabet.from_string(symbols)
    strays = [rng.choice(PRINTABLE), "[", " ", "é", "ε"]
    for _ in range(20):
        digits = zero_digits(rng, size)
        text = format_zero(ZeroNumeral(size, digits), symbols)
        assert text == text_of(digits, symbols, 0) == format_zero(ZeroNumeral(size, digits), alpha)
        assert outcome(lambda: parse_zero(text, symbols=symbols)) == values_of(text, symbols, 0) == digits
        bad = text + rng.choice(strays) + text
        assert outcome(lambda: parse_zero(bad, symbols=symbols)) == values_of(bad, symbols, 0)
        assert outcome(lambda: parse_zero(bad, symbols=alpha)) == values_of(bad, symbols, 0)


@pytest.mark.parametrize("symbols", ["αβγ", "aβc", "Aé", "0λ1", "𝟘𝟙"])
def test_non_ascii_alphabets_match_the_symbol_loops(symbols):
    rng = random.Random(symbols)
    alpha = Alphabet.from_string(symbols)
    k = len(symbols)
    for _ in range(20):
        digits = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 12)))
        text = format_lex(LexNumeral(k, digits), alpha)
        assert text == text_of(digits, symbols, 1)
        assert parse_lex(text, alphabet=alpha).digits == digits
        for stray in ("x", "[", "é"):
            bad = text + stray + text
            assert outcome(lambda: parse_lex(bad, alphabet=alpha)) == values_of(bad, symbols, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("CAN", "unknown symbol 'N' at position 2"),
        ("CAT[2]", "unexpected character '[' at position 3: bracket and symbol ciphers cannot be mixed"),
        ("CAé", "unknown symbol 'é' at position 2"),
        ("C\udce9A", "unknown symbol '\\udce9' at position 1"),
        ("CAε", "unknown symbol 'ε' at position 2"),
        ("ca", "unknown symbol 'c' at position 0"),
    ],
)
def test_symbol_errors_keep_their_text(acgt, text, message):
    with pytest.raises(ValueError) as exc:
        parse_lex(text, alphabet=acgt)
    assert str(exc.value) == message


@pytest.mark.parametrize("k", [255, 256, 257])
def test_brackets_around_the_tuple_bound(k):
    rng = random.Random(k)
    for digits in [(1,), (k,), (k, 1, k - 1), tuple(rng.randint(1, k) for _ in range(40))]:
        text = format_lex(LexNumeral(k, digits))
        assert text == brackets(digits)
        assert parse_lex(text, k).digits == digits
    for digits in [(0,), (k - 1,), (k - 1, 0, 1), (1, *(rng.randint(0, k - 1) for _ in range(40)))]:
        text = format_zero(ZeroNumeral(k, digits))
        assert text == brackets(digits)
        assert parse_zero(text, k).digits == digits


@pytest.mark.parametrize("k", [12, 256, 257])
def test_bracket_bool_digits_are_written_as_ints(k):
    assert format_lex(LexNumeral(k, (True, 2))) == "[1][2]"
    assert format_zero(ZeroNumeral(k, (True, False))) == "[1][0]"


def test_bracket_float_digits_are_a_type_error():
    # a float digit equal to a valid int still builds up to base 256
    with pytest.raises(TypeError):
        format_lex(LexNumeral(60, (2.0,)))
    with pytest.raises(TypeError):
        format_lex(LexNumeral(4, (2.0,)), Alphabet.from_string("ACGT"))


@pytest.mark.parametrize("size", [254, 255, 256])
@pytest.mark.parametrize("kind", ["ascii", "non_ascii"])
def test_long_with_zero_symbol_sets(size, kind):
    if kind == "ascii":  # an ASCII set this long repeats symbols, which the checks refuse
        symbols = (PRINTABLE * 3)[:size]
        for use in (lambda: format_zero(ZeroNumeral(size, (1,)), symbols), lambda: parse_zero("1", symbols=symbols)):
            with pytest.raises(ValueError, match="^alphabet symbols must be pairwise distinct$"):
                use()
        return
    symbols = "".join(map(chr, range(0x100, 0x100 + size)))
    rng = random.Random(size)
    for _ in range(10):
        digits = zero_digits(rng, size)
        text = format_zero(ZeroNumeral(size, digits), symbols)
        assert text == text_of(digits, symbols, 0)
        assert outcome(lambda: parse_zero(text, symbols=symbols)) == values_of(text, symbols, 0)
        bad = text + "[" + text
        assert outcome(lambda: parse_zero(bad, symbols=symbols)) == values_of(bad, symbols, 0)


def test_numerals_reach_post_init_once_per_construction(monkeypatch):
    # assignment and deletion are refused as test_values checks for every value type
    carry, plain = LexNumeral(10, (10, 10)), LexNumeral(60, (7, 1))
    seen = []
    for cls in (LexNumeral, ZeroNumeral):

        # long digit bytes come as an argument, the tuple already stored
        def counting(self, *digit_bytes, check=cls.__post_init__):
            seen.append((type(self), self.digits, *map(tuple, digit_bytes)))
            check(self, *digit_bytes)

        monkeypatch.setattr(cls, "__post_init__", counting)
    made = [
        LexNumeral(10, [1, 2]),
        sigma(10, 5),
        sigma(10, 12345678),
        sigma(10, 10**50),
        sigma(60, 10**9),
        parse_lex("GATT", alphabet=Alphabet.from_string("ACGT")),
        parse_lex("[7][7]", 60),
        successor(carry),
        successor(plain),
        predecessor(carry),
        ZeroNumeral(10, [1, 0]),
        parse_zero("120", 10),
        parse_zero("[59][0]", 60),
        # past BYTE_CHECK_DIGITS, from the text, block and symbol routes
        sigma(10, 10**100),
        sigma(60, 60**100),
        parse_lex("GATT" * 20, alphabet=Alphabet.from_string("ACGT")),
        parse_zero("1" + "0" * 70, 10),
    ]
    long = [len(v) > BYTE_CHECK_DIGITS for v in made]
    assert long == [False] * 13 + [True] * 4
    assert seen == [(type(v), v.digits, *[v.digits] * is_long) for v, is_long in zip(made, long)]
