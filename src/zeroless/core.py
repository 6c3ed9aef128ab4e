"""Zeroless numerals and their shortlex enumeration.

A zeroless numeral in base k is a string over the digits [1]..[k]; the
empty string denotes zero. Ordered by shortlex (shorter first, then
lexicographic), the nonempty strings enumerate 1, 2, 3, ... and every
natural number has exactly one representation. This module provides the
numeral types, the rank map ``omega`` (string -> position), its inverse
``sigma`` (position -> string), successor/predecessor, and text parsing
and formatting for both the zeroless and the classical with-zero kinds.

Ranks are plain Python ints, so genome-sized values need no special
handling. ``omega`` and ``sigma`` convert between ranks and digits in
``radix``, which chooses the route by base and length.
"""

from __future__ import annotations

import functools
import operator

from zeroless import _backend, radix

_DECIMAL_X = "123456789X"  # zeroless decimal ciphers, X = ten
_DECIMAL = "0123456789"
_ACGT = "ACGT"
_SET_BASES = 256  # largest base whose digit set is cached
_CIPHERS = {str(v): v for v in range(_SET_BASES + 1)}  # bracket cipher: value
_BRACKETED = tuple(f"[{v}]" for v in range(_SET_BASES + 1))  # value: bracket cipher
# an ASCII symbol set reads and writes text through byte tables, where this
# byte marks a character that is no symbol (such a set has at most 92)
_NO_SYMBOL = 255
# base: digit test of LexNumeral or ZeroNumeral up to _SET_BASES, made on
# first use; lists, so that a base that is no int cannot hit a cached test
_LEX_TESTS = [None] * (_SET_BASES + 1)
_ZERO_TESTS = [None] * (_SET_BASES + 1)

#: Names accepted wherever an alphabet can be passed by name.
NAMED_ALPHABETS = ("acgt", "decimal-x", "bracket")

_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types.

    A subclass names its fields in ``__slots__``, sets them in its
    ``__init__`` with ``object.__setattr__`` and, if they need checks,
    calls its ``__post_init__`` to make them; one that adds no slot keeps
    its base's fields. It gets a field-wise repr, equality and hash (an
    instance equals only instances of its own class), copying and
    pickling through its constructor, and AttributeError on assignment
    and deletion. Unlike ``dataclasses``,
    this costs the importing process nothing beyond the class itself.
    ``genome.FastaRecord`` keeps these rules but is tuple-backed instead,
    so that the FASTA reader builds each record with one ``tuple.__new__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        if not names:  # no field of its own: the base's stand
            return
        get = operator.attrgetter(*names)
        # the field values as a tuple, for one field too
        cls._fields = staticmethod(get if len(names) > 1 else lambda self: (get(self),))
        cls.__match_args__ = names

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return self.__class__, self._fields(self)


def _digit_test(tests, base, low):
    """Test that each digit of a tuple is in [low, base + low - 1], for a base >= 1.

    Up to _SET_BASES it is a frozenset's ``issuperset``, cached in
    ``tests``: each digit must equal a valid one. Above, it takes min and
    max of the digits as ints, so a digit that is no int fails. A base
    that is no int is a TypeError.
    """
    high = operator.index(base) + low - 1
    if base <= _SET_BASES:
        tests[base] = frozenset(range(low, high + 1)).issuperset
        return tests[base]

    def ordered(digits):
        try:
            return low <= min(map(operator.index, digits)) and max(digits) <= high
        except TypeError:
            return False

    return ordered


class Alphabet(_Frozen):
    """Ordered display symbols for the digits of either notation.

    Symbol i is digit i+1 in zeroless text and digit i in with-zero text;
    the same rules refuse duplicates, non-printable or space characters,
    "[", "]" and "ε" in both. An alphabet is only a view used for parsing
    and formatting; digits are stored as integers, so any base works
    without a symbol table.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        _set(self, "symbols", symbols)
        self.__post_init__()

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        for s in self.symbols:
            if len(s) != 1 or not s.isprintable() or s.isspace():
                raise ValueError(f"alphabet symbol {s!r} is not a printable character")
            if s in "[]ε":
                raise ValueError(f"alphabet symbol {s!r} collides with numeral syntax")

    @property
    def base(self) -> int:
        return len(self.symbols)

    def value(self, symbol: str) -> int:
        """1-based digit value of a symbol."""
        try:
            return self.symbols.index(symbol) + 1
        except ValueError:
            raise ValueError(f"unknown symbol {symbol!r}") from None

    def symbol(self, value: int) -> str:
        if not 1 <= value <= self.base:
            raise ValueError(f"digit {_echo_int(value)} out of range [1, {self.base}]")
        return self.symbols[value - 1]

    @classmethod
    def from_string(cls, symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    @classmethod
    def named(cls, name: str, base: int | None = None) -> "Alphabet | None":
        """Resolve a named alphabet; "bracket" resolves to None (no symbols)."""
        if name == "acgt":
            if base not in (None, 4):
                raise ValueError("alphabet 'acgt' is base 4")
            return cls.from_string(_ACGT)
        if name == "decimal-x":
            k = 10 if base is None else base
            if not 1 <= k <= 10:
                raise ValueError("alphabet 'decimal-x' covers bases 1..10")
            return cls.from_string(_DECIMAL_X[:k])
        if name == "bracket":
            return None
        raise ValueError(f"unknown alphabet name {name!r}")


def default_alphabet(base: int) -> Alphabet | None:
    """Default display symbols for a base: 1..9,X up to base 10, else brackets."""
    if 1 <= base <= 10:
        return Alphabet.from_string(_DECIMAL_X[:base])
    return None


class _Numeral(_Frozen):
    """Digit string in a base, most significant first, in either notation.

    Any iterable of digits is kept as a tuple, which each subclass's
    ``__post_init__`` checks by its notation's rules.
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]):
        _set_base(self, base)
        _set_digits(self, tuple(digits))
        self.__post_init__()  # a class attribute, so wrappers see every construction

    def __len__(self) -> int:
        return len(self.digits)


# the slots' own setters, which skip object.__setattr__'s lookup by name
_set_base, _set_digits = _Numeral.base.__set__, _Numeral.digits.__set__


class LexNumeral(_Numeral):
    """Zeroless digit string over 1..base; empty means zero."""

    __slots__ = ()

    def __post_init__(self):
        base, digits = self.base, self.digits
        if base < 1:
            raise ValueError(f"base must be >= 1, got {_echo_int(base)}")
        try:
            test = _LEX_TESTS[base] if base <= _SET_BASES else None
        except TypeError:  # no int, which _digit_test refuses
            test = None
        if test is None:
            test = _digit_test(_LEX_TESTS, base, 1)
        if digits and not test(digits):
            raise ValueError(f"digits {digits} not all in [1, {_echo_int(base)}]")

    @property
    def is_zero(self) -> bool:
        return not self.digits

    @classmethod
    def zero(cls, base: int) -> "LexNumeral":
        return cls(base, ())

    def __str__(self) -> str:
        return format_lex(self)


class ZeroNumeral(_Numeral):
    """Classical with-zero digit string over 0..base-1 in canonical form (no leading zero)."""

    __slots__ = ()

    def __post_init__(self):
        base, digits = self.base, self.digits
        if base < 2:
            raise ValueError(f"with-zero base must be >= 2, got {_echo_int(base)}")
        try:
            test = _ZERO_TESTS[base] if base <= _SET_BASES else None
        except TypeError:  # no int, which _digit_test refuses
            test = None
        if test is None:
            test = _digit_test(_ZERO_TESTS, base, 0)
        if not digits:
            raise ValueError("with-zero numeral needs at least one digit; zero is (0,)")
        if not test(digits):
            raise ValueError(f"digits {digits} not all in [0, {_echo_int(base - 1)}]")
        if len(digits) > 1 and digits[0] == 0:
            raise ValueError("leading zero: with-zero numerals are canonical")

    @property
    def is_zero(self) -> bool:
        return self.digits == (0,)

    @classmethod
    def zero(cls, base: int) -> "ZeroNumeral":
        return cls(base, (0,))

    def __str__(self) -> str:
        return format_zero(self)


def _check_same_base(a, b):
    if a.base != b.base:
        raise ValueError(f"base mismatch: {_echo_int(a.base)} != {_echo_int(b.base)}")


def shortlex_compare(a: LexNumeral, b: LexNumeral) -> int:
    """-1, 0 or 1: shorter strings first, equal lengths digit-wise."""
    _check_same_base(a, b)
    if len(a.digits) != len(b.digits):
        return -1 if len(a.digits) < len(b.digits) else 1
    if a.digits == b.digits:
        return 0
    return -1 if a.digits < b.digits else 1


def omega(a: LexNumeral) -> int:
    """Shortlex rank of a numeral; the empty numeral ranks 0."""
    k, digits = a.base, a.digits
    if k == 1:
        return len(digits)  # unary: every digit is 1
    return radix.number(digits, k, 1)


def omega_recursive(x: int, a: LexNumeral) -> int:
    """Rank of the numeral x*a via the one-step recurrence x*k^|a| + rank(a).

    Kept as a separately testable form of the prepend rule; it must agree
    with ``omega`` applied to the prepended numeral.
    """
    if not 1 <= x <= a.base:
        raise ValueError(f"digit {_echo_int(x)} out of range [1, {_echo_int(a.base)}]")
    return x * a.base ** len(a.digits) + omega(a)


def maxlex(k: int, h: int) -> int:
    """Greatest rank representable by strings of length <= h: sum of k^1..k^h."""
    return k * minlex(k, h)


def minlex(k: int, h: int) -> int:
    """Smallest rank with representation length h: sum of k^0..k^(h-1)."""
    if k < 1:
        raise ValueError(f"base must be >= 1, got {_echo_int(k)}")
    if h < 0:
        raise ValueError(f"length must be >= 0, got {_echo_int(h)}")
    if k == 1:
        return h
    return (k**h - 1) // (k - 1)


def rank_within_length(a: LexNumeral) -> int:
    """Position of a among the strings of its own length (1-based)."""
    if not a.digits:
        raise ValueError("empty numeral has no within-length rank")
    return omega(a) - maxlex(a.base, len(a.digits) - 1)


def lex_length(k: int, n: int) -> int:
    """Representation length of n >= 1: the h with minlex <= n <= maxlex.

    A logarithm estimate is settled by exact integer comparisons, so
    boundary values such as n == maxlex(k, h) stay exact.
    """
    if k < 1:
        raise ValueError(f"base must be >= 1, got {_echo_int(k)}")
    if n < 1:
        raise ValueError("zero is the empty string; it has no length")
    if k == 1:
        return n
    return radix.lex_length(k, n)


def sigma(k: int, n: int) -> LexNumeral:
    """Zeroless numeral of rank n: the inverse of ``omega``.

    The numerals of length h are the ranks minlex(k, h) onward in
    lexicographic order, so the offset n - minlex(k, h) written as h
    with-zero digits, each raised by one, is the numeral.
    """
    if k < 1:
        raise ValueError(f"base must be >= 1, got {_echo_int(k)}")
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {_echo_int(n)}")
    if k == 1:
        return LexNumeral(1, (1,) * n)  # unary closed form
    return LexNumeral(k, (n,) if 0 < n <= k else radix.digits(n, k, 1))


def sigma_oracle(k: int, n: int) -> LexNumeral:
    """Independent unranking by modular extraction of the last digit.

    Peels digits right to left via d = (n-1) % k + 1, n <- (n-d) / k.
    Exists purely as a cross-check for ``sigma``; tests assert the two
    agree everywhere.
    """
    if k < 1:
        raise ValueError(f"base must be >= 1, got {_echo_int(k)}")
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {_echo_int(n)}")
    if k == 1:
        return LexNumeral(1, (1,) * n)  # the extraction below degenerates to this
    digits = []
    while n:
        d = (n - 1) % k + 1
        digits.append(d)
        n = (n - d) // k
    digits.reverse()
    return LexNumeral(k, digits)


def successor(a: LexNumeral) -> LexNumeral:
    """Numeral of rank omega(a) + 1."""
    k, d = a.base, a.digits
    if d and d[-1] < k:  # no carry: only the last digit changes
        return LexNumeral(k, d[:-1] + (d[-1] + 1,))
    return LexNumeral(k, _backend.successor_digits(d, k))


def predecessor(a: LexNumeral) -> LexNumeral:
    """Numeral of rank omega(a) - 1; zero has no predecessor."""
    k, d = a.base, a.digits
    if d and d[-1] > 1:  # no borrow: only the last digit changes
        return LexNumeral(k, d[:-1] + (d[-1] - 1,))
    return LexNumeral(k, _backend.predecessor_digits(d, k))


# --- text grammar -----------------------------------------------------------
#
#   numeral := "ε" | cipher+
#   cipher  := alphabet-symbol | "[" decimal-integer "]"
#
# Bracket and symbol ciphers may not be mixed within one numeral.

ZERO_TOKEN = "ε"  # ε


def _echo(text: str) -> str:
    """repr of input for an error message, cut after 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _echo_int(n: int) -> str:
    """An int for an error message, cut after 40 digits as ``_echo`` cuts text.

    The leading digits of a long one come from dividing off a power of
    ten, not from ``str()``, which before Python 3.12 is quadratic.
    """
    if not isinstance(n, int) or -(10**40) < n < 10**40:
        return str(n)
    # digits to divide off: log10(2) per bit, floored, less 40, so that at
    # least 40 are left
    cut = max(int((n.bit_length() - 1) * 0.3010299956639812) - 40, 0)
    lead = str(abs(n) // 10**cut)
    return f"{'-' * (n < 0)}{lead[:40]}... ({cut + len(lead)} digits)"


def _scan_brackets(text):
    """Digit values of an all-bracket numeral like "[2][10][9]"."""
    values = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos] != "[":
            raise ValueError(
                f"unexpected character {text[pos]!r} at position {pos}: "
                "bracket and symbol ciphers cannot be mixed"
            )
        end = text.find("]", pos)
        if end < 0:
            raise ValueError(f"unterminated cipher bracket at position {pos}")
        body = text[pos + 1 : end]
        if not (body.isascii() and body.isdigit()):
            raise ValueError(f"cipher bracket {_echo(text[pos:end + 1])} at position {pos} is not a decimal integer")
        values.append(int(body))
        pos = end + 1
    return values


def _parse_ciphers(text, base, alphabet, low):
    """Digit values of a numeral, each required to lie in [low, base+low-1].

    ASCII text against a symbol set with byte tables is one translate;
    a byte that maps to no symbol sends it to the scan, which words the
    error.
    """
    hi = base + low - 1
    if text[:1] == "[":
        values = list(map(_CIPHERS.get, text[1:-1].split("][")))
        if text[-1] != "]" or None in values:
            values = _scan_brackets(text)  # long or zero-padded ciphers, and errors
        if low <= min(values) and max(values) <= hi:
            return values
        v = next(v for v in values if not low <= v <= hi)
        raise ValueError(f"cipher [{_echo_int(v)}] out of range [{low}, {_echo_int(hi)}]")
    if alphabet is None:
        raise ValueError(
            f"cannot read {_echo(text)}: no alphabet given, so only bracket ciphers are understood"
        )
    tables = _byte_tables(alphabet, low)
    if tables is not None and text.isascii():
        values = text.encode().translate(tables[1])
        if _NO_SYMBOL not in values:
            return values
    index = _symbol_values(alphabet, low)
    try:
        return list(map(index.__getitem__, text))
    except KeyError:
        pass
    for pos, ch in enumerate(text):  # find the first bad character
        if ch == "[":
            raise ValueError(
                f"unexpected character '[' at position {pos}: "
                "bracket and symbol ciphers cannot be mixed"
            )
        if ch not in index:
            raise ValueError(f"unknown symbol {ch!r} at position {pos}")


@functools.lru_cache(maxsize=64)
def _symbol_values(symbols, low):
    """{symbol: digit value} for symbols[i] = i + low."""
    return {s: i + low for i, s in enumerate(symbols)}


@functools.lru_cache(maxsize=64)
def _byte_tables(symbols, low):
    """Translate tables from digit bytes to symbols and back, for symbols[i] = i + low.

    None unless the symbols are ASCII. The second table maps every byte
    that is no symbol, "[" among them, to _NO_SYMBOL.
    """
    text = "".join(symbols)
    if not text.isascii():
        return None
    to_digit = bytearray([_NO_SYMBOL]) * 256
    for s, v in _symbol_values(symbols, low).items():
        to_digit[ord(s)] = v
    return bytes.maketrans(bytes(range(low, low + len(symbols))), text.encode()), bytes(to_digit)


def _symbol_text(digits, symbols, low):
    """Text of digit values in a symbol set, symbols[i] standing for i + low."""
    tables = _byte_tables(symbols, low)
    if tables is not None:
        return bytes(digits).translate(tables[0]).decode()
    return "".join([symbols[d - low] for d in digits])


def _bracket_text(digits, base):
    """Text of digit values as bracket ciphers; a bool digit is written as its int."""
    if base <= _SET_BASES:
        return "".join(map(_BRACKETED.__getitem__, digits))
    return "[" + "][".join(map(str, map(operator.index, digits))) + "]"


def parse_lex(text: str, base: int | None = None, alphabet: Alphabet | None = None) -> LexNumeral:
    """Read a zeroless numeral; "ε" and "" denote zero.

    Without an alphabet only bracket ciphers are accepted, and the base
    must be given explicitly.
    """
    if alphabet is not None:
        if base is not None and base != alphabet.base:
            raise ValueError(f"base {_echo_int(base)} disagrees with alphabet of size {alphabet.base}")
        base = alphabet.base
    if base is None:
        raise ValueError("parsing needs a base or an alphabet")
    if text == ZERO_TOKEN or text == "":
        return LexNumeral(base, ())
    symbols = alphabet.symbols if alphabet is not None else None
    try:
        digits = _parse_ciphers(text, base, symbols, 1)
    except ValueError:
        LexNumeral(base, ())  # a bad base is named before the text
        raise
    return LexNumeral(base, digits)


def format_lex(a: LexNumeral, alphabet: Alphabet | None = None) -> str:
    """Render a zeroless numeral; zero renders as "ε"."""
    if not a.digits:
        return ZERO_TOKEN
    if alphabet is None:
        return _bracket_text(a.digits, a.base)
    if alphabet.base != a.base:
        raise ValueError(f"alphabet of size {alphabet.base} cannot render base {_echo_int(a.base)}")
    return _symbol_text(a.digits, alphabet.symbols, 1)


@functools.lru_cache(maxsize=64)
def _zero_symbols(symbols):
    """The symbols of an Alphabet, or of a string that passes Alphabet's checks, once per set."""
    return (symbols if isinstance(symbols, Alphabet) else Alphabet.from_string(symbols)).symbols


def parse_zero(text: str, base: int | None = None, symbols: str | Alphabet | None = None) -> ZeroNumeral:
    """Read a canonical with-zero numeral.

    ``symbols``, an ``Alphabet`` or a string, gives symbol i to digit i.
    A string is checked by ``Alphabet``'s rules, which refuse duplicates,
    non-printable or space characters, "[", "]" and "ε". Without symbols,
    bases up to 10 read '0'..'9' and larger bases bracket ciphers.
    """
    if symbols is not None:
        symbols = _zero_symbols(symbols)
        if base is not None and base != len(symbols):
            raise ValueError(f"base {_echo_int(base)} disagrees with symbol set of size {len(symbols)}")
        base = len(symbols)
    if base is None:
        raise ValueError("parsing needs a base or a symbol set")
    if symbols is None and base <= 10:
        symbols = _DECIMAL[:base]
    try:
        digits = _parse_ciphers(text, base, symbols, 0)
    except ValueError:
        ZeroNumeral(base, (0,))  # a bad base is named before the text
        raise
    return ZeroNumeral(base, digits)


def format_zero(a: ZeroNumeral, symbols: str | Alphabet | None = None) -> str:
    """Render a with-zero numeral with digit symbols or bracket ciphers.

    ``symbols`` is checked and defaults as for ``parse_zero``: symbol i
    writes digit i.
    """
    if symbols is not None:
        symbols = _zero_symbols(symbols)
        if len(symbols) != a.base:
            raise ValueError(f"symbol set of size {len(symbols)} cannot render base {_echo_int(a.base)}")
    elif a.base <= 10:
        symbols = _DECIMAL[: a.base]
    else:
        return _bracket_text(a.digits, a.base)
    return _symbol_text(a.digits, symbols, 0)
