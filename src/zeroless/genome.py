"""DNA sequences as base-4 zeroless numerals.

A sequence over A, C, G, T is read as a digit string with A=1, C=2,
G=3, T=4; the empty sequence is zero. Rank and unrank are then the
shortlex maps in base 4, and comparing sequences shortlex (length
first, then alphabetically) is exactly comparing their ranks.
"""

from __future__ import annotations

from zeroless.core import LexNumeral, _Frozen, _set, shortlex_compare

BASES = "ACGT"
_VALUE = {c: i + 1 for i, c in enumerate(BASES)}
_TO_DIGIT = str.maketrans(BASES, "0123")
# the four base-4 digits of a byte, most significant first, as bases
_QUAD = tuple(a + b + c + d for a in BASES for b in BASES for c in BASES for d in BASES)
_POLICIES = ("reject", "skip")


class FastaRecord(_Frozen):
    """One FASTA record; ``line`` is where its header sits in the source."""

    __slots__ = ("id", "sequence", "line")

    def __init__(self, id: str, sequence: str, line: int):
        _set(self, "id", id)
        _set(self, "sequence", sequence)
        _set(self, "line", line)


def read_fasta(source, policy: str = "reject"):
    """Yield FastaRecord items from a path or text handle, in file order.

    Lowercase bases are upcased. A record containing letters outside
    ACGT either raises (policy "reject", the default) or is dropped as a
    whole (policy "skip"). Records with no sequence lines at all are an
    error under both policies, as is sequence data before any header.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose one of {_POLICIES}")
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="ascii") as handle:
            yield from _parse_fasta(handle, policy)
    else:
        yield from _parse_fasta(source, policy)


def _parse_fasta(handle, policy):
    header = None
    header_line = 0
    parts = []
    drop = False
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None and not drop:
                yield _record(header, parts, header_line)
            header = line[1:].strip()
            header_line = lineno
            parts = []
            drop = False
        elif line.startswith(";"):
            continue
        else:
            if header is None:
                raise ValueError(f"line {lineno}: sequence data before the first '>' header")
            if drop:
                continue
            chunk = line.upper()
            rest = chunk.lstrip(BASES)  # starts at the first invalid base
            if not rest:
                parts.append(chunk)
            elif policy == "skip":
                drop = True
            else:
                col = len(chunk) - len(rest) + 1
                raise ValueError(
                    f"line {lineno}, column {col}: invalid base {rest[0]!r} in record {header!r}"
                )
    if header is not None and not drop:
        yield _record(header, parts, header_line)


def _record(header, parts, lineno):
    if not parts:
        raise ValueError(f"line {lineno}: record {header!r} has an empty sequence")
    return FastaRecord(header, "".join(parts), lineno)


def _digits(sequence: str) -> tuple:
    try:
        return tuple(_VALUE[c] for c in sequence.upper())
    except KeyError as exc:
        raise ValueError(f"unexpected character {exc.args[0]!r} in sequence") from None


def rank_sequence(sequence: str) -> int:
    """Shortlex rank of a DNA sequence; the empty sequence ranks 0.

    Read with A, C, G, T as 0..3, the text is the base-4 offset of its
    rank from minlex(4, n) = (4**n - 1) // 3, the rank of A*n; ``int``
    reads power-of-two bases in linear time.
    """
    text = sequence.upper()
    rest = text.lstrip(BASES)
    if rest:
        # int() would also take "_", spaces, signs and non-ASCII digits
        raise ValueError(f"unexpected character {rest[0]!r} in sequence")
    if not text:
        return 0
    n = len(text)
    return int(text.translate(_TO_DIGIT), 4) + ((1 << 2 * n) - 1) // 3


def unrank_sequence(n: int) -> str:
    """DNA sequence of a given shortlex rank; rank 0 is the empty sequence."""
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    if n == 0:
        return ""
    h = ((3 * n + 1).bit_length() - 1) // 2  # 4**h <= 3n + 1 < 4**(h+1)
    off = n - ((1 << 2 * h) - 1) // 3
    text = "".join(map(_QUAD.__getitem__, off.to_bytes((h + 3) // 4, "big")))
    return text[len(text) - h :]


def sequence_order(a: str, b: str) -> int:
    """Shortlex comparison of two DNA sequences: -1, 0 or 1.

    Agrees with comparing ranks as integers, without computing them.
    """
    return shortlex_compare(LexNumeral(4, _digits(a)), LexNumeral(4, _digits(b)))
