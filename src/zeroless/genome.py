"""DNA sequences as base-4 zeroless numerals.

A sequence over A, C, G, T is read as a digit string with A=1, C=2,
G=3, T=4; the empty sequence is zero. Rank and unrank are then the
shortlex maps in base 4, and comparing sequences shortlex (length
first, then alphabetically) is exactly comparing their ranks. Both
directions are linear C-level passes, each one translate between ACGT
and the with-zero digits 0123 of the rank's offset from minlex: rank
reads those with ``int(text, 4)``, and unrank has ``radix.text`` write
them, as ``core.sigma`` does for a base-4 numeral.

``read_fasta`` streams its source in 64 KiB blocks and cuts them into
whole records, so memory holds one block plus the largest record. A
record that is a header line and then lines of bases only, or under
policy "skip" of ASCII letters only, is kept or dropped whole in a few
C-level string calls (upcased only when it holds lowercase bases);
any other text follows the per-line rules, one part at a time. Every
part after the first starts at a header and runs to the next, so no
record spans two parts, and a part's open record ends with it. A record
is a tuple-backed ``FastaRecord``, built with one ``tuple.__new__``. Files
and binary handles such as stdin's are decoded the same way: as ASCII,
with universal newlines, and a non-ASCII byte escaped (PEP 383). An
escaped byte, in a header too, is one more per-line rule: an error that
names its line and column, raised after the records before its own and
after any error in the text before it.
"""

import io
import operator
import os
from collections import namedtuple

from zeroless import radix
from zeroless.core import _echo_int

BASES = "ACGT"
_BASE_BYTES = BASES.encode()
_LOWER_BYTES = BASES.lower().encode()
# each byte to a base-4 digit, A or a to "0" up to T or t to "3", and any
# other byte to ".", which int() refuses (it would take "_", spaces, signs)
_TO_DIGIT = bytes(
    ord("0123"[BASES.index(chr(b).upper())]) if chr(b) in "ACGTacgt" else ord(".") for b in range(256)
)
_CHUNK = 1 << 16  # characters read from a FASTA source at a time
_TO_BASE = bytes.maketrans(b"0123", _BASE_BYTES)
_POLICIES = ("reject", "skip")


class FastaRecord(namedtuple("FastaRecord", ("id", "sequence", "line"))):
    """One FASTA record; ``line`` is where its header sits in the source.

    A tuple underneath, so that the reader makes one with a single
    ``tuple.__new__``, and indexable and iterable as one; like the other
    value types it equals only records, never a plain tuple of the same
    fields, and has no order.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # False, not NotImplemented, for another tuple: tuple's own
        # comparison would then answer field by field
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__
    __hash__ = tuple.__hash__

    def __lt__(self, other):
        # raised, not NotImplemented: tuple's own order would then answer
        raise TypeError(f"{self.__class__.__qualname__} values have no order")

    __le__ = __gt__ = __ge__ = __lt__


def read_fasta(source, policy: str = "reject"):
    """Yield FastaRecord items from a path or a handle, in file order.

    A path (``str``, ``bytes`` or ``os.PathLike``) or a binary handle is
    read as ASCII with universal newlines, as a text-mode file is. A
    non-ASCII byte is a ``UnicodeDecodeError`` naming its line and column
    (">" counted), raised after the text before it is read under the rules
    below and the source is read to the end of the byte's record. A text
    handle is read as it is: only the characters U+DC80 to U+DCFF, which
    the "surrogateescape" handler makes of bytes, are errors there.

    Lowercase bases are upcased. A record containing letters outside
    ACGT either raises (policy "reject", the default) or is dropped as a
    whole (policy "skip"). Records with no sequence lines at all are an
    error under both policies, as is sequence data before any header.
    Blank lines and lines starting with ";" are ignored.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose one of {_POLICIES}")
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as handle:
            yield from _parse_fasta(_blocks(handle), policy)
    else:
        yield from _parse_fasta(_blocks(source), policy)


def _blocks(handle):
    """The handle's text, ``_CHUNK`` at a time; bytes are decoded as ASCII
    with universal newlines, a byte that is not ASCII escaped to a
    character in U+DC80..U+DCFF (PEP 383) for the per-line rules to
    report."""
    read = handle.read
    block = read(_CHUNK)
    if isinstance(block, str):
        while block:
            yield block
            block = read(_CHUNK)
        return
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    while block:
        yield newlines.decode(block.decode("ascii", "surrogateescape"))
        block = read(_CHUNK)
    yield newlines.decode("", final=True)


def _parts(blocks):
    """Split the text at every line that starts with ">".

    The first part is the text before the first such line, preceded by
    one blank line (numbered 0); each later part is a header line
    without its ">", followed by the record's lines, without the final
    newline. A block is cut after its last record boundary and the rest
    carried over, so a record many blocks long is joined only once.
    """
    held = ["\n"]
    for block in blocks:
        cut = block.rfind("\n>")
        if cut < 0:
            held.append(block)
            continue
        held.append(block[:cut])
        parts = "".join(held).split("\n>")
        held = [block[cut + 2 :]]
        yield from parts
    yield from "".join(held).split("\n>")


def _escaped(line):
    """The column of the first byte that ``_blocks`` escaped in ``line``,
    or 0."""
    return next((col for col, c in enumerate(line, 1) if "\udc80" <= c <= "\udcff"), 0)


def _parse_fasta(blocks, policy):
    new = tuple.__new__
    lineno = 0  # of the part's first line
    for part in _parts(blocks):
        if lineno:
            # the common record: a header, then lines of bases only
            head, _, body = part.partition("\n")
            seq = body.replace("\n", "")
            if seq and part.isascii():
                rest = seq.encode().translate(None, _BASE_BYTES)
                if rest:  # lowercase bases, or anything else that is no base
                    # only what is left, so soft-masked text pays no second pass over all of it
                    rest = rest.translate(None, _LOWER_BYTES)
                    if not rest:
                        seq = seq.upper()
                # bases only, or under "skip" letters only, which the
                # per-line rules would drop
                if not rest or policy == "skip" and rest.isalpha():
                    if not rest:
                        yield new(FastaRecord, (head.strip(), seq, lineno))
                    # the part's lines: the header, and the body's newlines plus one
                    lineno += len(body) - len(seq) + 2
                    continue
            part = ">" + part
        lineno = yield from _by_line(part, lineno, policy)


def _by_line(part, lineno, policy):
    """The records of one part, line by line: text before the first header,
    comments, "\\r", spaces, headers not at the start of a line, invalid
    bases, empty records, non-ASCII bytes. The part's first line is number
    ``lineno``; returns the number after its last."""
    header = None  # the record open
    header_line = 0
    parts = []
    drop = False
    for raw in part.split("\n"):
        # the column of a byte that is not ASCII, if any; the text
        # before it goes under the rules first
        bad = 0 if raw.isascii() else _escaped(raw)
        line = (raw[: bad - 1] if bad else raw).strip()
        if not line or line[0] == ";":
            pass
        elif line[0] == ">":
            if header is not None and not drop:
                yield _record(header, parts, header_line)
            header = line[1:].strip()
            header_line = lineno
            parts = []
            drop = False
        elif header is None:
            raise ValueError(f"line {lineno}: sequence data before the first '>' header")
        elif not drop:
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
        if bad:
            data = raw[:bad].encode("utf-8", "surrogateescape")
            reason = f"line {lineno}, column {bad}: FASTA text must be ASCII"
            raise UnicodeDecodeError("ascii", data, len(data) - 1, len(data), reason)
        lineno += 1
    if header is not None and not drop:
        yield _record(header, parts, header_line)
    return lineno


def _record(header, parts, lineno):
    if not parts:
        raise ValueError(f"line {lineno}: record {header!r} has an empty sequence")
    return FastaRecord(header, "".join(parts), lineno)


def rank_sequence(sequence: str) -> int:
    """Shortlex rank of a DNA sequence; the empty sequence ranks 0.

    Read with A, C, G, T as 0..3, the text is the base-4 offset of its
    rank from minlex(4, n) = (4**n - 1) // 3, the rank of A*n, which is
    4**n // 3 as 4**n leaves 1 modulo 3; ``int`` reads power-of-two
    bases in linear time.
    """
    if not sequence:
        return 0
    if sequence.isascii():
        try:
            return int(sequence.encode().translate(_TO_DIGIT), 4) + (1 << 2 * len(sequence)) // 3
        except ValueError:  # a "." from a byte that is not a base
            pass
    rest = sequence.upper().lstrip(BASES)
    raise ValueError(f"unexpected character {rest[0]!r} in sequence")


def unrank_sequence(n: int) -> str:
    """DNA sequence of a given shortlex rank; rank 0 is the empty sequence.

    A rank that is not an integer (``operator.index``) is a TypeError.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {_echo_int(n)}")
    if n == 0:
        return ""
    h = ((3 * n + 1).bit_length() - 1) // 2  # 4**h <= 3n + 1 < 4**(h+1)
    return radix.text(n - ((1 << 2 * h) - 1) // 3, 4, h).translate(_TO_BASE).decode()


def sequence_order(a: str, b: str) -> int:
    """Shortlex comparison of two DNA sequences: -1, 0 or 1.

    Agrees with comparing ranks as integers, without computing them:
    over ACGT, shortlex order is the order of (length, upcased text).
    """
    keys = []
    for sequence in (a, b):
        upper = sequence.upper()
        rest = upper.lstrip(BASES)
        if rest:
            raise ValueError(f"unexpected character {rest[0]!r} in sequence")
        keys.append((len(upper), upper))
    return (keys[0] > keys[1]) - (keys[0] < keys[1])
