"""The block reader in ``genome.read_fasta`` against a plain line loop.

``reference_fasta`` is the reader as a line-at-a-time loop over a text
handle, with the same rules: blank lines and ";" comments are skipped, a
stripped line starting with ">" opens a record, any other line is
sequence data, checked base by base. The block reader must give the same
records, or the same exception, in the same order.
"""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from zeroless import FastaRecord, genome, rank_sequence, read_fasta


def reference_fasta(handle, policy="reject"):
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
                yield _reference_record(header, parts, header_line)
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
            bad = next((i for i, c in enumerate(chunk) if c not in "ACGT"), None)
            if bad is None:
                parts.append(chunk)
            elif policy == "skip":
                drop = True
            else:
                raise ValueError(
                    f"line {lineno}, column {bad + 1}: invalid base {chunk[bad]!r} in record {header!r}"
                )
    if header is not None and not drop:
        yield _reference_record(header, parts, header_line)


def _reference_record(header, parts, lineno):
    if not parts:
        raise ValueError(f"line {lineno}: record {header!r} has an empty sequence")
    return FastaRecord(header, "".join(parts), lineno)


def outcome(records):
    """The records a reader yields, then the exception it ends with, if any."""
    got = []
    try:
        for rec in records:
            got.append(rec)
    except ValueError as exc:
        got.append((type(exc), str(exc)))
    return got


def assert_same(text, policy):
    expected = outcome(reference_fasta(io.StringIO(text), policy))
    assert outcome(read_fasta(io.StringIO(text), policy)) == expected
    if text.isascii():
        # bytes are read with universal newlines, as a text-mode file is
        universal = outcome(reference_fasta(io.StringIO(text, newline=None), policy))
        assert outcome(read_fasta(io.BytesIO(text.encode()), policy)) == universal


bases = st.text(alphabet="ACGTacgt", min_size=1, max_size=30)
headers = st.builds(
    lambda lead, inner, name, trail: lead + ">" + inner + name + trail,
    st.sampled_from(["", "", "", " ", "\t"]),  # a header need not start its line
    st.sampled_from(["", "", " ", "\t "]),
    st.text(alphabet="abz019 _|é", max_size=8),
    st.sampled_from(["", "", " ", "\t", "\r"]),
)
lines = st.one_of(
    bases,
    bases,
    bases,
    st.builds(lambda a, bad, b: a + bad + b, bases, st.sampled_from("NnX- \t*0>;é"), bases),
    st.sampled_from(["", "  ", "\t", "; a comment", ";", " ; indented comment"]),
    headers,
)


@st.composite
def letter_records(draw):
    """A header, then lines of letters only, at least one of them outside
    ACGT: a record that the "skip" policy drops whole."""
    body = draw(st.lists(bases, min_size=1, max_size=4))
    i = draw(st.integers(0, len(body) - 1))
    j = draw(st.integers(0, len(body[i])))
    body[i] = body[i][:j] + draw(st.sampled_from("NnXU")) + body[i][j:]
    return [draw(headers), *body]


@st.composite
def fasta_texts(draw):
    # lines of any kind, and often a whole record of letters
    single = lines.map(lambda line: [line])
    groups = draw(st.lists(st.one_of(single, single, letter_records()), max_size=25))
    body = [line for group in groups for line in group]
    if draw(st.booleans()):  # often start at a header
        body.insert(0, draw(headers))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = newline.join(body)
    if body and draw(st.booleans()):
        text += newline
    return text


class TestParity:
    @settings(max_examples=400, deadline=None)
    @given(fasta_texts(), st.sampled_from(["reject", "skip"]))
    def test_generated_texts(self, text, policy):
        assert_same(text, policy)

    @settings(max_examples=100, deadline=None)
    @given(fasta_texts(), st.sampled_from(["reject", "skip"]), st.integers(1, 12))
    def test_generated_texts_small_blocks(self, text, policy, chunk):
        saved = genome._CHUNK
        genome._CHUNK = chunk
        try:
            assert_same(text, policy)
        finally:
            genome._CHUNK = saved

    SAMPLES = [
        ">r1 first\nACGT\nacgt\n>  r2  spaced\t\nGATTACA\n\n>r3\r\nAC\r\nGT\r\n",
        "; comment\n\n>a\nAC\n;inner\nGT\n  >b  \nTT\n>c\nA N\n>d\nCCCC",
        ">x\nACGT\n>y\n>z\nAA\n",
        ">good\nACGT\n>bad\nAC\nGN\n>tail\nTT\n",
        "AC\n>late\nGT\n",
        ">h\nA\rC\n>\nG\n\r\n>k\nT\n",
        # records of letters only, next to comments, "\r" and spaces
        ">a\nAC\n>n1\nACGN\nTT\n>b\nGG\n>n2\nxu\nX\n; c\n>c\r\nT \n>n3\nN\n",
        ">n1\nNN\n>n2\r\nAC\r\nGU\r\n>a\nA\n\n>n3\nn\n>n4 x\nAC\n GT\n",
        # whole records of lowercase bases, CRLF line ends and trailing blank lines
        ">a\nacgt\nAC\n\n\n>n\r\nacgn\r\n\r\n>b\r\nGA\r\ntt\r\n\r\n>c x\nacGT\n\n>d\nT\n\n",
    ]

    @pytest.mark.parametrize("text", SAMPLES)
    @pytest.mark.parametrize("policy", ["reject", "skip"])
    def test_every_block_size(self, monkeypatch, text, policy):
        # puts a block boundary inside headers, inside bodies, between
        # "\n" and ">", and inside "\r\n"
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(genome, "_CHUNK", size)
            assert_same(text, policy)


class TestSkippedRecords:
    def test_lines_after_dropped_records(self):
        text = ">a\nAC\n>n1\nACGN\nTT\n>b\nGG\n>n2\nxu\nX\n>c\nT\n>n3\nN\n"
        records = list(read_fasta(io.StringIO(text), "skip"))
        assert records == [FastaRecord("a", "AC", 1), FastaRecord("b", "GG", 6), FastaRecord("c", "T", 11)]

    @pytest.mark.parametrize(
        "text, message",
        [
            (">a\nAC\n>n\nACGN\nTT\n", "line 4, column 4: invalid base 'N' in record 'n'"),
            (">n\nACGT\nxu\n>a\nAC\n", "line 3, column 1: invalid base 'X' in record 'n'"),
        ],
    )
    def test_reject_names_the_base(self, text, message):
        records = outcome(read_fasta(io.StringIO(text)))
        assert records[-1] == (ValueError, message)

    @pytest.mark.parametrize(
        "text",
        [
            ">a\nAC\n;c\nGT\n",  # a comment
            ">a\r\nAC\r\nGT\r\n",  # "\r" line ends in a text handle
            ">a\nAC\n  \n>b\nGT\n",  # a blank line of spaces
            ">a\nAC\n >b\nGT\n",  # a header not at the start of its line
            ">a\nAC \n",  # a trailing space
            ">a\nAC1\n",  # a digit
        ],
    )
    def test_other_text_goes_line_by_line(self, monkeypatch, text):
        # with and without an invalid base in the first record
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(genome, "_CHUNK", size)
            for policy in ("reject", "skip"):
                assert_same(text, policy)
                assert_same(text.replace("AC", "AN", 1), policy)


class TestLongRecords:
    def test_record_many_blocks_long(self, monkeypatch):
        rng = random.Random(12)
        seq = "".join(rng.choices("ACGT", k=5000))
        lines = [seq[i : i + 61] for i in range(0, len(seq), 61)]
        text = ">long\n" + "\n".join(lines) + "\n>next\nGATT\n"
        for size in (1, 7, 64, 4096):
            monkeypatch.setattr(genome, "_CHUNK", size)
            assert list(read_fasta(io.StringIO(text))) == [
                FastaRecord("long", seq, 1),
                FastaRecord("next", "GATT", len(lines) + 2),
            ]

    def test_record_longer_than_default_blocks(self, tmp_path):
        rng = random.Random(13)
        seq = "".join(rng.choices("ACGT", k=5 * genome._CHUNK))
        path = tmp_path / "long.fa"
        path.write_text(">a\nC\n>long\n" + "\n".join(seq[i : i + 80] for i in range(0, len(seq), 80)) + "\n")
        a, rec = read_fasta(path)
        assert (a, rec.id, rec.line) == (FastaRecord("a", "C", 1), "long", 3)
        assert rec.sequence == seq
        assert rank_sequence(rec.sequence) == int(seq.translate(str.maketrans("ACGT", "0123")), 4) + (
            4 ** len(seq) - 1
        ) // 3


class TestSources:
    def test_path_like(self, tmp_path):
        path = tmp_path / "t.fa"
        path.write_text(">s\nGATT\n")
        assert list(read_fasta(path)) == [FastaRecord("s", "GATT", 1)]
        assert list(read_fasta(bytes(path))) == [FastaRecord("s", "GATT", 1)]

    def test_binary_handle_reads_like_a_file(self, tmp_path):
        data = b">s\r\nGA\rTT\r\n>t\nCAT\n"
        path = tmp_path / "t.fa"
        path.write_bytes(data)
        expected = [FastaRecord("s", "GATT", 1), FastaRecord("t", "CAT", 4)]
        assert list(read_fasta(path)) == list(read_fasta(io.BytesIO(data))) == expected

    def test_non_ascii_byte_is_an_error_from_bytes(self, tmp_path):
        data = ">sé\nGATT\n".encode()
        path = tmp_path / "u.fa"
        path.write_bytes(data)
        for source in (path, io.BytesIO(data)):
            with pytest.raises(UnicodeDecodeError, match="'ascii' codec"):
                list(read_fasta(source))
        # a text handle is taken as it is
        assert list(read_fasta(io.StringIO(data.decode()))) == [FastaRecord("sé", "GATT", 1)]

    @pytest.mark.parametrize(
        "data, ids, line, col",
        [
            (b">a\nAC\n>b\r\nGT\r\n>c\xe9\nA\n", ["a", "b"], 5, 3),  # in a header, after CRLF
            (b">a\nAC\nG\xe9T\n>b\nA\n", [], 3, 2),  # in a record, which is then incomplete
            (b">a\n\nAC\n>b\nG\n\xe9", ["a"], 6, 1),  # after a record read line by line
            (b">a\nAC\n  >b\nGT\n>c\xe9", ["a", "b"], 5, 3),  # after an indented header
            (b">a\rAC\r\xe9", [], 3, 1),  # after lone CRs
            (b">a\nAC\n>c\xe9\nA\n", ["a"], 3, 3),  # in a header, no id made of it
        ],
    )
    def test_non_ascii_byte_names_its_line(self, monkeypatch, data, ids, line, col):
        # the records before the byte's own come first, at every block size;
        # a text handle that escapes the byte (PEP 383) reads as the bytes do
        for size in range(1, len(data) + 1):
            monkeypatch.setattr(genome, "_CHUNK", size)
            escaped = io.TextIOWrapper(io.BytesIO(data), "ascii", "surrogateescape")
            for source in (io.BytesIO(data), escaped):
                *records, (kind, message) = outcome(read_fasta(source))
                assert [rec.id for rec in records] == ids
                assert kind is UnicodeDecodeError
                assert message.endswith(f": line {line}, column {col}: FASTA text must be ASCII")

    @pytest.mark.parametrize(
        "data, policy, ids, kind, message",
        [
            # an invalid base on a line before the byte's line
            (b">a\nAN\nG\xe9", "reject", [], ValueError, "line 2, column 2: invalid base 'N' in record 'a'"),
            (b">x\nAC\n>a\nAN\nG\xe9", "reject", ["x"], ValueError, "line 4, column 2: invalid base 'N' in record 'a'"),
            # the record is dropped, and then the byte is the error
            (b">a\nAN\nG\xe9", "skip", [], UnicodeDecodeError, "line 3, column 2: FASTA text must be ASCII"),
            # sequence data before the first header, under both policies
            (b"AC\n\xe9", "reject", [], ValueError, "line 1: sequence data before the first '>' header"),
            (b"AC\n\xe9", "skip", [], ValueError, "line 1: sequence data before the first '>' header"),
            # on the byte's own line, before the byte
            (b">a\nAN\xe9", "reject", [], ValueError, "line 2, column 2: invalid base 'N' in record 'a'"),
            # the header on the byte's line closes an empty record
            (b">x\n>b\xe9", "reject", [], ValueError, "line 1: record 'x' has an empty sequence"),
            # an invalid base after the byte on its line comes after it
            (b">a\nA\xe9N\n", "reject", [], UnicodeDecodeError, "line 2, column 2: FASTA text must be ASCII"),
            # a UTF-8 character is named by its first byte
            (
                ">a\nAé\n".encode(),
                "reject",
                [],
                UnicodeDecodeError,
                "byte 0xc3 in position 1: line 2, column 2: FASTA text must be ASCII",
            ),
        ],
    )
    def test_errors_before_a_non_ascii_byte_come_first(
        self, monkeypatch, tmp_path, data, policy, ids, kind, message
    ):
        path = tmp_path / "bad.fa"
        path.write_bytes(data)
        for size in range(1, len(data) + 1):
            monkeypatch.setattr(genome, "_CHUNK", size)
            for source in (path, io.BytesIO(data)):
                *records, (raised, text) = outcome(read_fasta(source, policy))
                assert [rec.id for rec in records] == ids
                assert raised is kind
                assert text.endswith(message)

    @settings(max_examples=300, deadline=None)
    @given(fasta_texts(), st.sampled_from(["reject", "skip"]), st.integers(0, 10**6), st.integers(1, 12))
    def test_non_ascii_byte_keeps_file_order(self, text, policy, where, chunk):
        data = text.replace("é", "e").encode()
        cut = where % (len(data) + 1)
        prefix = data[:cut].decode().replace("\r\n", "\n").replace("\r", "\n")
        # the reference over the text before the byte, until its text ends:
        # the record the byte is in is not complete, so nothing after counts
        ended = []

        def lines():
            yield from io.StringIO(prefix)
            ended.append(True)

        expected = []
        try:
            for rec in reference_fasta(lines(), policy):
                if ended:
                    break
                expected.append(rec)
        except ValueError as exc:
            if not ended:
                expected.append((ValueError, str(exc)))
        if not expected or isinstance(expected[-1], FastaRecord):
            last = prefix[prefix.rfind("\n") + 1 :]
            col = len(last) + 1
            lineno = prefix.count("\n") + 1
            reason = f"line {lineno}, column {col}: FASTA text must be ASCII"
            expected.append((UnicodeDecodeError, reason))
        saved = genome._CHUNK
        genome._CHUNK = chunk
        try:
            got = outcome(read_fasta(io.BytesIO(data[:cut] + b"\xe9" + data[cut:]), policy))
        finally:
            genome._CHUNK = saved
        if got[-1][0] is UnicodeDecodeError:  # the reason follows the codec's own words
            got[-1] = (UnicodeDecodeError, got[-1][1].split(": ", 1)[1])
        assert got == expected
