import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from zeroless import (
    FastaRecord,
    LexNumeral,
    omega,
    rank_sequence,
    read_fasta,
    sequence_order,
    sigma,
    unrank_sequence,
)
from zeroless.core import sigma_oracle

sequences = st.text(alphabet="ACGT", max_size=40)


def divmod_unrank(n):
    """The sequence of rank n, one bijective base-4 digit per divmod."""
    bases = []
    while n:
        n, d = divmod(n - 1, 4)
        bases.append("ACGT"[d])
    return "".join(reversed(bases))


@st.composite
def ranks(draw, max_length):
    """A rank whose sequence has at most ``max_length`` bases."""
    h = draw(st.integers(0, max_length))
    first = (4**h - 1) // 3
    return first + draw(st.integers(0, 4**h - 1))


class TestRankSequence:
    def test_known_ranks(self):
        assert rank_sequence("A") == 1
        assert rank_sequence("TT") == 20
        assert rank_sequence("CAT") == 40
        assert rank_sequence("GATT") == 228
        assert rank_sequence("") == 0

    def test_lowercase_accepted(self):
        assert rank_sequence("cat") == 40

    def test_invalid_character(self):
        with pytest.raises(ValueError, match="'N'"):
            rank_sequence("CAN")

    # int(text, 4) alone would accept "_", whitespace, signs and any
    # Unicode decimal digit ("\u0663" is ARABIC-INDIC DIGIT THREE)
    @pytest.mark.parametrize("text", ["A_C", " AC", "+A", "A C", "\u0663", "N"])
    def test_rejects_what_int_accepts(self, text):
        with pytest.raises(ValueError, match="unexpected character"):
            rank_sequence(text)

    def test_long_sequence_against_omega(self):
        rng = random.Random(10)
        seq = "".join(rng.choice("ACGTacgt") for _ in range(10**4))
        digits = tuple("ACGT".index(c) + 1 for c in seq.upper())
        n = rank_sequence(seq)
        assert n == omega(LexNumeral(4, digits))
        assert unrank_sequence(n) == seq.upper()
        assert sigma_oracle(4, n).digits == digits


class TestUnrankSequence:
    def test_known_sequences(self):
        assert unrank_sequence(0) == ""
        assert unrank_sequence(1) == "A"
        assert unrank_sequence(21) == "AAA"
        assert unrank_sequence(40) == "CAT"
        assert unrank_sequence(228) == "GATT"

    def test_negative_rank(self):
        with pytest.raises(ValueError):
            unrank_sequence(-1)

    @pytest.mark.parametrize("rank", [2.0, "5", None, 1.5])
    def test_non_integer_rank(self, rank):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            unrank_sequence(rank)

    def test_integer_like_ranks(self):
        class Rank(int):
            pass

        class Index:
            def __index__(self):
                return 40

        assert unrank_sequence(True) == "A"
        assert unrank_sequence(False) == ""
        assert unrank_sequence(Rank(228)) == "GATT"
        assert unrank_sequence(Index()) == "CAT"

    # every length mod 4 and odd lengths, whose hex text has a pad digit
    @pytest.mark.parametrize("h", [*range(1, 65), *range(9997, 10001)])
    def test_first_last_and_random_rank_of_each_length(self, h):
        first = (4**h - 1) // 3
        for n in (first, 4 * first, random.Random(h).randint(first, 4 * first)):
            seq = unrank_sequence(n)
            assert seq == divmod_unrank(n)
            assert len(seq) == h

    @settings(max_examples=60, deadline=None)
    @given(ranks(5000))
    def test_agrees_with_divmod(self, n):
        assert unrank_sequence(n) == divmod_unrank(n)

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 9999, 10**4])
    def test_length_boundaries(self, h):
        first = (4**h - 1) // 3  # AAA...A
        for n, seq in ((first, "A" * h), (first - 1, "T" * (h - 1)), (4 * first, "T" * h)):
            assert unrank_sequence(n) == seq
            assert rank_sequence(seq) == n

    def test_long_rank_against_oracle(self):
        n = random.Random(11).randrange(4**10**4)
        expected = "".join("ACGT"[d - 1] for d in sigma_oracle(4, n).digits)
        assert unrank_sequence(n) == expected

    def test_first_ranks_sorted_shortlex(self):
        seqs = [unrank_sequence(n) for n in range(1, 85)]
        assert seqs[:8] == ["A", "C", "G", "T", "AA", "AC", "AG", "AT"]
        assert sorted(seqs, key=lambda s: (len(s), s)) == seqs

    @given(sequences)
    def test_round_trip(self, seq):
        assert unrank_sequence(rank_sequence(seq)) == seq

    @settings(max_examples=60, deadline=None)
    @given(ranks(5000))
    def test_agrees_with_core(self, n):
        """Genome and core write a rank's base-4 digits with one writer."""
        a = sigma(4, n)
        seq = "".join("ACGT"[d - 1] for d in a.digits)
        assert unrank_sequence(n) == seq
        assert rank_sequence(seq) == omega(a) == n


class TestSequenceOrder:
    def test_known_comparisons(self):
        assert sequence_order("CAT", "GATT") == -1
        assert sequence_order("ACG", "ACG") == 0
        assert sequence_order("T", "AA") == -1
        assert sequence_order("GATT", "CAT") == 1

    def test_case_and_invalid_characters(self):
        assert sequence_order("gatt", "GATT") == 0
        assert sequence_order("t", "AA") == -1
        with pytest.raises(ValueError, match="unexpected character 'N'"):
            sequence_order("ACGT", "ANT")

    @given(sequences, sequences)
    def test_agrees_with_ranks(self, a, b):
        ra, rb = rank_sequence(a), rank_sequence(b)
        assert sequence_order(a, b) == (ra > rb) - (ra < rb)


class TestReadFasta:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "one.fa"
        path.write_text(">seq1\nACGT\n")
        assert list(read_fasta(str(path))) == [FastaRecord("seq1", "ACGT", 1)]

    def test_handle_source(self):
        records = list(read_fasta(io.StringIO(">s\nCA\nT\n")))
        assert records == [FastaRecord("s", "CAT", 1)]

    def test_wrapping_is_invisible(self):
        narrow = io.StringIO(">s\nGA\nTT\n")
        wide = io.StringIO(">s\nGATT\n")
        (a,) = read_fasta(narrow)
        (b,) = read_fasta(wide)
        assert a == b
        assert rank_sequence(a.sequence) == 228

    def test_multiple_records_and_comments(self):
        text = "; produced by hand\n>first one\nACG\n\n>second\nt\nt\n"
        records = list(read_fasta(io.StringIO(text)))
        assert [r.id for r in records] == ["first one", "second"]
        assert [r.sequence for r in records] == ["ACG", "TT"]
        assert [r.line for r in records] == [2, 5]

    def test_reject_names_line_and_column(self):
        source = io.StringIO(">s\nACGT\nAXGT\n")
        with pytest.raises(ValueError, match=r"line 3, column 2.*'X'.*'s'"):
            list(read_fasta(source))

    def test_reject_column_on_lowercase_line(self):
        source = io.StringIO(">s\nacgt\nacgxtt\n")
        with pytest.raises(ValueError, match=r"^line 3, column 4: invalid base 'X' in record 's'$"):
            list(read_fasta(source))

    def test_skip_drops_whole_record(self):
        text = ">good\nACGT\n>bad\nAC\nGN\n>tail\nTT\n"
        records = list(read_fasta(io.StringIO(text), policy="skip"))
        assert [r.id for r in records] == ["good", "tail"]

    def test_skip_keeps_clean_records_only(self):
        text = ">bad\nNNNN\n"
        assert list(read_fasta(io.StringIO(text), policy="skip")) == []

    def test_data_before_header(self):
        with pytest.raises(ValueError, match="line 1"):
            list(read_fasta(io.StringIO("ACGT\n")))

    def test_empty_record(self):
        with pytest.raises(ValueError, match="'a'.*empty"):
            list(read_fasta(io.StringIO(">a\n>b\nACGT\n")))

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            list(read_fasta(io.StringIO(">s\nA\n"), policy="ignore"))

    def test_is_lazy_per_record(self):
        source = io.StringIO(">one\nA\n>two\nBAD!\n")
        stream = read_fasta(source)
        assert next(stream).id == "one"
        with pytest.raises(ValueError):
            next(stream)
