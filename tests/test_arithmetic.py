import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from zeroless import _backend, arithmetic, radix
from zeroless import (
    LexNumeral,
    ZeroNumeral,
    add,
    build_addition_table,
    build_multiplication_table,
    lattice_multiply,
    multiply,
    multiply_by_base,
    omega,
    omega_zero,
    parse_lex,
    scale,
    sigma,
)
from zeroless.arithmetic import LatticeTrace
from zeroless.core import default_alphabet


class _Index:
    """An integer-like object that is no int, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def dx(text):
    """Parse a base-10 numeral over the 1..9, X alphabet."""
    return parse_lex(text, alphabet=default_alphabet(10))


@st.composite
def numeral(draw, min_base=1, max_base=60, max_len=12):
    k = draw(st.integers(min_base, max_base))
    digits = draw(st.lists(st.integers(1, k), max_size=max_len))
    return LexNumeral(k, tuple(digits))


@st.composite
def numeral_pair(draw, min_base=1, max_base=60, max_len=12):
    k = draw(st.integers(min_base, max_base))
    digits = st.lists(st.integers(1, k), max_size=max_len)
    a = LexNumeral(k, tuple(draw(digits)))
    b = LexNumeral(k, tuple(draw(digits)))
    return a, b


class TestAdd:
    def test_dna_sum(self, acgt):
        a = parse_lex("CAT", alphabet=acgt)
        b = parse_lex("GATT", alphabet=acgt)
        total = add(a, b)
        assert total == parse_lex("GTCT", alphabet=acgt)
        assert omega(total) == 268

    def test_zero_is_identity(self):
        x = dx("423")
        zero = LexNumeral.zero(10)
        assert add(x, zero) == x
        assert add(zero, x) == x
        assert add(zero, zero) == zero

    def test_binary_rollover(self):
        two = parse_lex("[2]", base=2)
        assert add(two, two).digits == (1, 2)

    def test_unary_concatenates(self):
        a = LexNumeral(1, (1, 1))
        b = LexNumeral(1, (1, 1, 1))
        assert add(a, b).digits == (1,) * 5

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            add(LexNumeral(2, (1,)), LexNumeral(3, (1,)))

    @given(numeral_pair())
    def test_value_morphism(self, pair):
        a, b = pair
        assert omega(add(a, b)) == omega(a) + omega(b)

    @given(numeral_pair(min_base=2))
    def test_carries_stay_small(self, pair):
        a, b = pair
        k = a.base
        ra, rb = a.digits[::-1], b.digits[::-1]
        carry = 0
        for i in range(max(len(ra), len(rb))):
            s = (ra[i] if i < len(ra) else 0) + (rb[i] if i < len(rb) else 0) + carry
            carry = (s - 1) // k
            assert 0 <= carry <= 2

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_single_digits_match_table(self, k):
        table = build_addition_table(k)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                got = add(LexNumeral(k, (a,)), LexNumeral(k, (b,)))
                assert got.digits == table.entry(a, b)


class TestScale:
    def test_known_product(self, decimal_x):
        x = parse_lex("37", alphabet=decimal_x)
        assert scale(x, 10) == parse_lex("36X", alphabet=decimal_x)

    def test_digit_range(self):
        x = dx("37")
        with pytest.raises(ValueError):
            scale(x, 0)
        with pytest.raises(ValueError):
            scale(x, 11)

    def test_zero_operand(self):
        assert scale(LexNumeral.zero(7), 3).is_zero

    @given(numeral(), st.data())
    def test_value_morphism(self, x, data):
        d = data.draw(st.integers(1, x.base))
        assert omega(scale(x, d)) == omega(x) * d


class TestMultiplyByBase:
    def test_known_shift(self, decimal_x):
        x = parse_lex("423", alphabet=decimal_x)
        assert multiply_by_base(x) == parse_lex("422X", alphabet=decimal_x)

    def test_zero_stays_zero(self):
        assert multiply_by_base(LexNumeral.zero(10)).is_zero

    def test_single_unit(self):
        assert multiply_by_base(LexNumeral(4, (1,))).digits == (4,)

    @given(numeral())
    def test_matches_base_digit_product(self, x):
        k = x.base
        assert multiply_by_base(x) == multiply(x, LexNumeral(k, (k,)))
        assert omega(multiply_by_base(x)) == omega(x) * k


class TestMultiply:
    def test_known_products(self, decimal_x):
        x = parse_lex("37", alphabet=decimal_x)
        y = parse_lex("3X", alphabet=decimal_x)
        assert multiply(x, y) == parse_lex("147X", alphabet=decimal_x)
        a = parse_lex("423", alphabet=decimal_x)
        b = parse_lex("8X", alphabet=decimal_x)
        assert multiply(a, b) == parse_lex("37X6X", alphabet=decimal_x)

    def test_zero_annihilates(self):
        x = dx("423")
        zero = LexNumeral.zero(10)
        assert multiply(x, zero).is_zero
        assert multiply(zero, x).is_zero

    def test_unit_is_identity(self):
        x = dx("423")
        assert multiply(x, LexNumeral(10, (1,))) == x

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            multiply(LexNumeral(2, (1,)), LexNumeral(3, (1,)))

    @given(numeral_pair(max_len=8))
    def test_value_morphism(self, pair):
        a, b = pair
        assert omega(multiply(a, b)) == omega(a) * omega(b)

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_single_digits_match_table(self, k):
        table = build_multiplication_table(k)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                got = multiply(LexNumeral(k, (a,)), LexNumeral(k, (b,)))
                assert got.digits == table.entry(a, b)


def schoolbook(a, b):
    """Reference product: the digit-string schoolbook sweep."""
    return tuple(_backend.multiply_digits(a.digits, b.digits, a.base))


class TestMultiplyMatchesSchoolbook:
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 60])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_operands(self, k, data):
        digits = st.lists(st.integers(1, k), max_size=12 if k == 1 else 80)
        a = LexNumeral(k, tuple(data.draw(digits)))
        b = LexNumeral(k, tuple(data.draw(digits)))
        assert multiply(a, b).digits == schoolbook(a, b)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 60])
    @pytest.mark.parametrize("lengths", [(65, 200), (130, 130), (1, 300)])
    def test_long_operands(self, k, lengths):
        if k == 1:
            lengths = tuple(min(n, 70) for n in lengths)  # unary products are m*n digits long
        rng = random.Random(f"{k}:{lengths}")
        a, b = (LexNumeral(k, tuple(rng.choices(range(1, k + 1), k=n))) for n in lengths)
        assert max(lengths) > radix.CUTOFF
        if k > 1:  # sigma's divide-and-conquer branch, not its digit peel
            assert (omega(a) * omega(b)).bit_length() > radix.PEEL_BITS
        assert multiply(a, b).digits == schoolbook(a, b)


def generator_sums(gens, limit):
    """Values 1..limit that are sums of generators, by breadth-first search."""
    reached, frontier = set(), {0}
    while frontier:
        frontier = {v + g for v in frontier for g in gens if v + g <= limit} - reached
        reached |= frontier
    return reached


class TestLatticeMultiply:
    def test_known_product_with_generators(self, decimal_x):
        x = parse_lex("427", alphabet=decimal_x)
        y = parse_lex("35", alphabet=decimal_x)
        got = lattice_multiply(x, y, generators={2, 5})
        assert got.digits == (1, 4, 9, 4, 5)
        assert omega(got) == 14945

    def test_known_product_base60(self):
        x = parse_lex("[7][7]", base=60)
        y = parse_lex("[35]", base=60)
        got = lattice_multiply(x, y, generators={5, 10})
        assert got.digits == (4, 9, 5)
        assert omega(got) == 14945

    def test_unit_with_minimal_generators(self):
        x = dx("427")
        one = LexNumeral(10, (1,))
        assert lattice_multiply(x, one, generators={1}) == x

    def test_unrestricted_matches_multiply(self):
        x = dx("4231")
        y = dx("789")
        assert lattice_multiply(x, y) == multiply(x, y)

    def test_empty_generator_set(self):
        x = dx("42")
        with pytest.raises(ValueError):
            lattice_multiply(x, x, generators=set())

    def test_undecomposable_cell(self):
        three = LexNumeral(10, (3,))
        with pytest.raises(ValueError, match="cell"):
            lattice_multiply(three, three, generators={2})

    def test_generator_range(self):
        x = dx("42")
        with pytest.raises(ValueError):
            lattice_multiply(x, x, generators={0, 1})
        with pytest.raises(ValueError):
            lattice_multiply(x, x, generators={11})

    def test_needs_positional_base(self):
        x = LexNumeral(1, (1, 1))
        with pytest.raises(ValueError):
            lattice_multiply(x, x)

    def test_zero_operand(self):
        x = dx("42")
        zero = LexNumeral.zero(10)
        assert lattice_multiply(x, zero).is_zero
        assert lattice_multiply(zero, x).is_zero

    @given(numeral_pair(min_base=2, max_len=6), st.data())
    def test_agrees_with_multiply(self, pair, data):
        a, b = pair
        gens = data.draw(
            st.one_of(
                st.none(),
                st.sets(st.integers(1, a.base), max_size=4).map(lambda s: s | {1}),
            )
        )
        assert lattice_multiply(a, b, generators=gens) == multiply(a, b)

    @given(numeral_pair(min_base=2, max_base=16, max_len=5), st.data())
    def test_generators_without_one(self, pair, data):
        a, b = pair
        gens = data.draw(st.sets(st.integers(2, a.base), min_size=1, max_size=4))
        sums = generator_sums(gens, a.base)
        # a cell goes through when a digit is a generator or a sum of them
        splittable = all(
            x in gens or y in gens or x in sums or y in sums for x in a.digits for y in b.digits
        )
        if splittable:
            assert lattice_multiply(a, b, generators=gens) == multiply(a, b)
        else:
            with pytest.raises(ValueError, match="cell"):
                lattice_multiply(a, b, generators=gens)

    # the untraced call takes the product by rank; the traced twins below
    # keep the lattice itself checked on the same inputs

    @given(numeral_pair(min_base=2, max_len=6), st.data())
    def test_traced_agrees_with_multiply(self, pair, data):
        a, b = pair
        gens = data.draw(
            st.one_of(
                st.none(),
                st.sets(st.integers(1, a.base), max_size=4).map(lambda s: s | {1}),
            )
        )
        assert lattice_multiply(a, b, generators=gens, trace=True)[0] == multiply(a, b)

    @given(numeral_pair(min_base=2, max_base=16, max_len=5), st.data())
    def test_traced_generators_without_one(self, pair, data):
        a, b = pair
        gens = data.draw(st.sets(st.integers(2, a.base), min_size=1, max_size=4))
        sums = generator_sums(gens, a.base)
        splittable = all(
            x in gens or y in gens or x in sums or y in sums for x in a.digits for y in b.digits
        )
        if splittable:
            assert lattice_multiply(a, b, generators=gens, trace=True)[0] == multiply(a, b)
        else:
            with pytest.raises(ValueError, match="cell"):
                lattice_multiply(a, b, generators=gens, trace=True)

    @settings(max_examples=300)
    @given(numeral_pair(min_base=2, max_base=16, max_len=5), st.data())
    def test_traced_and_untraced_reject_alike(self, pair, data):
        a, b = pair
        gens = data.draw(st.sets(st.integers(2, a.base), min_size=1, max_size=3))
        errors = []
        for trace in (False, True):
            try:
                lattice_multiply(a, b, generators=gens, trace=trace)
            except ValueError as exc:
                errors.append(str(exc))
        assert len(errors) in (0, 2)
        assert len(set(errors)) <= 1

    @pytest.mark.parametrize(
        "x, y, gens, cell",
        [
            ("3", "3", {2}, "3 x 3"),
            ("23", "73", {2}, "3 x 7"),  # the first bad digit of each, row-major
            ("4733", "253", {2, 4}, "7 x 5"),
            ("[7][1]", "[7]", {5, 10}, "7 x 7"),
        ],
    )
    def test_undecomposable_cell_message(self, x, y, gens, cell):
        if x.startswith("["):
            a, b = parse_lex(x, base=60), parse_lex(y, base=60)
        else:
            a, b = dx(x), dx(y)
        message = f"cell {cell}: neither digit decomposes into generators {sorted(gens)}"
        for trace in (False, True):
            with pytest.raises(ValueError) as info:
                lattice_multiply(a, b, generators=gens, trace=trace)
            assert str(info.value) == message

    def test_huge_digit_is_checked_in_bounded_time(self):
        k = 2**40
        a = LexNumeral(k, (k - 3,))
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            lattice_multiply(a, a, generators={k, 6})
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"cell {k - 3} x {k - 3}: neither digit decomposes into generators [6, {k}]"
        b = LexNumeral(k, (k - 4, 12, k))  # k - 4 is a multiple of 6, and k a generator
        assert lattice_multiply(b, a, generators=[6, k]) == multiply(b, a)

    @pytest.mark.parametrize("gens", [[2, 4.0], (4.0,), [2, "4"], [2, None]])
    def test_generators_must_be_ints(self, gens):
        x = dx("24")
        for trace in (False, True):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                lattice_multiply(x, x, generators=gens, trace=trace)

    def test_generators_may_be_any_iterable(self):
        x, y = dx("36"), dx("58")
        for gens in ({3, 5}, [5, 3, 3], (3, 5), iter([3, 5]), frozenset({5, 3}), [_Index(3), _Index(5)]):
            assert lattice_multiply(x, y, generators=gens) == multiply(x, y)
        with pytest.raises(ValueError, match=r"cell 7 x 1: neither digit decomposes into generators \[3, 5\]"):
            lattice_multiply(dx("7"), dx("1"), generators=[_Index(5), _Index(3)])

    @pytest.mark.parametrize("k", range(2, 10))
    def test_traced_and_untraced_agree_exhaustively(self, k):
        # every generator subset with every pair of 1-digit operands, and
        # of 1-2 digit operands up to base 5 (all bases would take 6 million)
        singles = [LexNumeral(k, (d,)) for d in range(1, k + 1)]
        pairs = [LexNumeral(k, (d, e)) for d in range(1, k + 1) for e in range(1, k + 1)]
        operands = singles + pairs if k <= 5 else singles

        def outcome(a, b, gens, trace):
            try:
                result = lattice_multiply(a, b, generators=gens, trace=trace)
            except ValueError as exc:
                return str(exc)
            return result[0] if trace else result

        for size in range(1, k + 1):
            for gens in itertools.combinations(range(1, k + 1), size):
                for a in operands:
                    for b in operands:
                        assert outcome(a, b, gens, False) == outcome(a, b, gens, True), (a, b, gens)

    @pytest.mark.parametrize("k", [256, 257, 1000])
    def test_traced_and_untraced_agree_in_large_bases(self, k):
        # base 256 is the last with the bit test; above it each digit's split search decides
        rng = random.Random(k)
        for _ in range(300):
            gens = rng.sample(range(2, k + 1), rng.randint(1, 3)) + rng.sample(range(2, 12), rng.randint(0, 2))
            a, b = (LexNumeral(k, tuple(rng.randint(1, k) for _ in range(rng.randint(1, 2)))) for _ in "ab")
            try:
                expected = lattice_multiply(a, b, generators=gens, trace=True)[0]
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    lattice_multiply(a, b, generators=gens)
                assert str(info.value) == str(exc)
            else:
                assert lattice_multiply(a, b, generators=gens) == expected

    def test_traced_lattice_answers_no_sum_before_the_table(self, monkeypatch):
        found = []  # what each split search returned
        split = arithmetic._split
        monkeypatch.setattr(arithmetic, "_split", lambda *args: found.append(split(*args)) or found[-1])
        k = 10**6
        cases = [
            # no sum of 6 and k makes k - 3 (it is 1 modulo 6): that is said
            # before any cell split is searched; above base 256 the check
            # itself is a search, which finds no sum
            (LexNumeral(k, (k - 3,)), LexNumeral(k, (k - 3,)), {6, k}, f"{k - 3} x {k - 3}"),
            # the cell 4 x 3, which splits 4 into 2 + 2, comes before the failing cell 3 x 3
            (dx("43"), dx("3"), {2}, "3 x 3"),
        ]
        for a, b, gens, cell in cases:
            with pytest.raises(ValueError) as untraced:
                lattice_multiply(a, b, gens)
            with pytest.raises(ValueError) as traced:
                lattice_multiply(a, b, gens, trace=True)
            message = f"cell {cell}: neither digit decomposes into generators {sorted(gens)}"
            assert str(traced.value) == str(untraced.value) == message
        assert found == [None, None]  # k - 3 checked once per run; base 10 checks by bits, not searches

    def test_long_generator_is_echoed_cut(self):
        with pytest.raises(ValueError) as exc:
            lattice_multiply(dx("2"), dx("3"), [int("7" * 100_000)])
        assert str(exc.value) == f"generator {'7' * 40}... (100000 digits) out of range [1, 10]"

    @pytest.mark.parametrize(
        "x, y, gens, parts",
        [
            ("6", "6", {3, 5}, (3, 3)),  # largest-first greedy takes 5 and is stuck
            ("2", "6", {1, 3, 4}, (3, 3)),  # greedy would take 4 + 1 + 1
            ("7", "6", {1, 2, 4, 5}, (5, 1)),  # fewest parts tie with 4 + 2: largest first
        ],
    )
    def test_cell_split_is_fewest_parts(self, x, y, gens, parts):
        a, b = dx(x), dx(y)
        result, trace = lattice_multiply(a, b, generators=gens, trace=True)
        assert omega(result) == omega(a) * omega(b)
        cells = [s.split(" = ")[0] for s in trace.steps if s.startswith("cell")]
        assert cells == [f"cell (1,1): {x}*{g}" for g in parts]


def _fewest_parts(k, gens):
    """Coin change over 0..k: per value, the fewest gens that sum to it, largest first (None if no sum does)."""
    best = [()] + [None] * k
    for v in range(1, k + 1):
        for g in sorted(gens, reverse=True):  # a smaller generator wins only on strictly fewer parts
            if g <= v and best[v - g] is not None and (best[v] is None or len(best[v - g]) + 1 < len(best[v])):
                best[v] = (g, *best[v - g])
    return best


def test_split_agrees_with_coin_change():
    # every generator set in base 10, 300 seeded sets in each of four
    # larger bases and 40 in each of two above 256, where the unmade test
    # is a split search: 190,110 digits, the ones that no sum makes among them
    cases = [(10, gens) for size in range(1, 11) for gens in itertools.combinations(range(1, 11), size)]
    for k, count in ((16, 300), (60, 300), (100, 300), (256, 300), (257, 40), (1000, 40)):
        rng = random.Random(k)
        cases += [(k, rng.sample(range(1, k + 1), rng.randint(1, 6))) for _ in range(count)]
    for k, gens in cases:
        gens = tuple(sorted(gens, reverse=True))
        unmade = arithmetic._unmade_test(k, gens)
        for d, parts in enumerate(_fewest_parts(k, gens)[1:], 1):
            runs = parts and [(g, len(list(same))) for g, same in itertools.groupby(parts)]
            assert arithmetic._split(d, gens) == runs, (k, gens, d)
            assert bool(unmade(d)) == (parts is None), (k, gens, d)


def test_split_of_a_large_digit_takes_few_steps(monkeypatch):
    # a table up to the digit would hold 10**8 entries or more; each search takes at most 8 steps.
    # 62 = 7a + 5b + 3c in 9 parts would need 4a + 2b = 35, so 10 parts, the most 7s first
    monkeypatch.setattr(arithmetic, "_SPLIT_STEPS", 8)
    assert arithmetic._split(200_000_001, (100_000_001, 100_000_000)) == [(100_000_001, 1), (100_000_000, 1)]
    assert arithmetic._split(10**9 - 1, (999_999_937, 7, 5, 3)) == [(999_999_937, 1), (7, 8), (3, 2)]
    monkeypatch.setattr(arithmetic, "_SPLIT_STEPS", 7)
    with pytest.raises(ValueError) as info:
        arithmetic._split(10**9 - 1, (999_999_937, 7, 5, 3))
    assert str(info.value) == "digit 999999999: no split into generators [3, 5, 7, 999999937] in 7 steps"


class TestLatticeTrace:
    def test_shape_and_intermediate(self, decimal_x):
        x = parse_lex("427", alphabet=decimal_x)
        y = parse_lex("35", alphabet=decimal_x)
        result, trace = lattice_multiply(x, y, generators={2, 5}, trace=True)
        assert result.digits == (1, 4, 9, 4, 5)
        assert isinstance(trace, LatticeTrace)
        assert len(trace.columns) == len(x.digits) + len(y.digits)
        assert omega_zero(trace.intermediate) == 14945
        cell_steps = [s for s in trace.steps if s.startswith("cell")]
        column_steps = [s for s in trace.steps if s.startswith("column")]
        assert len(column_steps) == len(trace.columns)
        assert len(cell_steps) == sum(len(col) for col in trace.columns) // 2
        assert trace.steps == tuple(cell_steps + column_steps)

    def test_columns_most_significant_first(self):
        x = parse_lex("[1][1]", base=10)
        one = LexNumeral(10, (1,))
        result, trace = lattice_multiply(x, one, trace=True)
        assert result == x
        assert trace.columns == ((0,), (1, 0), (1,))

    @pytest.mark.parametrize("k", [255, 256])
    def test_largest_digits_at_the_byte_edge(self, k):
        # the cell k*k leaves digit 0 and carry k: one byte in base 255, past a byte in base 256
        x = LexNumeral(k, (k, k))
        result, trace = lattice_multiply(x, x, trace=True)
        assert result == multiply(x, x)
        assert trace.columns == ((k,), (0, k, k), (0, 0, k), (0,))
        assert all(type(entry) is int for col in trace.columns for entry in col)

    def test_zero_operand_trace(self):
        zero = LexNumeral.zero(10)
        result, trace = lattice_multiply(dx("42"), zero, trace=True)
        assert result.is_zero
        assert trace.columns == ()
        assert trace.steps == ()
        assert trace.intermediate == ZeroNumeral.zero(10)

    def test_trace_off_returns_bare_result(self):
        x = dx("42")
        assert isinstance(lattice_multiply(x, x), LexNumeral)

    @given(numeral_pair(min_base=2, max_len=5), st.data())
    def test_column_sums_give_the_product(self, pair, data):
        # the product is taken by rank; the lattice's own column digits and last carry must make it too
        a, b = pair
        gens = data.draw(st.one_of(st.none(), st.sets(st.integers(1, a.base), max_size=4).map(lambda s: s | {1})))
        _, trace = lattice_multiply(a, b, generators=gens, trace=True)
        sums = [s for s in trace.steps if s.startswith("column")]
        assert len(sums) == len(trace.columns)
        digits = [int(s.split(" -> digit ")[1].split(",")[0]) for s in sums]
        carry = int(sums[-1].rsplit(" ", 1)[1]) if sums else 0
        assert radix.number([carry, *reversed(digits)], a.base, 0) == omega(a) * omega(b)

    @given(numeral_pair(min_base=2, max_len=5))
    def test_intermediate_preserves_value(self, pair):
        a, b = pair
        result, trace = lattice_multiply(a, b, trace=True)
        assert omega_zero(trace.intermediate) == omega(a) * omega(b)
        assert omega(result) == omega(a) * omega(b)
