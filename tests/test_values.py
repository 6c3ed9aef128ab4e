"""Behaviour of the six value types: equality, hash, repr, immutability, copying."""

import copy
import operator
import pickle

import pytest

from zeroless import Alphabet, FastaRecord, LatticeTrace, LexNumeral, OpTable, ZeroNumeral


def _trace(step="cell"):
    return LatticeTrace(((1,), (2, 0)), (step,), ZeroNumeral(10, (1, 2)))


# (make an instance, make one that differs, its fields, its repr)
VALUES = {
    "Alphabet": (
        lambda: Alphabet(("A", "C")),
        lambda: Alphabet(("A", "G")),
        (("A", "C"),),
        "Alphabet(symbols=('A', 'C'))",
    ),
    "LexNumeral": (
        lambda: LexNumeral(10, (1, 2)),
        lambda: LexNumeral(10, (2, 1)),
        (10, (1, 2)),
        "LexNumeral(base=10, digits=(1, 2))",
    ),
    "ZeroNumeral": (
        lambda: ZeroNumeral(10, (1, 0)),
        lambda: ZeroNumeral(10, (1, 1)),
        (10, (1, 0)),
        "ZeroNumeral(base=10, digits=(1, 0))",
    ),
    "LatticeTrace": (
        _trace,
        lambda: _trace("column"),
        (((1,), (2, 0)), ("cell",), ZeroNumeral(10, (1, 2))),
        "LatticeTrace(columns=((1,), (2, 0)), steps=('cell',), "
        "intermediate=ZeroNumeral(base=10, digits=(1, 2)))",
    ),
    "FastaRecord": (
        lambda: FastaRecord("r1", "ACGT", 3),
        lambda: FastaRecord("r1", "ACGT", 4),
        ("r1", "ACGT", 3),
        "FastaRecord(id='r1', sequence='ACGT', line=3)",
    ),
    "OpTable": (
        lambda: OpTable("addition", 1),
        lambda: OpTable("multiplication", 1),
        ("addition", 1),
        "OpTable(kind='addition', base=1)",
    ),
}

NAMES = sorted(VALUES)


@pytest.fixture(params=NAMES)
def case(request):
    return VALUES[request.param]


def test_equality(case):
    make, other, _, _ = case
    assert make() == make()
    assert not make() != make()
    assert make() != other()
    assert make() != object()
    assert make().__eq__(object()) is NotImplemented


def test_field_order_and_keywords(case):
    make, _, fields, _ = case
    value = make()
    cls = type(value)
    assert cls(*fields) == value
    names = cls.__match_args__
    assert tuple(getattr(value, name) for name in names) == fields
    assert cls(**dict(zip(names, fields))) == value


def test_same_fields_other_class_differ():
    lex, zero = LexNumeral(4, (1, 2)), ZeroNumeral(4, (1, 2))
    assert lex != zero and zero != lex
    assert lex.__eq__(zero) is NotImplemented
    assert len({lex, zero}) == 2


def test_record_is_not_the_plain_tuple_of_its_fields():
    # a tuple underneath, but equal only to records, in both operand orders
    record, fields = FastaRecord("r1", "ACGT", 3), ("r1", "ACGT", 3)
    assert record != fields and fields != record
    assert not record == fields and not fields == record
    # False, not NotImplemented: tuple's own __eq__ would answer True
    assert record.__eq__(fields) is False and fields.__eq__(record) is True
    assert record.__ne__(fields) is True and record.__eq__([*fields]) is NotImplemented
    assert len({record, fields}) == 2 and tuple(record) == fields
    # and no order against it either, where tuple's own would answer
    for a, b in ((record, fields), (fields, record), (record, record)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, b)


def test_values_have_no_order(case):
    make, other, _, _ = case
    with pytest.raises(TypeError):
        sorted([make(), other()])


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_fields(name):
    make, other, fields, _ = VALUES[name]
    assert hash(make()) == hash(make()) == hash(fields)
    assert len({make(), make(), other()}) == 2


def test_repr(case):
    make, _, _, text = case
    assert repr(make()) == text


def test_str_of_numerals_is_the_text_form():
    assert str(LexNumeral(10, (1, 10))) == "[1][10]"
    assert str(ZeroNumeral(10, (1, 0))) == "10"


def test_fields_cannot_be_assigned_or_deleted(case):
    make, _, _, _ = case
    value = make()
    for name in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert make() == value


def test_no_other_attributes(case):
    make, _, _, _ = case
    value = make()
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1


def test_copies_and_pickles(case):
    make, _, _, _ = case
    value = make()
    for dup in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(dup) is type(value)
        assert dup == value
        assert repr(dup) == repr(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Alphabet(()),
        lambda: Alphabet(("A", "A")),
        lambda: Alphabet(("AB",)),
        lambda: Alphabet(("[",)),
        lambda: LexNumeral(0, ()),
        lambda: LexNumeral(4, (5,)),
        lambda: LexNumeral(4, (0, 1)),
        lambda: ZeroNumeral(1, (0,)),
        lambda: ZeroNumeral(10, ()),
        lambda: ZeroNumeral(10, (10,)),
        lambda: ZeroNumeral(10, (0, 1)),
        lambda: OpTable("subtraction", 4),
        lambda: OpTable("addition", 0),
    ],
)
def test_validation(build):
    with pytest.raises(ValueError):
        build()


def test_every_lex_numeral_runs_post_init(monkeypatch):
    seen = []
    check = LexNumeral.__post_init__

    def counting(self):
        seen.append(self.digits)
        check(self)

    monkeypatch.setattr(LexNumeral, "__post_init__", counting)
    LexNumeral(10, (1, 2))
    LexNumeral(base=4, digits=())
    assert seen == [(1, 2), ()]
    with pytest.raises(ValueError):
        LexNumeral(4, (5,))
    assert seen == [(1, 2), (), (5,)]
