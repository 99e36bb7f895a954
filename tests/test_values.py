"""The value contract shared by trifix's nine immutable classes: equality
within one class only, hashing by fields, no assignment or deletion,
pickling (``--jobs`` sends specs and reports through a process pool),
positional and keyword construction, and a ``Name(field=value)`` repr."""

import pickle
from pathlib import Path

import pytest

from trifix.analysis import (
    ClassificationReport,
    ConjectureResult,
    Counterexample,
    classify,
)
from trifix.engine import FrozenValue, SequenceRun, SequenceSpec, TermRecord, generate
from trifix.oeis import BFile, ComparisonResult
from trifix.store import CacheEntry

SPEC = SequenceSpec.standard(3, 31)
RUN = generate(SPEC)
REPORT = classify(RUN)
MISS = Counterexample("A(3)", 17, "eligible prime not a fixed point")

# Each class with the fields of one valid instance, in field order.
VALUES = [
    (SequenceSpec, ("standard", 31, 3)),
    (TermRecord, (5, 30, 5, False)),
    (SequenceRun, (SPEC, RUN.a)),
    (BFile, (1, (1, 2, 4))),
    (ComparisonResult, (3, (2, 2, 3))),
    (ClassificationReport, tuple(getattr(REPORT, name) for name in ClassificationReport.__slots__)),
    (Counterexample, ("A(3)", 17, "eligible prime not a fixed point")),
    (ConjectureResult, ("3.2", ("A(3)",), 30, (MISS,), 8)),
    (CacheEntry, (Path("standard/p3_v2.bfile.txt"), {"term_count": 31})),
]
each_value = pytest.mark.parametrize("cls, fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])


def copied(fields):
    """Equal fields that are not the same objects."""
    return pickle.loads(pickle.dumps(fields))


@each_value
def test_equal_fields_give_equal_values_with_equal_hashes(cls, fields):
    value, twin = cls(*fields), cls(*copied(fields))
    assert value == twin and not value != twin
    if cls in (CacheEntry, SequenceRun):  # a dict manifest, an array of terms
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1


@each_value
def test_never_equal_to_a_tuple_or_another_class(cls, fields):
    value = cls(*fields)
    same_slots = type(cls.__name__, (FrozenValue,), {"__slots__": cls.__slots__})
    subclass = type(cls.__name__, (cls,), {})
    for other in (fields, list(fields), same_slots(*fields), subclass(*fields)):
        assert value != other and not value == other
        assert other != value and not other == value


@each_value
def test_not_a_sequence_and_not_ordered(cls, fields):
    value = cls(*fields)
    with pytest.raises(TypeError):
        iter(value)
    with pytest.raises(TypeError):
        value < value


@each_value
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    value = cls(*fields)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*fields)


@each_value
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, fields, protocol):
    value = cls(*fields)
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is cls and back == value


@each_value
def test_keyword_construction(cls, fields):
    assert cls(**dict(zip(cls.__slots__, fields))) == cls(*fields)
    assert tuple(getattr(cls(*fields), name) for name in cls.__slots__) == fields


@each_value
def test_wrong_fields_raise_type_error(cls, fields):
    first = cls.__slots__[0]
    for args, kwargs in [((), {}), ((*fields, None), {}), (fields[:-2], {}),
                         (fields, {"extra": 0}), (fields, {first: fields[0]})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@each_value
def test_repr_names_every_field(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, fields))
    assert repr(cls(*fields)) == f"{cls.__name__}({shown})"


def test_defaults():
    assert SequenceSpec("shifted", 5) == SequenceSpec("shifted", 5, None)
    assert SequenceSpec(variant="no-zero", term_count=5).p is None


def test_repr_reads_like_a_constructor_call():
    assert repr(SPEC) == "SequenceSpec(variant='standard', term_count=31, p=3)"
    assert repr(SequenceSpec.shifted(4)) == "SequenceSpec(variant='shifted', term_count=4, p=None)"
    assert repr(MISS) == "Counterexample(sequence='A(3)', n=17, detail='eligible prime not a fixed point')"
