"""The package's immutable value classes: construction, equality, hashing,
repr, immutability, copying and pickling."""

import copy
import pickle

import pytest

from plimpton import (
    SexValue,
    TabletCell,
    build_row,
    diff_against,
    error_annotations,
    generate,
    link_to_standard,
    printed_corrections,
    printed_pairs,
    regular_from_int,
    tablet_data,
    verify_properties,
)
from plimpton.sexagesimal import _Value
from plimpton.tablet import RowDiff


def _samples():
    pairs = [pair for _, pair in printed_pairs("standard-15")]
    row = build_row(pairs[1], 2)
    record = tablet_data()[0]
    report = diff_against(generate("buck1980"), matching="similarity")
    return [
        SexValue(3600),
        regular_from_int(54),
        pairs[1],
        printed_corrections("standard-15", pairs)[0],
        row,
        link_to_standard(pairs[1]),
        record.a,
        record,
        verify_properties(tablet_data(), use="as_written")[1],
        report.rows[0],
        report,
        error_annotations()[0],
    ]


SAMPLES = {type(v).__name__: v for v in _samples()}
# the values callers build as inputs, each with its own checked constructor;
# every other class is a record, built from all of its fields in slot order
VALUE_CLASSES = {"SexValue", "RegularNumber", "ReciprocalPair", "LinkChain"}
RECORDS = sorted(set(SAMPLES) - VALUE_CLASSES)


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_value_class_is_sampled():
    assert set(SAMPLES) == {
        "SexValue", "RegularNumber", "ReciprocalPair", "Correction",
        "RowCandidate", "LinkChain", "TabletCell", "TabletRowRecord",
        "PropertyResult", "RowDiff", "DiffReport", "ErrorAnnotation"}


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestValueSemantics:
    def test_equal_fields_give_equal_values_and_hashes(self, name):
        value = SAMPLES[name]
        cls = type(value)
        twin = cls(*_fields(value))
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        by_keyword = dict(zip(cls.__slots__, _fields(value)))
        if name in VALUE_CLASSES:
            assert cls(**by_keyword) == value
        else:
            with pytest.raises(TypeError):
                cls(**by_keyword)

    def test_a_different_type_is_not_equal(self, name):
        value = SAMPLES[name]
        twin_type = type("Other", (_Value,), {"__slots__": type(value).__slots__})
        other = twin_type(*_fields(value))
        assert value != other and other != value
        assert value != _fields(value)

    def test_fields_cannot_be_set_or_deleted(self, name):
        value = SAMPLES[name]
        first = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, first, getattr(value, first))
        with pytest.raises(AttributeError):
            delattr(value, first)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert _fields(value) == _fields(SAMPLES[name])

    def test_repr_names_the_fields(self, name):
        value = SAMPLES[name]
        text = repr(value)
        assert text.startswith(f"{name}(") and text.endswith(")")
        for field in type(value).__slots__:
            assert f"{field}={getattr(value, field)!r}" in text

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_round_trip(self, name, clone):
        value = SAMPLES[name]
        copied = clone(value)
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


class TestConstruction:
    def test_repr_form(self):
        assert repr(SexValue(3600)) == "SexValue(mantissa=1, exponent=2)"
        assert repr(TabletCell(SexValue(3), SexValue(5))) == (
            "TabletCell(corrected=SexValue(mantissa=3, exponent=0), "
            "as_written=SexValue(mantissa=5, exponent=0))")

    def test_sexvalue_is_canonical_however_built(self):
        assert SexValue(3600) == SexValue(1, 2)
        assert SexValue(mantissa=3600) == SexValue(1, exponent=2)
        assert pickle.loads(pickle.dumps(SexValue(3600))) == SexValue(1, 2)

    def test_omitting_a_record_field_is_a_type_error(self):
        assert SexValue(1).exponent == 0  # a value class keeps its own defaults
        for name in RECORDS:
            fields = _fields(SAMPLES[name])
            with pytest.raises(TypeError, match=f"{name} takes the fields"):
                type(SAMPLES[name])(*fields[:-1])

    @pytest.mark.parametrize("args, kwargs", [
        ((3,), {}),                          # too few values
        ((3, "exact", None, (), 4), {}),     # one value too many
        ((3, "exact"), {"n": 4}),            # a keyword: a record takes none
        ((3, "exact"), {"rows": ()}),
    ])
    def test_bad_fields_are_a_type_error(self, args, kwargs):
        match = "keyword argument" if kwargs else "RowDiff takes the fields"
        with pytest.raises(TypeError, match=match):
            RowDiff(*args, **kwargs)

