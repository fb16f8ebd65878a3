"""The package's immutable value classes: construction, equality, hashing,
repr, immutability, copying and pickling; and what importing the CLI loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from plimpton import (
    RowCandidate,
    SexValue,
    TabletCell,
    XYPair,
    build_row,
    diff_against,
    error_annotations,
    generate,
    link_to_standard,
    phillips_pairs,
    printed_corrections,
    regular_from_int,
    tablet_data,
    verify_properties,
)
from plimpton.sexagesimal import _Value
from plimpton.tablet import RowDiff

SRC = Path(__file__).resolve().parents[1] / "src"


def _samples():
    pairs = phillips_pairs()
    row = build_row(pairs[1], 2)
    record = tablet_data()[0]
    report = diff_against(generate("buck1980"), matching="similarity")
    return [
        SexValue(3600),
        regular_from_int(54),
        pairs[1],
        printed_corrections("standard-15", pairs)[0],
        row.xy,
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


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_value_class_is_sampled():
    assert set(SAMPLES) == {
        "SexValue", "RegularNumber", "ReciprocalPair", "Correction", "XYPair",
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
        assert cls(**dict(zip(cls.__slots__, _fields(value)))) == value

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
        assert repr(XYPair(SexValue(3), SexValue(5))) == (
            "XYPair(x=SexValue(mantissa=3, exponent=0), "
            "y=SexValue(mantissa=5, exponent=0))")

    def test_sexvalue_is_canonical_however_built(self):
        assert SexValue(3600) == SexValue(1, 2)
        assert SexValue(mantissa=3600) == SexValue(1, exponent=2)
        assert pickle.loads(pickle.dumps(SexValue(3600))) == SexValue(1, 2)

    def test_defaults_apply_when_a_keyword_is_omitted(self):
        v = SexValue(1)
        assert v.exponent == 0
        assert TabletCell(v).as_written is None
        diff = RowDiff(3, "exact")
        assert (diff.ratio, diff.cells) == (None, ())
        assert RowDiff(n=3, status="mismatch", cells=("A",)).cells == ("A",)
        row = SAMPLES["RowCandidate"]
        fields = _fields(row)[:-1]
        assert RowCandidate(*fields).reduced is True
        assert RowCandidate(*fields, reduced=False).reduced is False

    @pytest.mark.parametrize("args, kwargs", [
        ((3,), {}),                          # a field without a default
        ((3, "exact", None, (), 4), {}),     # one value too many
        ((3, "exact"), {"n": 4}),            # a field given twice
        ((3, "exact"), {"rows": ()}),        # no such field
    ])
    def test_bad_fields_are_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="RowDiff takes the fields"):
            RowDiff(*args, **kwargs)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_resources():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import plimpton.cli; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources'}"
            " & set(sys.modules)))")
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the test from writing bytecode
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
