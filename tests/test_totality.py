"""Every callable that ``plimpton`` exports, and ReciprocalPair's two named
constructors, called with arity-valid arguments drawn from one small pool:
each call returns, or refuses with SexagesimalError or ValueError, and never
raises anything else (TypeError, AttributeError, OverflowError, ...).

Size: every int in the pool is within +-1,000, so no call builds a large
power; the time a call takes on a large value is not checked here.

Out of scope: the rules held in CRITERIA, THEORIES and PROPERTIES, which are
called only through the functions that select them, and a RegularNumber with
ill-typed fields, which its constructor still accepts (ROADMAP item 16), so
the pool holds only a RegularNumber the library built.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import plimpton
from plimpton import (
    CRITERIA,
    PRINTED_TABLES,
    ReciprocalPair,
    SexagesimalError,
    build_row,
    parse_sex,
    regular_from_int,
    tablet_data,
)
from plimpton.hypotheses import THEORIES
from plimpton.rows import REDUCTIONS
from plimpton.tablet import EDITIONS, MATCHINGS, USES

CALLS = {name: value for name, value in vars(plimpton).items()
         if callable(value) and not name.startswith("_")}
CALLS["ReciprocalPair.from_triple"] = ReciprocalPair.from_triple
CALLS["ReciprocalPair.from_T_mantissa"] = ReciprocalPair.from_T_mantissa

_PAIR = ReciprocalPair.from_T_mantissa(2)
POOL = [
    0, -1, 7, True, 1.5, None, "", "1 2", "1;2", Fraction(1, 3), [], (1, 2, 3), [1],
    # one value of each of the library's types, built by the library
    parse_sex("2 30"), regular_from_int(12), _PAIR, build_row(_PAIR), tablet_data()[0],
    # one valid name from each vocabulary
    next(iter(CRITERIA)), next(iter(THEORIES)), next(iter(PRINTED_TABLES)), EDITIONS[0],
    USES[-1], MATCHINGS[-1], REDUCTIONS[-1], "fixed",
]


def _signature(fn) -> inspect.Signature:
    if fn is SexagesimalError:  # a built-in exception's __init__ has no signature
        return inspect.Signature([inspect.Parameter("message", inspect.Parameter.POSITIONAL_ONLY)])
    return inspect.signature(fn)


def _arity(fn) -> tuple[int, int]:
    """The fewest and the most positional arguments fn takes.  A record that
    _Value's generic constructor builds, from ``*args``, takes its fields."""
    params = _signature(fn).parameters.values()
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return len(fn.__slots__), len(fn.__slots__)
    return sum(p.default is p.empty for p in params), len(params)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(picks=st.lists(st.sampled_from(POOL), max_size=9))
# Each example runs for every export.  Between them they make the four calls
# that raised TypeError: printed_corrections("standard-15", 5), diff_against(5)
# and verify_properties(None), whose list is no iterable, and
# from_fraction(None).
@example(picks=["standard-15", 5])
@example(picks=[5])
@example(picks=[None])
def test_every_export_returns_or_refuses(name, picks):
    # the first picks, as many as fn takes; the pool's first value fills in
    # for a missing required argument
    fn = CALLS[name]
    fewest, most = _arity(fn)
    args = (picks + POOL[:1] * fewest)[:max(fewest, min(len(picks), most))]
    _signature(fn).bind(*args)
    try:
        fn(*args)
    except ValueError:  # SexagesimalError among them
        pass
