"""The call counter of tests/counting.py: each target counts apart, and
every binding it changed is restored on exit, also when its block raises."""

import contextlib
import sys

import pytest

from plimpton import cli, sexagesimal
from plimpton.hypotheses import PRINTED_TABLES, THEORIES, generate, phillips_pairs, printed_pairs
from plimpton.pairs import CRITERIA
from plimpton.rows import build_row
from plimpton.sexagesimal import SexValue, parse_sex, render_sex
from counting import Call, counted

def leave(raised, targets, inside):
    """``inside(calls)`` in a block counting ``targets``, left by returning
    or by a KeyError."""
    with contextlib.suppress(KeyError), counted(*targets) as calls:
        inside(calls)
        if raised:
            raise KeyError("left by raising")


@pytest.mark.parametrize("raised", [False, True], ids=["returned", "raised"])
def test_every_module_binding_and_record_slot_is_counted_and_restored(raised):
    # build_row is bound in modules and held in THEORIES records; the
    # multiple-of-10 test is held in THEORIES and PRINTED_TABLES records
    mult10 = CRITERIA["mult10"]
    modules = [module for name, module in sys.modules.items()
               if name.startswith("plimpton") and vars(module).get("build_row") is build_row]
    assert {"plimpton.hypotheses", "plimpton.rows"} <= {module.__name__ for module in modules}
    records = {**THEORIES, **PRINTED_TABLES}

    def inside(calls):
        for module in modules:
            vars(module)["build_row"](phillips_pairs()[0], 1, "full")
        printed_pairs("extension-upper")
        assert (len(calls[0]), bool(calls[1])) == (len(modules), True)
        generate("phillips")
        assert len(calls[0]) == len(modules) + 15

    leave(raised, [build_row, mult10], inside)
    assert all(vars(module)["build_row"] is build_row for module in modules)
    after = {**THEORIES, **PRINTED_TABLES}
    assert list(after) == list(records)
    assert all(after[key] is record for key, record in records.items())
    assert [key for key, record in after.items() if mult10 in record] == [
        "phillips", "standard-15", "extension-lower", "extension-upper"]


@pytest.mark.parametrize("raised", [False, True], ids=["returned", "raised"])
@pytest.mark.parametrize("target,make", [
    ((SexValue, "fraction"), lambda: SexValue(90, -1).fraction),
    (SexValue, lambda: SexValue(60)),
    (cli._Parser, lambda: cli._Parser(prog="p")),
], ids=["property", "__init__", "inherited __init__"])
def test_an_attribute_is_counted_and_restored(raised, target, make):
    owner, key = target if isinstance(target, tuple) else (target, "__init__")
    before = vars(owner).get(key)

    def inside(calls):
        make()
        assert len(calls[0]) == 1

    leave(raised, [target], inside)
    assert vars(owner).get(key) is before


def test_two_targets_count_apart():
    # counted at the library's bindings, not at this module's
    with counted(parse_sex, render_sex) as (parsed, rendered):
        sexagesimal.render_sex(sexagesimal.parse_sex("1 02"))
        sexagesimal.parse_sex("3", "fixed")
    assert parsed == [Call(("1 02",), {}), Call(("3", "fixed"), {})]
    assert rendered == [Call((SexValue(62),), {})]
