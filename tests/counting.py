"""``counted(*targets)``: a ``with`` block that records every call of each
target, one list of ``Call``s per target, and on exit restores every binding
it changed, also when the block raises.  A target is a function, counted
wherever a loaded ``plimpton`` module binds it by name and in every slot of a
``THEORIES`` or ``PRINTED_TABLES`` record that holds it; a class, whose
``__init__`` is counted; or an ``(owner, attribute)`` pair, counted at that
one binding, where a property counts its reads."""

import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import partial
from inspect import getattr_static

from plimpton.hypotheses import PRINTED_TABLES, THEORIES

Call = namedtuple("Call", "args kwargs")


def _counting(fn, calls):
    def counting(*args, **kwargs):
        calls.append(Call(args, kwargs))
        return fn(*args, **kwargs)
    return counting


def _bindings(target, calls) -> list:
    """(owner, key, counting value) for every place ``target`` is bound: an
    owner is a record table, keyed by name, or an object, by attribute."""
    if isinstance(target, type):
        target = (target, "__init__")
    if isinstance(target, tuple):
        old = getattr_static(*target)
        if isinstance(old, property):
            return [(*target, property(_counting(old.fget, calls)))]
        return [(*target, _counting(old, calls))]
    counting, name = _counting(target, calls), target.__name__
    found = [(module, name, counting) for module_name, module in list(sys.modules.items())
             if module_name.partition(".")[0] == "plimpton" and vars(module).get(name) is target]
    return found + [(records, key, tuple(counting if slot is target else slot for slot in record))
                    for records in (THEORIES, PRINTED_TABLES) for key, record in records.items()
                    if any(slot is target for slot in record)]


@contextmanager
def counted(*targets):
    calls, undo = tuple([] for _ in targets), []
    try:
        for target, log in zip(targets, calls):
            for owner, key, value in _bindings(target, log):
                if isinstance(owner, dict):
                    undo.append(partial(owner.__setitem__, key, owner[key]))
                    owner[key] = value
                    continue
                if key in vars(owner):
                    undo.append(partial(setattr, owner, key, vars(owner)[key]))
                else:  # a class's inherited __init__
                    undo.append(partial(delattr, owner, key))
                setattr(owner, key, value)
        yield calls
    finally:
        for restore in reversed(undo):
            restore()
