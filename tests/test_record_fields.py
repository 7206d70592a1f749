"""Every ``Record`` field's type is one that the codec's ``_decode`` reads.

The grammar is ``int``, ``float``, ``str``, ``bool``, ``list[X]``, a
fixed-length ``tuple[X, Y]``, a record, and ``Optional`` of one of these.
A bare ``list``, ``dict`` or ``tuple``, an ``X | None`` or a
``tuple[X, ...]`` is not in it, so a field annotated that way fails here
instead of in the first config that sets it.
"""

import importlib
import pkgutil
import typing
from dataclasses import fields
from typing import Optional

import pytest

import dftlab
from dftlab.model import Record, _decode
from dftlab.training import RunConfig

for _module in pkgutil.iter_modules(dftlab.__path__):  # every Record subclass is defined
    importlib.import_module(f"dftlab.{_module.name}")


def in_grammar(hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X] only: _decode reads a non-null value as X
        return len(args) == 2 and args[1] is type(None) and in_grammar(args[0])
    if origin is list:
        return in_grammar(args[0])
    if origin is tuple:
        return bool(args) and Ellipsis not in args and all(map(in_grammar, args))
    return hint in (int, float, str, bool) or isinstance(hint, type) and issubclass(hint, Record)


def dftlab_records(cls=Record) -> dict:
    found = {}
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("dftlab."):
            found[sub.__qualname__] = sub
        found.update(dftlab_records(sub))
    return found


RECORDS = dftlab_records()
OUTSIDE = [list, dict, tuple, int | None, tuple[int, ...], Optional[dict],
           typing.Union[int, str]]


@pytest.mark.parametrize("hint", [int, float, str, bool, list[float], tuple[int, int],
                                  list[list[bool]], Optional[list[int]], RunConfig,
                                  Optional[RunConfig]], ids=str)
def test_the_guard_accepts_the_grammar(hint):
    assert in_grammar(hint)


@pytest.mark.parametrize("hint", OUTSIDE, ids=str)
def test_the_guard_rejects_what_is_outside_it(hint):
    assert not in_grammar(hint)


@pytest.mark.parametrize("hint, value", [
    (list, [1]), (dict, {}), (tuple, [1, 2]), (int | None, None), (tuple[int, ...], [1, 2, 3]),
], ids=["list", "dict", "tuple", "int-or-None", "tuple-of-any-length"])
def test_the_codec_cannot_read_what_the_guard_rejects(hint, value):
    with pytest.raises(ValueError, match="'x' must be"):
        _decode(hint, value, "'x'")


def test_there_are_records_to_check():
    assert {"ModelConfig", "RunConfig", "FilterStats", "TaskSpec", "PlanConfig"} <= set(RECORDS)


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_every_field_type_is_in_the_grammar(record):
    hints = typing.get_type_hints(record)
    outside = {f.name: hints[f.name] for f in fields(record) if not in_grammar(hints[f.name])}
    assert not outside, f"{record.__name__} fields outside the codec's grammar: {outside}"
