"""Reach census: the keep-list, checked against the source.

``tests/census/reach_census.py`` runs what CI runs outside ``tests/`` under
a profile hook and fails on a function in ``src/repro`` that is neither
reached nor kept.  That run takes a minute and a half, so it is a CI step,
not a tier-1 test.  This test checks ``KEEP`` statically: each key names a
``def`` in its file's syntax tree, each reason is one of the census's
reason constants, and the census's first lines are the ones the
interpreter gives a function's code object.
"""

from __future__ import annotations

import importlib.util
import pathlib

from repro.kernel.kernel import Kernel
from repro.telemetry.metrics import LogHistogram, Telemetry

_CENSUS = (pathlib.Path(__file__).resolve().parents[1] / "census"
           / "reach_census.py")
_module_spec = importlib.util.spec_from_file_location("_reach_census",
                                                      _CENSUS)
census = importlib.util.module_from_spec(_module_spec)
_module_spec.loader.exec_module(census)

DEFINED = census.definitions()


def test_every_keep_entry_names_a_definition():
    assert sorted(set(census.KEEP) - set(DEFINED)) == []


def test_every_keep_reason_is_a_census_reason():
    assert {key: reason for key, reason in census.KEEP.items()
            if reason not in census.REASONS} == {}


def test_first_lines_match_the_code_objects():
    """A decorated def starts at its first decorator, as its code object
    does."""
    for key, function in [
            ("telemetry/metrics.py::LogHistogram.relative_error_bound",
             LogHistogram.relative_error_bound.fget),
            ("telemetry/metrics.py::Telemetry.snapshot", Telemetry.snapshot),
            ("kernel/kernel.py::Kernel.reap", Kernel.reap)]:
        path, first = DEFINED[key]
        assert first == function.__code__.co_firstlineno, key
        assert pathlib.Path(path).resolve() == \
            pathlib.Path(function.__code__.co_filename).resolve()
