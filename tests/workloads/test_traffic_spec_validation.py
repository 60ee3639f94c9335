"""Invalid traffic specs fail at construction, not mid-run.

Each check reads one ``TrafficSpec`` field, whatever the other knobs say,
so none of them adds a cross-knob rule.  Without them these specs would
construct and then raise mid-run (numpy's ``scale < 0``, an ``IndexError``
in the engine, a ``PolicyError`` in ``build()``) or finish and mislead
(a misspelt function counted as denied on every call).
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.workloads.traffic import (TRAFFIC_FUNCTIONS, TrafficSpec,
                                     build_traffic_module, traffic_policy)


@pytest.mark.parametrize("arrival", ["closed", "open", "mmpp"])
def test_negative_mean_interval_is_rejected(arrival):
    with pytest.raises(SimulationError, match="mean_interval_us"):
        TrafficSpec(arrival=arrival, mean_interval_us=-5.0)


@pytest.mark.parametrize("field", ["burst_interval_us", "burst_on_us",
                                   "burst_off_us"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_burst_mean_is_rejected(field, value):
    with pytest.raises(SimulationError, match=field):
        TrafficSpec(arrival="mmpp", **{field: value})


def test_burst_means_are_checked_whatever_the_arrival_mode():
    with pytest.raises(SimulationError, match="burst_interval_us"):
        TrafficSpec(arrival="closed", burst_interval_us=0.0)


def test_empty_call_mix_is_rejected():
    with pytest.raises(SimulationError, match="call_mix"):
        TrafficSpec(call_mix=())


def test_call_mix_names_are_checked_against_the_module_definition():
    module = build_traffic_module(0, policy=traffic_policy(TrafficSpec()))
    assert sorted(f.name for f in module.functions()) == \
        sorted(TRAFFIC_FUNCTIONS)


def test_call_mix_name_outside_the_traffic_modules_is_rejected():
    with pytest.raises(SimulationError, match="test_incrr"):
        TrafficSpec(call_mix=(("test_incrr", 1.0),))


@pytest.mark.parametrize("weight", [0.0, -0.5])
def test_non_positive_call_mix_weight_is_rejected(weight):
    with pytest.raises(SimulationError, match="weight"):
        TrafficSpec(call_mix=(("test_incr", 1.0), ("getpid", weight)))


def test_valid_edges_still_construct():
    TrafficSpec(arrival="mmpp", mean_interval_us=0.5, burst_interval_us=0.5,
                burst_on_us=0.5, burst_off_us=0.5)
    TrafficSpec(policy_kind="quota",
                call_mix=(("getpid", 0.25), ("test_null", 0.75)))
