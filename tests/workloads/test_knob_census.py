"""Knob census: every configuration field names the code that sets it.

A field of ``TrafficSpec``, ``DispatchConfig``, ``ServiceConfig``,
``OverloadConfig`` or ``PoolConfig`` stays only while an experiment, an
end-to-end workload, an example or a CLI command sets it.  ``CENSUS``
names, per field, one file outside ``tests/`` that does; the test checks
that a call in that file passes ``<field>=`` as a keyword argument (in
the file's syntax tree, so a docstring that shows the keyword does not
count), and that the table lists exactly each dataclass's fields, so a
new field must name its user and a field whose last user goes fails
here.

Four fields only tests set.  Their entries name those tests and say why
the field stays anyway.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import pathlib
from typing import FrozenSet, NamedTuple, Tuple

import pytest

from repro.control.overload import OverloadConfig
from repro.secmodule.dispatch import DispatchConfig
from repro.serve.attachment_pool import PoolConfig
from repro.serve.frontend import ServiceConfig
from repro.workloads.traffic import TrafficSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]


class SetByTests(NamedTuple):
    """A field only tests set: the tests that set it, and why it stays."""

    tests: Tuple[str, ...]
    reason: str


E2E = "benchmarks/e2e/e2e_workloads.py"

#: dataclass -> field -> the file outside tests/ that sets it, or SetByTests
CENSUS = {
    TrafficSpec: {
        "clients": E2E,
        "modules": E2E,
        "calls_per_client": E2E,
        "arrival": E2E,
        "mean_interval_us": E2E,
        "burst_interval_us": "src/repro/bench/adaptive.py",
        "burst_on_us": "src/repro/bench/adaptive.py",
        "burst_off_us": "src/repro/bench/adaptive.py",
        "think": "examples/multi_client_traffic.py",
        "batch_size": "src/repro/bench/adaptive.py",
        "adaptive_batch": E2E,
        "adaptive_max_depth": "src/repro/bench/adaptive.py",
        "telemetry": E2E,
        "handle_policy": "src/repro/bench/pool.py",
        "pool_max_sessions": "src/repro/bench/pool.py",
        "policy_kind": E2E,
        "shards": "src/repro/bench/simspeed.py",
        "tracing": "src/repro/cli.py",
        "trace_sample_every": "src/repro/cli.py",
        "trace_capacity": "src/repro/cli.py",
        "via_service": "src/repro/cli.py",
        "shed_deadline_us": SetByTests(
            ("tests/workloads/test_traffic_digests.py",
             "tests/properties/test_traffic_oracle.py",
             "tests/telemetry/test_observation_digests.py",
             "tests/serve/test_overload_serve.py"),
            "its seat_sheds counter is in every broker snapshot: deleting "
            "it moves every traffic digest and the `serve status` golden, "
            "so it goes only with a re-baseline of its own"),
        "service_p95_target_us": E2E,
        "call_mix": SetByTests(
            ("tests/workloads/test_traffic_digests.py",
             "tests/properties/test_traffic_oracle.py",
             "tests/secmodule/test_trace_replay.py",
             "tests/workloads/test_call_table.py"),
            "reaches batch fast-forward windows and all-denied queues at "
            "test size; burst-adaptive runs both at full size (one seed-1 "
            "rep settles 669 batch spans in 616 windows)"),
        "seed": E2E,
    },
    DispatchConfig: {
        "hardening": "src/repro/bench/ablations.py",
        "marshalling": "src/repro/bench/ablations.py",
        "use_decision_cache": "src/repro/bench/throughput.py",
        "batch_size": "src/repro/bench/batch.py",
        "use_trace_replay": "src/repro/bench/simspeed.py",
        "record_checkpoints": "src/repro/bench/figures123.py",
    },
    ServiceConfig: {
        "pool": "src/repro/bench/serve.py",
        "charge_ops": SetByTests(
            ("tests/serve/test_attachment_pool.py",),
            "the cycle-transparent service plane that the 'pool of one is "
            "direct attach' contract compares with"),
        "max_procs": E2E,
        "overload": "src/repro/bench/overload.py",
    },
    OverloadConfig: {
        "admission_rate_per_us": "src/repro/bench/overload.py",
        "admission_burst": "src/repro/bench/overload.py",
        "deadline_us": "src/repro/bench/overload.py",
        "breaker_window_us": "src/repro/cli.py",
        "retry_budget": "src/repro/cli.py",
    },
    PoolConfig: {
        "max_attachments": "src/repro/bench/serve.py",
        "overflow": SetByTests(
            ("tests/serve/test_attachment_pool.py",
             "tests/serve/test_overload_serve.py",
             "tests/telemetry/test_observation_digests.py"),
            "the pool's stats() reports it and "
            "tests/telemetry/golden/serve_status.json pins it, so it goes "
            "only with a re-baseline of its own"),
    },
}


@functools.lru_cache(maxsize=None)
def _keywords(path: str) -> FrozenSet[str]:
    """The keyword-argument names of every call in the file at ``path``."""
    tree = ast.parse((ROOT / path).read_text())
    return frozenset(keyword.arg for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     for keyword in node.keywords if keyword.arg)


def _sets(path: str, field: str) -> bool:
    return field in _keywords(path)


@pytest.mark.parametrize("config", list(CENSUS),
                         ids=lambda config: config.__name__)
def test_census_lists_exactly_the_fields(config):
    assert sorted(CENSUS[config]) == sorted(
        field.name for field in dataclasses.fields(config))


@pytest.mark.parametrize(
    "config, field",
    [(config, field) for config, entries in CENSUS.items()
     for field in entries],
    ids=lambda value: getattr(value, "__name__", value))
def test_field_names_a_setter(config, field):
    entry = CENSUS[config][field]
    if isinstance(entry, SetByTests):
        assert entry.reason
        for path in entry.tests:
            assert path.startswith("tests/")
            assert _sets(path, field), f"{path} does not set {field}"
    else:
        assert not entry.startswith("tests/")
        assert _sets(entry, field), f"{entry} does not set {field}"
