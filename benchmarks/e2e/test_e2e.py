"""Smoke test of the end-to-end benchmark: every workload at a smoke size,
untraced and traced, in this process (the benchmark itself runs each
workload in a fresh process; the measuring code is the same)."""

from __future__ import annotations

import types
from array import array
from collections import Counter

import pytest

import e2e_bench
import e2e_layers
import run
from e2e_layers import SpanRecorder, entry_point_attributes, group_of_ops
from e2e_workloads import WORKLOADS
from repro.sim import costs

SPEC = e2e_bench.load_spec()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("e2e-traces")
    before = entry_point_attributes()
    results = {}
    for name in WORKLOADS:
        # the warm-up rep plus one timed rep: two digests to compare
        untraced = e2e_bench.measure_untraced(name, 1, smoke=True,
                                              min_reps=1)
        traced = e2e_bench.measure_traced(name, 1, trace_dir, smoke=True)
        results[name] = e2e_bench.assemble(untraced, traced, SPEC)
    return before, results


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_printed_metric_names_match_benchmark_json(smoke_run):
    _, results = smoke_run
    for section in ("end_to_end", "per_layer"):
        declared = [metric["name"] for metric in SPEC[section]]
        for result in results.values():
            assert sorted(result[section]) == sorted(declared)
            text = e2e_bench.render(result, SPEC)
            for name in declared:
                assert f" {name} " in text
        line = e2e_bench.final_line([next(iter(results.values()))], SPEC,
                                    traced=section == "per_layer",
                                    gate_ok=True)
        assert sorted(line["metrics"]) == sorted(declared)


def test_shims_restore_the_original_methods(smoke_run):
    before, results = smoke_run
    assert entry_point_attributes() == before
    assert all(r["checks"]["shims_restored"] for r in results.values())
    assert all(not r["missing_entry_points"] for r in results.values())


def test_traced_digest_equals_untraced(smoke_run):
    _, results = smoke_run
    for result in results.values():
        assert result["checks"]["traced_digest_equal"], result["workload"]


def test_every_smoke_check_passes(smoke_run):
    _, results = smoke_run
    for result in results.values():
        assert result["correct"], (result["workload"], result["checks"])
        assert result["failed"] == 0


def test_seconds_adds_timed_reps(smoke_run):
    # the form a benchmark runner invokes, with BENCHMARK.json's run_seconds
    args = run.parse_args(["--workload", "ff-steady", "--seed", "2",
                           "--seconds", str(SPEC["run_seconds"]),
                           "--trace", "0"])
    assert args.seconds == SPEC["run_seconds"]
    # without --seconds a run is exactly its minimum of reps
    assert run.parse_args([]).seconds == 0.0
    _, results = smoke_run
    assert all(result["reps"] == 1 for result in results.values())
    timed = e2e_bench.measure_untraced("ff-steady", 1, seconds=0.3,
                                       smoke=True, min_reps=1)
    assert len(timed["reps"]) > 1
    assert timed["reps_identical"]


def test_host_times_are_scaled_by_the_probe():
    untraced = e2e_bench.measure_untraced("ff-steady", 1, smoke=True,
                                          min_reps=1)
    assert all(rep["probe_s"] > 0 for rep in untraced["reps"])
    # the same rep, had the host run at half speed throughout
    slow = dict(untraced, reps=[
        dict(rep, run_s=2 * rep["run_s"], setup_s=2 * rep["setup_s"],
             probe_s=2 * rep["probe_s"]) for rep in untraced["reps"]])
    base = e2e_bench.assemble(untraced, None, SPEC)
    halved = e2e_bench.assemble(slow, None, SPEC)
    for metric in ("ops_per_host_s", "setup_s"):
        assert halved["end_to_end"][metric] == pytest.approx(
            base["end_to_end"][metric])
    assert halved["raw_ops_per_host_s"] == pytest.approx(
        base["raw_ops_per_host_s"] / 2)


def test_self_shares_are_of_the_measured_total(smoke_run):
    _, results = smoke_run
    for result in results.values():
        assert result["checks"]["self_shares_sum_to_1"], result["workload"]
    self_ns = {layer: 0 for layer in e2e_layers.LAYERS}
    self_ns["sim"] = 900
    entries = dict.fromkeys(e2e_layers.LAYERS, 1)
    # a tenth of the measured time outside every span shows in the sum
    table = e2e_layers.layer_table(self_ns, entries, 1, 1000.0)
    assert sum(row[0] for row in table.values()) == pytest.approx(0.9)


def test_traffic_accounting_counts_unserved_calls():
    # an engine that reports 10 calls, 2 denied, but ran no function body
    result = types.SimpleNamespace(
        total_calls=10, denied_calls=2, adaptive={},
        latencies_us=array("d"), queue_delays_us=array("d"))
    engine = types.SimpleNamespace(
        machine=types.SimpleNamespace(
            meter=types.SimpleNamespace(op_counts=Counter())),
        spec=types.SimpleNamespace(clients=2, calls_per_client=5),
        run=lambda: result)
    assert WORKLOADS["ff-steady"].drive(engine, None).failed == 8


def test_virtual_groups_cover_all_operations():
    assert sorted(group_of_ops(costs)) == sorted(costs.ALL_OPERATIONS)
    unowned = types.SimpleNamespace(
        **{constant: getattr(costs, constant)
           for constants in e2e_layers.VIRTUAL_GROUPS.values()
           for constant in constants},
        ALL_OPERATIONS=costs.ALL_OPERATIONS + ("new_op",))
    with pytest.raises(ValueError, match="without a virtual group"):
        group_of_ops(unowned)


def test_missing_entry_point_is_reported_not_raised(monkeypatch):
    points = dict(e2e_layers.ENTRY_POINTS)
    points["sim"] = points["sim"] + (
        ("repro.sim.costs", "CostMeter", "no_such_method"),)
    monkeypatch.setattr(e2e_layers, "ENTRY_POINTS", points)
    before = entry_point_attributes()
    recorder = SpanRecorder()
    recorder.install()
    recorder.restore()
    assert recorder.missing_entry_points == ["CostMeter.no_such_method"]
    assert entry_point_attributes() == before


@pytest.mark.parametrize("base, new, expected", [
    ([100, 101, 99, 100] * 3, [120, 121, 119, 120] * 3, "improved"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "unresolved"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "worse"),
    ([100, 101, 99, 100], [99, 100, 101, 100], "unchanged"),
    ([60, 100, 140, 100], [90, 100, 110, 100], "unresolved"),
    ([3838.0, 3838.0], [3838.0, 3838.0], "unchanged"),
    ([3838.0, 3838.0], [3839.0, 3839.0], "improved"),
])
def test_compare_verdicts(base, new, expected):
    # "higher is better", like ops_per_host_s, with a 10% bound
    assert e2e_bench.verdict(base, new, bound=0.10, better="higher") \
        == expected
