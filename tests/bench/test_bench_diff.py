"""The ``repro bench diff`` regression gate."""

from __future__ import annotations

import copy
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.bench.diff import (
    BenchDiffError,
    compare_payloads,
    diff_files,
    load_payload,
)
from repro.bench.harness import experiment_payload, export_payload

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def make_payload(**data_overrides):
    data = {
        "total_cycles": 1_000_000,
        "points": [
            {"batch_size": 1, "cycles": 400_000, "us_per_call": 6.4},
            {"batch_size": 8, "cycles": 100_000, "us_per_call": 0.8},
        ],
        "op_counts": {"context_switch": 400, "trap_entry": 200},
        "calls_per_second": 156_000.0,
        "wall_seconds": 3.21,           # machine-dependent: never compared
    }
    data.update(data_overrides)
    return {"experiment": "abl-test", "title": "t", "kind": "ablation",
            "params": {"calls": 192, "fast": False}, "data": data,
            "rendered": "", "wall_seconds": 1.0,
            "calls_per_wall_second": 123.0}


class TestCompare:
    def test_identical_payloads_pass(self):
        diff = compare_payloads(make_payload(), make_payload())
        assert diff.ok and not diff.items
        assert diff.compared > 0

    def test_cycle_increase_fails(self):
        new = make_payload(total_cycles=1_000_001)
        diff = compare_payloads(make_payload(), new)
        assert not diff.ok
        assert [i.path for i in diff.regressions] == ["data.total_cycles"]

    def test_nested_cycle_increase_fails(self):
        new = make_payload()
        new["data"]["points"][1]["cycles"] += 5
        diff = compare_payloads(make_payload(), new)
        assert not diff.ok

    def test_microsecond_increase_fails(self):
        new = make_payload()
        new["data"]["points"][0]["us_per_call"] = 6.5
        diff = compare_payloads(make_payload(), new)
        assert not diff.ok

    def test_cycle_decrease_fails(self):
        """A run that got cheaper drifted as much as one that got dearer:
        a settle that skips a charged switch makes a run cheaper."""
        new = make_payload(total_cycles=900_000)
        diff = compare_payloads(make_payload(), new)
        assert not diff.ok
        assert [i.path for i in diff.regressions] == ["data.total_cycles"]
        assert "REGRESSION" in diff.render()
        assert "FAIL" in diff.render()

    def test_count_change_fails(self):
        """Any numeric leaf is gated, whatever its key names."""
        new = make_payload(calls_per_second=150_000.0)
        new["data"]["op_counts"]["trap_entry"] = 199
        diff = compare_payloads(make_payload(), new)
        assert not diff.ok
        assert [i.path for i in diff.regressions] == [
            "data.calls_per_second", "data.op_counts.trap_entry"]

    def test_wall_fields_ignored(self):
        new = make_payload(wall_seconds=99.0)
        new["wall_seconds"] = 42.0
        new["calls_per_wall_second"] = 7.0
        diff = compare_payloads(make_payload(), new)
        assert diff.ok and not diff.items

    def test_wall_rate_drop_warns_without_failing(self):
        """>10% calls_per_wall_second drop: non-fatal warning, printed."""
        new = make_payload()
        new["calls_per_wall_second"] = 100.0     # 123 -> 100 is ~18.7% down
        diff = compare_payloads(make_payload(), new)
        assert diff.ok and not diff.items
        assert len(diff.warnings) == 1
        assert "calls_per_wall_second" in diff.warnings[0]
        assert "WARNING" in diff.render()
        assert "PASS" in diff.render()

    def test_wall_rate_within_band_stays_silent(self):
        new = make_payload()
        new["calls_per_wall_second"] = 111.0     # 123 -> 111 is within 10%
        diff = compare_payloads(make_payload(), new)
        assert diff.ok and not diff.warnings
        # improvements never warn either
        faster = make_payload()
        faster["calls_per_wall_second"] = 500.0
        assert not compare_payloads(make_payload(), faster).warnings

    def test_wall_rate_band_tolerates_missing_fields(self):
        old = make_payload()
        new = make_payload()
        del old["calls_per_wall_second"]
        assert not compare_payloads(old, new).warnings
        del new["calls_per_wall_second"]
        assert not compare_payloads(make_payload(), new).warnings

    def test_rel_tol_loosens_the_gate(self):
        new = make_payload(total_cycles=1_000_001)
        assert compare_payloads(make_payload(), new, rel_tol=0.01).ok
        assert not compare_payloads(make_payload(), new, rel_tol=0.0).ok

    def test_rel_tol_is_symmetric(self):
        for cycles in (989_999, 1_010_001):
            new = make_payload(total_cycles=cycles)
            assert not compare_payloads(make_payload(), new,
                                        rel_tol=0.01).ok
        for cycles in (990_000, 1_010_000):
            new = make_payload(total_cycles=cycles)
            diff = compare_payloads(make_payload(), new, rel_tol=0.01)
            assert diff.ok and len(diff.items) == 1
            assert "within tolerance" in diff.render()

    def test_zero_leaf_that_moves_fails_under_any_tolerance(self):
        old = make_payload()
        old["data"]["op_counts"]["context_switch"] = 0
        assert not compare_payloads(old, make_payload(), rel_tol=0.5).ok

    def test_different_experiments_rejected(self):
        other = make_payload()
        other["experiment"] = "abl-other"
        with pytest.raises(BenchDiffError):
            compare_payloads(make_payload(), other)

    def test_different_params_rejected(self):
        """A smoke run must never be diffed against a canonical baseline."""
        smoke = make_payload()
        smoke["params"] = {"calls": 16, "fast": True}
        with pytest.raises(BenchDiffError):
            compare_payloads(make_payload(), smoke)

    def test_schema_drift_fails(self):
        new = make_payload()
        new["data"]["new_metric"] = 5
        del new["data"]["calls_per_second"]
        diff = compare_payloads(make_payload(), new)
        assert not diff.ok and not diff.items
        assert diff.only_new == ["data.new_metric"]
        assert diff.only_old == ["data.calls_per_second"]
        assert "only in new export" in diff.render()
        assert "only in old export" in diff.render()
        gained = make_payload(new_metric=5)
        assert not compare_payloads(make_payload(), gained).ok
        assert not compare_payloads(gained, make_payload()).ok

    def test_mutated_baseline_copy_fails(self):
        """The committed abl-batch baseline, with one point 488 cycles and
        two context switches cheaper and another without its traps leaf:
        every change is drift, none an improvement."""
        old = load_payload(str(BASELINES / "BENCH_abl-batch.json"))
        new = copy.deepcopy(old)
        assert compare_payloads(old, new).ok
        new["data"]["points"][3]["cycles"] -= 488
        new["data"]["points"][3]["context_switches"] -= 2
        del new["data"]["points"][5]["traps"]
        diff = compare_payloads(old, new)
        assert not diff.ok
        assert [i.path for i in diff.regressions] == [
            "data.points[3].context_switches", "data.points[3].cycles"]
        assert diff.only_old == ["data.points[5].traps"]
        assert diff.render().endswith("FAIL: virtual numbers drifted")

    def test_versions_are_recorded_outside_params_and_data(self):
        payload = experiment_payload("abl-x", "t", "ablation", None, "body",
                                     params={"calls": 1})
        assert payload["python"] == platform.python_version()
        assert payload["numpy"] == np.__version__
        assert payload["params"] == {"calls": 1}
        assert payload["data"] is None

    def test_runs_on_different_versions_compare(self):
        old = make_payload()
        old.update(python="3.11.7", numpy="2.4.6")
        same = copy.deepcopy(old)
        assert "versions" not in compare_payloads(old, same).render()
        newer = make_payload()
        newer.update(python="3.12.1", numpy="2.4.6")
        diff = compare_payloads(old, newer)
        assert diff.ok
        assert ("versions: old python 3.11.7, numpy 2.4.6; "
                "new python 3.12.1, numpy 2.4.6") in diff.render()
        unrecorded = compare_payloads(make_payload(), old).render()
        assert ("versions: old python unrecorded, numpy unrecorded; "
                "new python 3.11.7, numpy 2.4.6") in unrecorded


class TestCli:
    def test_cli_bench_simspeed_fast_exports(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main as cli_main
        monkeypatch.chdir(tmp_path)
        assert cli_main(["bench", "simspeed", "--fast", "--calls",
                         "800"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        payload = json.loads((tmp_path / "BENCH_abl-simspeed.json")
                             .read_text())
        assert payload["experiment"] == "abl-simspeed"
        assert payload["wall_seconds"] > 0
        assert payload["calls_per_wall_second"] > 0

    def test_cli_bench_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        old = make_payload()
        ok = copy.deepcopy(old)
        bad = copy.deepcopy(old)
        bad["data"]["total_cycles"] += 1
        paths = {}
        for name, payload in (("old", old), ("ok", ok), ("bad", bad)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            paths[name] = str(path)
        assert cli_main(["bench", "diff", paths["old"], paths["ok"]]) == 0
        capsys.readouterr()
        assert cli_main(["bench", "diff", paths["old"], paths["bad"]]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert cli_main(["bench", "diff", paths["old"],
                         str(tmp_path / "missing.json")]) == 2

    def test_cli_bench_simspeed_mismatch_exits_one(self, tmp_path,
                                                   monkeypatch, capsys):
        """A tier-accounting divergence must fail the CI smoke, not just
        print MISMATCH."""
        import dataclasses
        import functools

        import repro.cli
        from repro.bench.harness import EXPERIMENTS
        from repro.bench.simspeed import (
            FAST_FORWARD, OP_BY_OP, SimspeedLeg, SimspeedReport, run_simspeed)

        # keeps run_simspeed's signature, which the registry reads the
        # canonical parameters from
        @functools.wraps(run_simspeed)
        def diverging(**_):
            report = SimspeedReport(calls=8, clients=4, modules=1, seed=0,
                                    identity_calls=8, workers_identical=True)
            for tier, cycles in ((OP_BY_OP, 1000), (FAST_FORWARD, 999)):
                report.legs.append(SimspeedLeg(
                    label=tier, tier=tier, total_calls=8, wall_seconds=0.1,
                    total_cycles=cycles, clock_events=40,
                    identity_leg=True))
            report.legs.append(SimspeedLeg(
                label=FAST_FORWARD, tier=FAST_FORWARD, total_calls=8,
                wall_seconds=0.01, total_cycles=999, clock_events=40))
            return report

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(EXPERIMENTS, "abl-simspeed", dataclasses.replace(
            EXPERIMENTS["abl-simspeed"], runner=diverging))
        assert repro.cli.main(["--no-export", "bench", "simspeed",
                               "--fast"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_simspeed_registered_in_harness(self):
        from repro.bench.harness import EXPERIMENTS
        assert "abl-simspeed" in EXPERIMENTS
        assert EXPERIMENTS["abl-simspeed"].kind == "ablation"


class TestFiles:
    def test_roundtrip_through_files(self, tmp_path):
        old = make_payload()
        new = copy.deepcopy(old)
        new["data"]["total_cycles"] += 1
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        diff = diff_files(str(old_path), str(new_path))
        assert not diff.ok
        assert "REGRESSION" in diff.render()

    def test_load_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"no": "experiment"}))
        with pytest.raises(BenchDiffError):
            load_payload(str(path))

    def test_harness_export_is_diffable_against_itself(self, tmp_path):
        """A real export (with wall fields) must self-compare clean."""
        class Result:
            total_calls = 10
            def as_dict(self):
                return {"total_cycles": 5, "rate_us": 1.5}
        payload = experiment_payload("abl-x", "t", "ablation", Result(),
                                     "body", wall_seconds=0.25)
        path = export_payload(payload, str(tmp_path))
        diff = diff_files(path, path)
        assert diff.ok and not diff.items
        exported = json.loads(open(path).read())
        assert exported["wall_seconds"] == 0.25
        assert exported["calls_per_wall_second"] == pytest.approx(40.0)
