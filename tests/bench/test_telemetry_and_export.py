"""Harness JSON export, the abl-adaptive registration, the pool fairness
leg, the surfaced cache/broker stats, and the ``repro stats`` command."""

import json

import pytest

from repro.bench.harness import (
    EXPERIMENTS,
    experiment_payload,
    export_payload,
    run_experiment,
    to_jsonable,
)
from repro.bench.pool import run_pool_sweep
from repro.bench.throughput import run_throughput
from repro.cli import main as cli_main
from repro.workloads.traffic import TrafficSpec, run_traffic


class TestJsonExport:
    def test_run_experiment_writes_bench_json(self, tmp_path):
        run = run_experiment("fig7", export_dir=str(tmp_path))
        path = tmp_path / "BENCH_fig7.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "fig7"
        assert payload["rendered"] == run.rendered
        assert "OpenBSD" in payload["rendered"]

    def test_exports_carry_peak_rss(self, tmp_path):
        """Every payload records the process memory high-water mark at the
        top level — outside ``data``, so the byte-exact gate ignores it."""
        run = run_experiment("fig7", export_dir=str(tmp_path))
        payload = json.loads((tmp_path / "BENCH_fig7.json").read_text())
        assert "peak_rss_bytes" in payload
        # this host is POSIX: the value must be a plausible byte count
        assert isinstance(payload["peak_rss_bytes"], int)
        assert payload["peak_rss_bytes"] > 1024 * 1024
        assert "peak_rss_bytes" not in (payload["data"] or {})
        del run

    def test_run_experiment_without_export_dir_writes_nothing(self, tmp_path,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment("fig7")
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_to_jsonable_handles_the_awkward_shapes(self):
        from enum import Enum

        class Kind(Enum):
            A = "a"

        value = {"t": (1, 2), "e": Kind.A, "s": {3}, "o": object()}
        out = to_jsonable(value)
        assert out["t"] == [1, 2] and out["e"] == "a" and out["s"] == [3]
        assert isinstance(out["o"], str)
        json.dumps(out)

    def test_stack_slots_export_field_by_field(self):
        """Figure 3 checkpoints keep their ``{kind, value}`` export shape."""
        from repro.secmodule.stubs import SlotKind, StackSlot
        out = to_jsonable((StackSlot(SlotKind.ARG, 41),
                           StackSlot(SlotKind.FRAME_POINTER, 7)))
        assert out == [{"kind": "arg", "value": 41},
                       {"kind": "fp", "value": 7}]

    def test_payloads_of_every_experiment_kind_serialize(self, tmp_path):
        # a dataclass report (as_dict), a dataclass without one, and an
        # arbitrary object all must export without raising
        for experiment_id in ("fig7", "abl-pool"):
            spec = EXPERIMENTS[experiment_id]
            result = spec.runner() if experiment_id == "fig7" else \
                run_pool_sweep(seats=(1, 2), sessions=4, calls_per_session=1)
            payload = experiment_payload(experiment_id, spec.title, spec.kind,
                                         result, "rendered")
            export_payload(payload, str(tmp_path))
            json.loads((tmp_path /
                        f"BENCH_{experiment_id}.json").read_text())


class TestAdaptiveRegistration:
    def test_abl_adaptive_in_experiments_table(self):
        assert "abl-adaptive" in EXPERIMENTS
        assert EXPERIMENTS["abl-adaptive"].kind == "ablation"

    def test_cli_bench_adaptive_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["bench", "adaptive", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "adaptive within 20% of best static depth: yes" in out
        assert "depth adapted up then back down across the mmpp cycle: yes" \
            in out
        payload = json.loads((tmp_path / "BENCH_abl-adaptive.json").read_text())
        assert payload["data"]["within_20_percent"] is True


class TestPoolFairnessLeg:
    @pytest.fixture(scope="class")
    def report(self):
        return run_pool_sweep(seats=(1, 8), sessions=16, calls_per_session=2)

    def test_fairness_leg_present_with_pooled_handles(self, report):
        fairness = report.fairness
        assert fairness is not None
        assert fairness.handles            # at least one shared handle
        for entry in fairness.handles.values():
            assert entry["clients"] > 1
            assert 0.0 < entry["jain_fairness"] <= 1.0
            for stats in entry["per_client"].values():
                assert stats["p95_us"] >= stats["mean_us"] * 0.0
                assert stats["count"] > 0

    def test_symmetric_offered_load_is_nearly_fair(self, report):
        assert report.fairness.worst_jain() > 0.8

    def test_render_reports_p95_and_jain(self, report):
        text = report.render()
        assert "Jain fairness" in text
        assert "per-client queueing-delay p95" in text
        assert "broker stats by seats/handle" in text
        assert "decision cache" in text

    def test_fairness_leg_can_be_skipped(self):
        report = run_pool_sweep(seats=(1,), sessions=2, calls_per_session=1,
                                fairness=False)
        assert report.fairness is None


class TestSurfacedStats:
    def test_throughput_render_shows_cache_and_broker_stats(self):
        report = run_throughput(clients=4, modules=2, calls_per_client=6,
                                include_open_loop=False)
        text = report.render()
        assert "cache_stats (cached run):" in text
        assert "evictions=0" in text
        assert "broker_stats (cached run):" in text
        assert "handles_forked=8" in text         # 4 clients x 2 modules

    def test_traffic_telemetry_snapshot_is_attached_and_free(self):
        spec = TrafficSpec(clients=2, modules=1, calls_per_client=8,
                           arrival="open", seed=3)
        plain = run_traffic(spec)
        observed = run_traffic(TrafficSpec(clients=2, modules=1,
                                           calls_per_client=8,
                                           arrival="open", seed=3,
                                           telemetry=True))
        assert observed.total_cycles == plain.total_cycles
        histograms = observed.metrics["histograms"]
        assert any(name.startswith("dispatch_latency_us")
                   for name in histograms)
        assert plain.metrics == {}


class TestStatsCommand:
    def test_stats_live(self, capsys):
        assert cli_main(["stats", "--live", "--clients", "2",
                         "--sample-calls", "4"]) == 0
        out = capsys.readouterr().out
        assert "live metrics" in out
        assert "dispatch_latency_us" in out
        assert "ops (top 12 by cycles):" in out

    def test_stats_reads_bench_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_experiment("fig7", export_dir=str(tmp_path))
        assert cli_main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_fig7.json" in out and "[fig7]" in out

    def test_stats_falls_back_to_live_when_no_files(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["stats", "--clients", "2",
                         "--sample-calls", "4"]) == 0
        assert "live metrics" in capsys.readouterr().out
