"""Traffic through the service plane, and the compiled-out contract."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import SimulationError
from repro.workloads.traffic import TrafficSpec, run_traffic


class TestViaService:
    def test_closed_loop_traffic_through_the_front_end(self):
        spec = TrafficSpec(clients=3, modules=2, calls_per_client=6,
                           via_service=True, seed=0xFACE)
        result = run_traffic(spec)
        assert result.total_calls == 18
        assert 0 <= result.denied_calls < 18
        assert len(result.latencies_us) == 18
        # every call crossed the RPC boundary: latency includes the ~63us
        # round trip, far above the ~6.4us direct dispatch
        assert result.latency_percentile(50) > 50.0

    def test_open_loop_traffic_records_queue_delays(self):
        spec = TrafficSpec(clients=4, modules=1, calls_per_client=8,
                           arrival="open", mean_interval_us=25.0,
                           via_service=True, seed=0xBEEF)
        result = run_traffic(spec)
        assert result.total_calls == 32
        assert len(result.queue_delays_us) == 32

    def test_deterministic_across_runs(self):
        spec = TrafficSpec(clients=3, modules=2, calls_per_client=5,
                           via_service=True, seed=42)
        first = run_traffic(spec)
        second = run_traffic(spec)
        assert first.total_cycles == second.total_cycles
        assert first.denied_calls == second.denied_calls
        assert list(first.latencies_us) == list(second.latencies_us)

    def test_via_service_rejects_batched_dispatch(self):
        with pytest.raises(SimulationError, match="per-call"):
            TrafficSpec(clients=2, via_service=True, batch_size=4)
        with pytest.raises(SimulationError, match="mutually exclusive"):
            TrafficSpec(clients=2, via_service=True, adaptive_batch=True,
                        arrival="open")


class TestCompiledOut:
    def test_default_traffic_never_builds_a_front_end(self):
        spec = TrafficSpec(clients=2, modules=1, calls_per_client=4, seed=9)
        from repro.workloads.traffic import TrafficEngine
        engine = TrafficEngine(spec)
        engine.build()
        assert engine.frontend is None

    def test_paper_default_run_never_imports_the_service_plane(self):
        """The differential compiled-out assertion: a paper-default traffic
        run in a fresh interpreter must not even import ``repro.serve`` —
        the service plane cannot perturb what it never touches."""
        code = (
            "import sys\n"
            "from repro.workloads.traffic import TrafficSpec, run_traffic\n"
            "run_traffic(TrafficSpec(clients=2, modules=1,"
            " calls_per_client=4, seed=9))\n"
            "leaked = [m for m in sys.modules if m.startswith('repro.serve')]\n"
            "sys.exit(1 if leaked else 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_default_spec_cycles_unchanged_by_service_plane_activity(self):
        """Byte-identity: a default run's cycle total is the same whether or
        not a service plane was exercised earlier in the process."""
        spec = TrafficSpec(clients=2, modules=1, calls_per_client=4, seed=9)
        baseline = run_traffic(spec).total_cycles
        served = run_traffic(
            TrafficSpec(clients=2, modules=1, calls_per_client=4,
                        via_service=True, seed=9)).total_cycles
        again = run_traffic(spec).total_cycles
        assert baseline == again
        assert served != baseline      # the service plane is NOT free
