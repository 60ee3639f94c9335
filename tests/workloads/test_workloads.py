"""Tests for the microbenchmark drivers and policy workloads."""

from types import SimpleNamespace

import pytest

from repro.hw.machine import make_paper_machine
from repro.secmodule.policy import synthetic_chain
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import MeasurementSummary, TrialResult
from repro.workloads.microbench import (
    PAPER_SPECS,
    _run_trials,
    run_native_getpid,
    run_rpc_testincr,
    run_smod_getpid,
    run_smod_testincr,
)
from repro.workloads.policies import (
    PolicySweepPoint,
    PolicySweepResult,
    deep_delegation_engine,
    run_keynote_policy,
)


class TestSpecs:
    def test_paper_specs_match_figure8_counts(self):
        assert PAPER_SPECS["getpid"].calls_per_trial == 1_000_000
        assert PAPER_SPECS["smod_getpid"].calls_per_trial == 1_000_000
        assert PAPER_SPECS["smod_testincr"].calls_per_trial == 1_000_000
        assert PAPER_SPECS["rpc_testincr"].calls_per_trial == 100_000
        assert all(spec.trials == 10 for spec in PAPER_SPECS.values())

    def test_scaled_overrides_only_what_is_given(self):
        spec = PAPER_SPECS["getpid"].scaled(trials=2)
        assert spec.trials == 2
        assert spec.calls_per_trial == 1_000_000
        assert spec.sample_calls == PAPER_SPECS["getpid"].sample_calls


class TestDrivers:
    def test_native_getpid_summary(self):
        spec = PAPER_SPECS["getpid"].scaled(trials=2, sample_calls=8)
        summary = run_native_getpid(spec, seed=1)
        assert summary.num_trials == 2
        assert summary.mean_us_per_call == pytest.approx(0.658, abs=0.01)

    def test_smod_testincr_summary(self):
        spec = PAPER_SPECS["smod_testincr"].scaled(trials=2, sample_calls=8)
        summary = run_smod_testincr(spec=spec, seed=2)
        assert summary.mean_us_per_call == pytest.approx(6.407, abs=0.4)

    def test_smod_getpid_slightly_slower_than_testincr(self):
        getpid = run_smod_getpid(
            spec=PAPER_SPECS["smod_getpid"].scaled(trials=1, sample_calls=8), seed=3)
        testincr = run_smod_testincr(
            spec=PAPER_SPECS["smod_testincr"].scaled(trials=1, sample_calls=8), seed=3)
        assert getpid.mean_us_per_call > testincr.mean_us_per_call

    def test_rpc_summary(self):
        spec = PAPER_SPECS["rpc_testincr"].scaled(trials=2, sample_calls=8)
        summary = run_rpc_testincr(spec, seed=4)
        assert summary.mean_us_per_call == pytest.approx(63.2, rel=0.06)

    def test_determinism_same_seed(self):
        spec = PAPER_SPECS["smod_testincr"].scaled(trials=2, sample_calls=8)
        a = run_smod_testincr(spec=spec, seed=9)
        b = run_smod_testincr(spec=spec, seed=9)
        assert a.per_call_samples == b.per_call_samples

    def test_jitter_mean_preserving(self):
        spec = PAPER_SPECS["smod_getpid"].scaled(trials=4, sample_calls=8)
        summary = run_smod_getpid(spec=spec, seed=10)
        factors = [t.jitter_factor for t in summary.trials]
        assert sum(factors) / len(factors) == pytest.approx(1.0, abs=1e-9)

    def test_jitter_normalized_by_the_in_order_mean(self, monkeypatch):
        """Raw factors 0.1, 0.2 and 0.3 average 0.20000000000000004 in
        order (0.19999999999999998 compensated)."""
        raw = iter([0.1, 0.2, 0.3])
        monkeypatch.setattr(DeterministicRNG, "lognormal_factor",
                            lambda self, sigma: next(raw))
        summary = _run_trials(
            PAPER_SPECS["getpid"].scaled(trials=3, sample_calls=1), seed=1,
            make_system=lambda seed: SimpleNamespace(
                machine=make_paper_machine(seed=seed)),
            run_one_call=lambda system, i: system.machine.clock.advance(1),
            mhz=600.0)
        assert [t.jitter_factor for t in summary.trials] == [
            j / 0.20000000000000004 for j in (0.1, 0.2, 0.3)]

    def test_policy_argument_slows_calls(self):
        spec = PAPER_SPECS["smod_testincr"].scaled(trials=1, sample_calls=8)
        baseline = run_smod_testincr(spec=spec, seed=11)
        from repro.workloads.microbench import run_smod_function
        with_policy = run_smod_function("test_incr", args=(41,), spec=spec,
                                        seed=11, policy=synthetic_chain(16))
        assert with_policy.mean_us_per_call > baseline.mean_us_per_call


class TestPolicySweepSlope:
    def test_slope_adds_in_order(self):
        """Means 0.1, 0.3 and 0.7 us at 0, 1 and 2 clauses: the in-order
        slope is 0.3 (0.29999999999999993 compensated)."""
        points = []
        for clauses, tenths in enumerate((1, 3, 7)):
            summary = MeasurementSummary("x", calls_per_trial=1)
            summary.add(TrialResult("x", calls=1, total_cycles=tenths,
                                    mhz=10.0))
            points.append(PolicySweepPoint(f"chain-{clauses}", clauses,
                                           summary))
        assert PolicySweepResult(points).per_clause_cost_us() == 0.3


class TestKeyNoteWorkload:
    def test_deep_delegation_engine_grants_final_licensee(self):
        engine = deep_delegation_engine(3, licensee="alice")
        result = engine.query("alice", {"app_domain": "SecModule", "calls": 1})
        assert result.value == "_MAX_TRUST"

    def test_keynote_sweep_cost_grows_with_depth(self):
        sweep = run_keynote_policy(depths=(0, 6), trials=1, sample_calls=6)
        assert sweep.points[0].mean_us_per_call < sweep.points[1].mean_us_per_call
