"""Policy-complexity workloads.

The paper's conclusion predicts that evaluating "more complex policy
statements" will slow protected calls "in proportion to the complexity of
the required access control check".  These workloads quantify that claim:

* :func:`run_policy_chain_sweep` sweeps a synthetic conjunction of N
  unit-cost clauses (N = 0 reproduces the measured always-allow baseline);
* :func:`run_keynote_policy` measures the KeyNote-style trust-management
  engine the paper planned as future work, for a small realistic assertion
  set and for deeper delegation chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..hw.machine import make_paper_machine
from ..secmodule.keynote import (
    Assertion,
    KeyNoteEngine,
    KeyNotePolicy,
    MAX_TRUST,
    POLICY_AUTHORIZER,
)
from ..secmodule.policy import synthetic_chain
from ..sim.stats import MeasurementSummary, mean, ordered_sum
from .microbench import BenchmarkSpec, PAPER_SPECS, run_smod_function

#: Chain lengths the policy ablation sweeps.
DEFAULT_CHAIN_LENGTHS: Sequence[int] = (0, 1, 2, 4, 8, 16, 32, 64)


@dataclass
class PolicySweepPoint:
    """One point of the policy-complexity sweep."""

    label: str
    complexity: int
    summary: MeasurementSummary

    @property
    def mean_us_per_call(self) -> float:
        return self.summary.mean_us_per_call


@dataclass
class PolicySweepResult:
    points: List[PolicySweepPoint] = field(default_factory=list)

    def overhead_vs_baseline(self) -> Dict[int, float]:
        """Extra µs/call of each point relative to the zero-clause baseline."""
        if not self.points:
            return {}
        baseline = self.points[0].mean_us_per_call
        return {p.complexity: p.mean_us_per_call - baseline for p in self.points}

    def per_clause_cost_us(self) -> float:
        """Least-squares slope of µs/call against clause count."""
        if len(self.points) < 2:
            return 0.0
        xs = [p.complexity for p in self.points]
        ys = [p.mean_us_per_call for p in self.points]
        mean_x = mean(xs)
        mean_y = mean(ys)
        num = ordered_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        den = ordered_sum((x - mean_x) ** 2 for x in xs)
        return num / den if den else 0.0


def _sweep_spec(trials: int, sample_calls: int) -> BenchmarkSpec:
    return PAPER_SPECS["smod_testincr"].scaled(trials=trials,
                                               sample_calls=sample_calls)


def run_policy_chain_sweep(lengths: Sequence[int] = DEFAULT_CHAIN_LENGTHS, *,
                           trials: int = 3, sample_calls: int = 24,
                           seed: int = 4000) -> PolicySweepResult:
    """Measure SMOD(test-incr) under synthetic policy chains of varying length."""
    result = PolicySweepResult()
    spec = _sweep_spec(trials, sample_calls)
    for length in lengths:
        policy = synthetic_chain(length)
        summary = run_smod_function("test_incr", args=(41,), spec=spec,
                                    seed=seed + length, policy=policy,
                                    machine_factory=make_paper_machine)
        result.points.append(PolicySweepPoint(
            label=f"chain-{length}", complexity=length, summary=summary))
    return result


def deep_delegation_engine(depth: int, *, licensee: str = "alice") -> KeyNoteEngine:
    """A delegation chain of ``depth`` intermediaries ending at ``licensee``."""
    assertions = [Assertion(authorizer=POLICY_AUTHORIZER,
                            licensees=("issuer-0",), comment="root")]
    for level in range(depth):
        assertions.append(Assertion(
            authorizer=f"issuer-{level}",
            licensees=(f"issuer-{level + 1}",),
            conditions='app_domain == "SecModule"',
            comment=f"delegation level {level}"))
    assertions.append(Assertion(
        authorizer=f"issuer-{depth}", licensees=(licensee,),
        conditions='app_domain == "SecModule" && calls < 100000',
        comment="final grant"))
    return KeyNoteEngine(assertions)


def run_keynote_policy(depths: Sequence[int] = (0, 2, 4, 8), *,
                       trials: int = 3, sample_calls: int = 16,
                       seed: int = 5000) -> PolicySweepResult:
    """Measure SMOD(test-incr) under KeyNote delegation chains of varying depth."""
    result = PolicySweepResult()
    spec = _sweep_spec(trials, sample_calls)
    for depth in depths:
        policy = KeyNotePolicy(deep_delegation_engine(depth),
                               required_value=MAX_TRUST)
        summary = run_smod_function("test_incr", args=(41,), spec=spec,
                                    seed=seed + depth, policy=policy,
                                    machine_factory=make_paper_machine)
        result.points.append(PolicySweepPoint(
            label=f"keynote-depth-{depth}", complexity=depth, summary=summary))
    return result
