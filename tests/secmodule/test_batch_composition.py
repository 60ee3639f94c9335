"""Composed batch flushes account exactly as the op-by-op flushes they
replace.

A batch flush that would record or confirm its key op by op settles from
an entry its group's :class:`~repro.secmodule.dispatch.BatchModel`
composes, once the model has fitted an exact integer base and per-pair
increments and predicted ``BATCH_MODEL_CONFIRMS`` further recordings.
The oracle is the same run with the model out of reach: every flush then
runs op by op, and every cycle, event, op count, latency and cache and
telemetry snapshot must match.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.secmodule import dispatch
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import BatchModel, DispatchConfig, TraceEntry
from repro.workloads.traffic import TrafficEngine, TrafficSpec

#: AIMD depths over bursty MMPP arrivals with telemetry on: many queue
#: shapes, each seen only a few times
SPEC = dict(clients=2, modules=2, calls_per_client=600, arrival="mmpp",
            adaptive_batch=True, telemetry=True, service_p95_target_us=40.0)
SEEDS = (1, 2, 3)
OUT_OF_REACH = 10 ** 9


def run(seed: int, monkeypatch, *, compose: bool = True, patches=(),
        calls: int = SPEC["calls_per_client"]):
    """Run the spec; its end state, and its engine."""
    with monkeypatch.context() as patch:
        if not compose:
            patch.setattr(dispatch, "BATCH_MODEL_CONFIRMS", OUT_OF_REACH)
        for target, name, value in patches:
            patch.setattr(target, name, value)
        engine = TrafficEngine(TrafficSpec(**dict(SPEC, seed=seed,
                                                  calls_per_client=calls)))
        engine.run()
    machine = engine.machine
    dispatcher = engine.extension.dispatcher
    state = {
        "cycles": machine.clock.cycles,
        "events": machine.clock.events,
        "ops": dict(sorted(machine.meter.op_counts.items())),
        "latencies": [c.latencies_us.tobytes() for c in engine.clients],
        "delays": [c.queue_delays_us.tobytes() for c in engine.clients],
        "trace_cache": dispatcher.trace_cache.snapshot(),
        "decision_cache": dispatcher.decision_cache.snapshot(),
        "telemetry": engine.telemetry.snapshot(),
        "calls": (dispatcher.calls_dispatched, dispatcher.calls_denied),
    }
    return state, engine


def composed(engine) -> int:
    return engine.extension.dispatcher.trace_cache.composed


def assert_matches(seed: int, monkeypatch, patches=()) -> None:
    """The differential: composed against op by op."""
    composed_state, engine = run(seed, monkeypatch, patches=patches)
    op_state, op_engine = run(seed, monkeypatch, compose=False)
    assert composed(op_engine) == 0
    assert composed(engine) > 0
    for name, value in op_state.items():
        assert composed_state[name] == value, name


@pytest.mark.parametrize("seed", SEEDS)
def test_composed_flushes_account_as_op_by_op(seed, monkeypatch):
    assert_matches(seed, monkeypatch)


def test_a_fault_in_the_fit_never_composes(monkeypatch):
    """One learned increment off by one: the model mispredicts the next
    recording and is discarded before it answers, so nothing composes and
    the differential fails."""
    solve = BatchModel._solve

    def off_by_one(model):
        solved = solve(model)
        if solved:
            model.coef[1][0] += 1
        return solved

    patches = [(BatchModel, "_solve", off_by_one)]
    _, engine = run(1, monkeypatch, patches=patches)
    assert composed(engine) == 0
    with pytest.raises(AssertionError):
        assert_matches(1, monkeypatch, patches=patches)


def test_a_fault_in_an_answer_fails_the_differential(monkeypatch):
    """One increment off by one only where the model answers: composed
    flushes charge one event too many per entry of its first pair."""
    answer = BatchModel.answer

    def off_by_one(model, counts, arity):
        components = answer(model, counts, arity)
        if components is not None:
            components[0] += counts.get(next(iter(model.info)), 0)
        return components

    with pytest.raises(AssertionError, match="events"):
        assert_matches(1, monkeypatch,
                       patches=[(BatchModel, "answer", off_by_one)])


def span(events: int, ops: dict) -> TraceEntry:
    """A recorded batch span with no state deltas."""
    entry = TraceEntry()
    entry.charge_sig = (events, tuple(sorted(ops.items())))
    (entry.dispatched, entry.denied, entry.served, entry.cache_hits,
     entry.cache_misses, entry.cache_batch_checks,
     entry.cache_batch_served) = (0,) * 7
    return entry


def test_the_fit_keeps_only_an_exact_integer_solution():
    p, q = (1, 1), (1, 2)
    info = {p: (None, False, 0), q: (None, False, 0)}

    def learn(model, rows):
        return [model.sample(span(events, {"trap_entry": 1}),
                             {p: cp, q: cq}, info)
                for (cp, cq), events in rows]

    # events = 10 + 3 per p + 5 per q: three rows fit it, a fourth confirms
    model = BatchModel((0, 0, 0, None), False)
    assert learn(model, [((1, 1), 18), ((2, 1), 21), ((1, 3), 28),
                         ((2, 2), 26)]) == [True] * 4
    assert [column[0] for column in model.coef] == [10, 3, 5]
    assert model.confirms == 1
    assert learn(model, [((2, 2), 27)]) == [False]        # a misprediction
    # half an event per p fits no integer model
    assert learn(BatchModel((0, 0, 0, None), False),
                 [((1, 1), 10), ((3, 1), 11), ((1, 2), 12)])[-1] is False
    # a row the basis spans must agree with it
    assert learn(BatchModel((0, 0, 0, None), False),
                 [((1, 0), 4), ((2, 0), 6), ((3, 0), 9)])[-1] is False


A, B = "test_incr", "test_null"
#: three shapes fit the base and both increments; two more confirm them
TEACH = ([A, B], [A, A, B], [A, B, B, B], [A, A, B, B], [A, B, B])


def flush(system, names) -> None:
    """One batch flush of ``names`` on the system's session."""
    calls = [(name, (7,) if name == A else ()) for name in names]
    outcome = system.extension.dispatcher.call_batch(
        system.session, calls, config=DispatchConfig(batch_size=len(calls)))
    assert outcome.ok
    assert outcome.values == [8 if name == A else 0 for name in names]


def end_state(system):
    machine = system.kernel.machine
    dispatcher = system.extension.dispatcher
    return (machine.clock.cycles, machine.clock.events,
            dict(sorted(machine.meter.op_counts.items())),
            dispatcher.trace_cache.snapshot(),
            dispatcher.decision_cache.snapshot(),
            dispatcher.calls_dispatched, dispatcher.calls_denied)


def test_a_guard_change_refuses_composition_and_restarts_the_model(
        monkeypatch):
    """A policy-epoch bump mid-run: the model still answers, with the old
    guards, so its composed entry is refused and the flush runs op by op;
    that recording restarts the model, which learns again and composes,
    and the run matches the same run op by op."""
    def drive(system):
        trace_cache = system.extension.dispatcher.trace_cache
        for names in TEACH + ([B, B, B],):
            flush(system, names)
        before = trace_cache.composed
        (old,) = trace_cache._models[system.session.session_id].values()
        recorded = trace_cache.records + trace_cache.confirms
        system.session.reset_quota()              # bumps policy_epoch
        flush(system, [B, B, B])
        refused = (trace_cache.composed == before
                   and trace_cache.records + trace_cache.confirms
                   == recorded + 1)
        (new,) = trace_cache._models[system.session.session_id].values()
        for names in TEACH + ([B, B, B, B],):
            flush(system, names)
        return before, refused, new is not old, trace_cache.composed

    system = SecModuleSystem.create(seed=22)
    before, refused, restarted, after = drive(system)
    assert before == 1 and refused and restarted and after > before
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "BATCH_MODEL_CONFIRMS", OUT_OF_REACH)
        replica = SecModuleSystem.create(seed=22)
        assert drive(replica)[3] == 0
    assert end_state(replica) == end_state(system)


def test_a_queue_past_any_sample_runs_op_by_op(monkeypatch):
    """The ceiling: a queue holding more of one pair than any sample ran
    runs op by op (and records), while a queue inside every sample's reach
    composes; both account as op by op."""
    def drive(system):
        trace_cache = system.extension.dispatcher.trace_cache
        for names in TEACH:
            flush(system, names)
        counts = [trace_cache.composed]
        flush(system, [B, B, B])
        counts.append(trace_cache.composed)
        records = trace_cache.records
        flush(system, [A] * 6)
        counts.append(trace_cache.composed)
        return counts, trace_cache.records - records

    system = SecModuleSystem.create(seed=21)
    assert drive(system) == ([0, 1, 1], 1)
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "BATCH_MODEL_CONFIRMS", OUT_OF_REACH)
        replica = SecModuleSystem.create(seed=21)
        assert drive(replica) == ([0, 0, 0], 1)
    assert end_state(replica) == end_state(system)


MODEL_DIGEST = """
import hashlib, json, sys
from repro.workloads.traffic import TrafficEngine, TrafficSpec
engine = TrafficEngine(TrafficSpec(**json.loads(sys.argv[1])))
engine.run()
models = engine.extension.dispatcher.trace_cache._models
print(hashlib.sha256(repr([
    (sid, [(repr(group), list(model.info), list(model.ops), model.coef,
            model.ceiling)
           for group, model in groups.items()])
    for sid, groups in models.items()]).encode()).hexdigest())
"""


def test_models_do_not_depend_on_the_hash_seed():
    """Models iterate nothing in set or hash order: two string salts build
    the same pairs, ops, increments and ceilings."""
    src = str(Path(dispatch.__file__).resolve().parents[2])
    digests = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", MODEL_DIGEST,
             json.dumps(dict(SPEC, seed=1))],
            env=env, check=True, capture_output=True, text=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert hashlib.sha256(b"").hexdigest() not in digests
