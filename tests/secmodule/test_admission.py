"""Token-bucket admission at the dispatcher entry.

The load-bearing invariants:

* a refused call returns EAGAIN with a small, honest virtual cost
  (admission check + optional refill) and touches *nothing* else — no
  trace recording, no replay, no handle, no session counters;
* admitted calls are charged and traced exactly as unprotected calls
  are: a burst that sheds half its calls never poisons the HOT key and
  never double-charges a fast-forward window (the probe refuses to open
  windows while admission is active);
* batch admission charges one token per queued call in a single
  up-front decision; a refused queue is refused whole.
"""

from __future__ import annotations

from repro.kernel.errno import Errno
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import DispatchConfig, TRACE_HOT
from repro.control.overload import OverloadConfig, OverloadController
from repro.sim import costs


def make_system(**kwargs):
    return SecModuleSystem.create(include_libc=False, **kwargs)


def starving_controller(burst: float = 3.0) -> OverloadController:
    """Admission that grants ``burst`` tokens and essentially never
    refills (deterministic: the refill over any test run is < 1 token)."""
    return OverloadController(OverloadConfig(
        admission_rate_per_us=1e-12, admission_burst=burst))


def warm_key(system, config=DispatchConfig()):
    for i in range(2):
        assert system.call("test_incr", i, config=config) == i + 1
    session = system.session
    module, function = session.find_function("test_incr")
    key = (session.session_id, (module.m_id, function.func_id), config)
    entry = system.extension.dispatcher.trace_cache.lookup(key)
    assert entry is not None and entry.state == TRACE_HOT
    return key, entry


class TestAdmissionEntry:
    def test_refusal_is_eagain_and_cheap(self):
        system = make_system(seed=5)
        dispatcher = system.extension.dispatcher
        dispatcher.overload = starving_controller(burst=1.0)
        assert system.call("test_incr", 1) == 2
        before = system.machine.clock.cycles
        outcome = system.extension.dispatcher.call(system.session,
                                                   "test_incr", 2)
        assert not outcome.ok and outcome.errno == Errno.EAGAIN
        refusal_cycles = system.machine.clock.cycles - before
        # one admission check, at most one refill: far below a dispatch
        table = system.machine.meter.profile.cycles
        assert refusal_cycles <= (table[costs.SMOD_ADMIT_CHECK]
                                  + table[costs.SMOD_ADMIT_REFILL])
        assert dispatcher.calls_shed == 1

    def test_refused_calls_touch_no_dispatch_state(self):
        system = make_system(seed=5)
        dispatcher = system.extension.dispatcher
        warm_key(system)
        dispatcher.overload = starving_controller(burst=1.0)
        # drain the single token out-of-band so every call below refuses
        assert dispatcher.overload.admit(
            system.session.client.pid, system.machine.microseconds())[0]
        dispatcher.overload.admitted = 0
        dispatched = dispatcher.calls_dispatched
        served = system.session.handle.calls_served
        replays = dispatcher.trace_cache.replays
        for i in range(5):
            outcome = dispatcher.call(system.session, "test_incr", i)
            assert outcome.errno == Errno.EAGAIN
        assert dispatcher.calls_dispatched == dispatched
        assert system.session.handle.calls_served == served
        assert dispatcher.trace_cache.replays == replays
        assert dispatcher.calls_shed == 5

    def test_disabled_admission_costs_nothing(self):
        """The default path must not even charge the admission check."""
        plain = make_system(seed=6)
        controlled = make_system(seed=6)
        controlled.extension.dispatcher.overload = OverloadController(
            OverloadConfig())           # constructed but all-off
        for i in range(4):
            assert plain.call("test_incr", i) == i + 1
            assert controlled.call("test_incr", i) == i + 1
        assert plain.machine.clock.cycles == controlled.machine.clock.cycles
        assert dict(plain.machine.meter.op_counts) == \
            dict(controlled.machine.meter.op_counts)


class TestTraceCacheIsolation:
    """Satellite invariant: shed calls never enter trace machinery."""

    def test_burst_with_shedding_never_poisons_hot_key(self):
        system = make_system(seed=7)
        dispatcher = system.extension.dispatcher
        key, entry = warm_key(system)
        dispatcher.overload = starving_controller(burst=3.0)
        admitted = refused = 0
        for i in range(10):
            outcome = dispatcher.call(system.session, "test_incr", i)
            if outcome.ok:
                admitted += 1
            else:
                refused += 1
        assert admitted == 3 and refused == 7
        # the key is still HOT and still replaying — refusals left no mark
        assert dispatcher.trace_cache.lookup(key) is entry
        assert entry.state == TRACE_HOT
        dispatcher.overload = None
        replays = dispatcher.trace_cache.replays
        assert system.call("test_incr", 99) == 100
        assert dispatcher.trace_cache.replays == replays + 1

    def test_admitted_calls_charge_exactly_burst_plus_admission(self):
        """The admitted calls of a shedding burst cost exactly what the
        same calls cost unprotected, plus the admission ops — cycle for
        cycle, op for op (shed calls excluded from both sides)."""
        def drive(protect: bool):
            system = make_system(seed=8)
            dispatcher = system.extension.dispatcher
            warm_key(system)
            if protect:
                dispatcher.overload = starving_controller(burst=4.0)
            start = system.machine.clock.cycles
            served = []
            for i in range(10):
                outcome = dispatcher.call(system.session, "test_incr", i)
                if outcome.ok:
                    served.append(i)
                if not protect and len(served) == 4:
                    break
            return (system, served, system.machine.clock.cycles - start)

        protected, served_p, cycles_p = drive(True)
        plain, served_u, cycles_u = drive(False)
        assert served_p == served_u == [0, 1, 2, 3]
        table = protected.machine.meter.profile.cycles
        ops = protected.machine.meter.op_counts
        admission_cycles = (
            ops.get(costs.SMOD_ADMIT_CHECK, 0)
            * table[costs.SMOD_ADMIT_CHECK]
            + ops.get(costs.SMOD_ADMIT_REFILL, 0)
            * table[costs.SMOD_ADMIT_REFILL])
        assert cycles_p == cycles_u + admission_cycles

    def test_admitted_call_on_hot_key_settles_from_trace(self):
        """Admission refuses windows, not per-call settles: an admitted
        direct call on a HOT key still settles from its trace."""
        system = make_system(seed=9)
        dispatcher = system.extension.dispatcher
        key, entry = warm_key(system)
        dispatcher.overload = OverloadController(OverloadConfig(
            admission_rate_per_us=1000.0, admission_burst=1000.0))
        cache = dispatcher.trace_cache
        replays, records = cache.replays, cache.records
        outcome = dispatcher.call(system.session, "test_incr", 41)
        assert outcome.ok and outcome.value == 42
        assert cache.replays == replays + 1
        assert cache.records == records
        assert cache.lookup(key) is entry and entry.state == TRACE_HOT
        assert dispatcher.fast_forward_probe(system.session, key) is None

    def test_fast_forward_probe_refuses_under_admission(self):
        """FF folds n calls into one closed-form charge, which would
        bypass per-call admission — the probe must force per-call paths."""
        system = make_system(seed=9)
        dispatcher = system.extension.dispatcher
        key, entry = warm_key(system)
        assert dispatcher.fast_forward_probe(system.session, key) is entry
        dispatcher.overload = OverloadController(OverloadConfig(
            admission_rate_per_us=1000.0, admission_burst=1000.0))
        assert dispatcher.fast_forward_probe(system.session, key) is None
        # an all-off controller does not block the analytic tier
        dispatcher.overload = OverloadController(OverloadConfig())
        assert dispatcher.fast_forward_probe(system.session, key) is entry


class TestBatchAdmission:
    def test_queue_refused_whole(self):
        system = make_system(seed=10)
        dispatcher = system.extension.dispatcher
        dispatcher.overload = starving_controller(burst=3.0)
        calls = [("test_incr", (i,)) for i in range(4)]
        outcome = dispatcher.call_batch(system.session, calls,
                                        config=DispatchConfig(batch_size=4))
        assert outcome.errno == Errno.EAGAIN
        assert len(outcome.outcomes) == 4
        assert all(o.errno == Errno.EAGAIN for o in outcome.outcomes)
        assert dispatcher.calls_shed == 4
        # the refused queue did not drain the bucket: 3 tokens remain
        outcome = dispatcher.call_batch(system.session,
                                        calls[:3],
                                        config=DispatchConfig(batch_size=4))
        assert outcome.errno is None
        assert [o.value for o in outcome.outcomes] == [1, 2, 3]

    def test_admitted_batch_charges_one_check(self):
        system = make_system(seed=10)
        dispatcher = system.extension.dispatcher
        dispatcher.overload = OverloadController(OverloadConfig(
            admission_rate_per_us=1000.0, admission_burst=1000.0))
        calls = [("test_incr", (i,)) for i in range(6)]
        before = dict(system.machine.meter.op_counts)
        outcome = dispatcher.call_batch(system.session, calls,
                                        config=DispatchConfig(batch_size=3))
        assert outcome.errno is None
        checks = (system.machine.meter.op_counts.get(
            costs.SMOD_ADMIT_CHECK, 0)
            - before.get(costs.SMOD_ADMIT_CHECK, 0))
        assert checks == 1
