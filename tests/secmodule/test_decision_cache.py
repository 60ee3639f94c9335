"""Tests for the policy-decision cache on the dispatch hot path."""

import pytest

from repro.kernel.errno import Errno
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.decision_cache import DecisionCache, policy_is_cacheable
from repro.secmodule.dispatch import DispatchConfig
from repro.secmodule.policy import (
    AlwaysAllowPolicy,
    AttributePredicatePolicy,
    CallQuotaPolicy,
    CompositePolicy,
    CredentialExpiryPolicy,
    FunctionDenyPolicy,
    PrincipalAllowPolicy,
    TimeWindowPolicy,
    UidAllowPolicy,
    synthetic_chain,
)
from repro.sim import costs

STATIC_CHAIN = lambda: CompositePolicy([            # noqa: E731
    UidAllowPolicy([1000]),
    PrincipalAllowPolicy(["alice"]),
    FunctionDenyPolicy(["test_null"]),
])


def make_system(policy, seed=60):
    return SecModuleSystem.create(policy=policy, seed=seed,
                                  include_libc=False)


class TestCacheability:
    def test_static_classification(self):
        assert policy_is_cacheable(AlwaysAllowPolicy())
        assert policy_is_cacheable(UidAllowPolicy([1]))
        assert policy_is_cacheable(PrincipalAllowPolicy(["a"]))
        assert policy_is_cacheable(FunctionDenyPolicy(["f"]))
        assert policy_is_cacheable(STATIC_CHAIN())

    def test_dynamic_classification(self):
        assert not policy_is_cacheable(CallQuotaPolicy(5))
        assert not policy_is_cacheable(TimeWindowPolicy(0, 1e9))
        assert not policy_is_cacheable(CredentialExpiryPolicy())
        assert not policy_is_cacheable(
            AttributePredicatePolicy("p", lambda a: True))
        # one dynamic clause poisons the whole chain
        assert not policy_is_cacheable(CompositePolicy(
            [UidAllowPolicy([1]), CallQuotaPolicy(5)]))

    def test_synthetic_chain_static_flag(self):
        assert not policy_is_cacheable(synthetic_chain(3))
        assert policy_is_cacheable(synthetic_chain(3, static=True))


class TestCacheHits:
    def test_static_chain_hits_after_first_call(self):
        system = make_system(STATIC_CHAIN())
        cache = system.extension.decision_cache
        system.call("test_incr", 1)
        assert cache.hits == 0 and cache.misses == 1 and len(cache) == 1
        system.call("test_incr", 2)
        system.call("test_incr", 3)
        assert cache.hits == 2

    def test_hit_charges_cache_hit_not_policy_steps(self):
        system = make_system(STATIC_CHAIN())
        meter = system.machine.meter
        system.call("test_incr", 1)              # miss: 3 policy steps
        steps_after_miss = meter.count(costs.SMOD_POLICY_STEP)
        system.call("test_incr", 2)              # hit
        assert meter.count(costs.SMOD_POLICY_STEP) == steps_after_miss
        assert meter.count(costs.SMOD_POLICY_CACHE_HIT) == 1

    def test_cached_calls_are_cheaper(self):
        system = make_system(STATIC_CHAIN())
        system.call("test_incr", 0)              # populate
        mark = system.machine.clock.checkpoint()
        system.call("test_incr", 1)
        hit_cycles = system.machine.clock.since(mark).cycles

        uncached = DispatchConfig(use_decision_cache=False)
        mark = system.machine.clock.checkpoint()
        system.call("test_incr", 2, config=uncached)
        eval_cycles = system.machine.clock.since(mark).cycles
        saved = (3 * system.machine.spec.profile.cost(costs.SMOD_POLICY_STEP)
                 - system.machine.spec.profile.cost(costs.SMOD_POLICY_CACHE_HIT))
        assert eval_cycles - hit_cycles == saved

    def test_denied_static_decision_is_cached(self):
        system = make_system(STATIC_CHAIN())
        cache = system.extension.decision_cache
        assert system.call_outcome("test_null").errno is Errno.EACCES
        assert system.call_outcome("test_null").errno is Errno.EACCES
        assert cache.hits == 1
        assert system.extension.dispatcher.calls_denied == 2

    def test_always_allow_never_cached(self):
        """The paper's zero-step baseline must not engage the cache — that
        keeps the default DispatchConfig cycle-identical to the seed."""
        system = make_system(None, seed=61)      # default AlwaysAllow
        meter = system.machine.meter
        for i in range(4):
            system.call("test_incr", i)
        cache = system.extension.decision_cache
        assert len(cache) == 0 and cache.hits == 0
        assert meter.count(costs.SMOD_POLICY_CACHE_HIT) == 0

    def test_knob_disables_cache(self):
        system = make_system(STATIC_CHAIN(), seed=62)
        config = DispatchConfig(use_decision_cache=False)
        for i in range(3):
            system.call("test_incr", i, config=config)
        cache = system.extension.decision_cache
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0


class TestDynamicPoliciesNeverCached:
    def test_quota_policy_still_enforced(self):
        chain = CompositePolicy([UidAllowPolicy([1000]), CallQuotaPolicy(2)])
        system = make_system(chain, seed=63)
        assert system.call("test_incr", 1) == 2
        assert system.call("test_incr", 2) == 3
        outcome = system.call_outcome("test_incr", 3)
        assert outcome.errno is Errno.EACCES     # quota correctly re-evaluated
        assert len(system.extension.decision_cache) == 0

    def test_credential_expiry_still_enforced(self):
        chain = CompositePolicy([UidAllowPolicy([1000]),
                                 CredentialExpiryPolicy()])
        system = make_system(chain, seed=64)
        # re-issue the session credential with a short expiry
        session = system.session
        m_id = next(iter(session.modules))
        module = session.modules[m_id]
        deadline = system.machine.microseconds() + 200.0
        session.replace_credential(m_id, module.definition.issuer.issue(
            "alice", uid=1000, expires_at_us=deadline))
        assert system.call("test_incr", 1) == 2
        # burn virtual time past the expiry
        while system.machine.microseconds() <= deadline:
            system.machine.clock.advance(10_000)
        outcome = system.call_outcome("test_incr", 2)
        assert outcome.errno is Errno.EACCES
        assert len(system.extension.decision_cache) == 0


class TestInvalidation:
    def test_credential_replacement_invalidates(self):
        system = make_system(STATIC_CHAIN(), seed=65)
        cache = system.extension.decision_cache
        session = system.session
        system.call("test_incr", 1)
        system.call("test_incr", 2)
        assert cache.hits == 1
        m_id = next(iter(session.modules))
        module = session.modules[m_id]
        session.replace_credential(
            m_id, module.definition.issuer.issue("alice", uid=1000))
        misses_before = cache.misses
        system.call("test_incr", 3)              # stale epoch -> miss
        assert cache.misses == misses_before + 1
        system.call("test_incr", 4)              # re-memoized -> hit again
        assert cache.hits == 2

    def test_quota_reset_invalidates(self):
        system = make_system(STATIC_CHAIN(), seed=66)
        cache = system.extension.decision_cache
        system.call("test_incr", 1)
        system.call("test_incr", 2)
        system.session.reset_quota()
        misses_before = cache.misses
        system.call("test_incr", 3)
        assert cache.misses == misses_before + 1

    def test_teardown_drops_session_entries(self):
        system = make_system(STATIC_CHAIN(), seed=67)
        cache = system.extension.decision_cache
        system.call("test_incr", 1)
        assert len(cache) == 1
        system.teardown()
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_explicit_module_invalidation(self):
        cache = DecisionCache()

        class FakeSession:
            session_id = 1
            policy_epoch = 0

        from repro.secmodule.policy import PolicyDecision
        cache.store(FakeSession(), 7, 1, PolicyDecision(True, 1))
        cache.store(FakeSession(), 8, 1, PolicyDecision(True, 1))
        assert cache.invalidate_module(7) == 1
        assert len(cache) == 1
        assert cache.invalidate_all() == 1
        assert len(cache) == 0


class FakeSession:
    def __init__(self, session_id=1, policy_epoch=0):
        self.session_id = session_id
        self.policy_epoch = policy_epoch


def _decision():
    from repro.secmodule.policy import PolicyDecision
    return PolicyDecision(True, 1)


class TestCapacityAndEviction:
    def test_capacity_bounds_each_session(self):
        cache = DecisionCache(capacity_per_session=4)
        session = FakeSession()
        for func_id in range(10):
            cache.store(session, 1, func_id, _decision())
        assert cache.session_entry_count(1) == 4
        assert cache.evictions == 6
        assert cache.snapshot()["evictions"] == 6

    def test_eviction_is_least_recently_used(self):
        cache = DecisionCache(capacity_per_session=2)
        session = FakeSession()
        cache.store(session, 1, 0, _decision())
        cache.store(session, 1, 1, _decision())
        # touch func 0 so func 1 becomes the LRU victim
        assert cache.lookup(session, 1, 0) is not None
        cache.store(session, 1, 2, _decision())
        assert cache.lookup(session, 1, 0) is not None
        assert cache.lookup(session, 1, 2) is not None
        assert cache.lookup(session, 1, 1) is None      # evicted
        assert cache.evictions == 1

    def test_restoring_existing_key_never_evicts(self):
        cache = DecisionCache(capacity_per_session=2)
        session = FakeSession()
        cache.store(session, 1, 0, _decision())
        cache.store(session, 1, 1, _decision())
        cache.store(session, 1, 1, _decision())          # overwrite in place
        assert cache.evictions == 0
        assert cache.session_entry_count(1) == 2

    def test_sessions_have_independent_budgets(self):
        cache = DecisionCache(capacity_per_session=2)
        a, b = FakeSession(1), FakeSession(2)
        for func_id in range(2):
            cache.store(a, 1, func_id, _decision())
            cache.store(b, 1, func_id, _decision())
        cache.store(a, 1, 9, _decision())                # evicts only in a
        assert cache.evictions == 1
        assert cache.session_entry_count(1) == 2
        assert cache.session_entry_count(2) == 2
        assert cache.lookup(b, 1, 0) is not None

    def test_invalid_capacity_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            DecisionCache(capacity_per_session=0)

    def test_default_capacity_sees_no_evictions_in_traffic(self):
        """The acceptance bar: existing workloads never evict."""
        from repro.workloads.traffic import TrafficSpec, run_traffic
        result = run_traffic(TrafficSpec(clients=4, modules=2,
                                         calls_per_client=8, seed=5))
        assert result.cache_stats["evictions"] == 0


class TestRunningEntryCount:
    """``len(cache)`` is a running count; it must equal the per-session sum
    after every store, eviction and invalidation."""

    @staticmethod
    def per_session_sum(cache):
        return sum(cache.session_entry_count(sid) for sid in range(1, 5))

    def test_count_follows_every_mutation(self):
        cache = DecisionCache(capacity_per_session=3)
        sessions = [FakeSession(sid) for sid in range(1, 5)]
        steps = []
        for m_id in (1, 2):
            for func_id in range(3):
                for session in sessions:
                    steps.append(lambda s=session, m=m_id, f=func_id:
                                 cache.store(s, m, f, _decision()))
        steps += [
            lambda: cache.store(sessions[0], 2, 2, _decision()),   # in place
            lambda: cache.invalidate_session(2),
            lambda: cache.invalidate_session(2),                   # gone
            lambda: cache.invalidate_module(2),
            lambda: cache.store(sessions[2], 3, 0, _decision()),
            lambda: cache.invalidate_module(9),                    # no match
            lambda: cache.invalidate_all(),
            lambda: cache.store(sessions[3], 1, 1, _decision()),
        ]
        for step in steps:
            step()
            assert len(cache) == self.per_session_sum(cache)
            assert cache.snapshot()["entries"] == len(cache)
        assert cache.evictions == 12       # 6 stores into 3 seats, x4
        assert len(cache) == 1
