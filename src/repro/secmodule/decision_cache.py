"""Memoized policy decisions for the ``sys_smod_call`` hot path.

The paper evaluates the module policy on **every** protected call; under a
multi-client traffic workload that re-evaluation dominates the dispatch
cost as soon as the policy chain grows past a couple of clauses.  Most
production policy chains, however, are *static*: they depend only on facts
fixed at session establishment (uid, gid, principal, credential identity,
function name), so their decision for a given ``(session, m_id, func_id)``
cannot change until the session's credentials change.

:class:`DecisionCache` memoizes exactly those decisions:

* only policies that declare themselves ``static`` (see
  :attr:`repro.secmodule.policy.Policy.static`) are ever cached — quota,
  time-window, credential-expiry and attribute-predicate clauses are
  re-evaluated on every call, unchanged from the paper's design;
* zero-step chains (the paper's always-allow baseline) are never cached
  either: a hit could not be cheaper than the evaluation it replaces, and
  skipping them keeps the paper-default benchmarks cycle-identical;
* a hit is charged at :data:`repro.sim.costs.SMOD_POLICY_CACHE_HIT` instead
  of the per-clause :data:`repro.sim.costs.SMOD_POLICY_STEP` cost, so the
  speedup is visible in cycle accounting;
* entries are invalidated explicitly — on session teardown, on module
  removal and, via the session's ``policy_epoch``, whenever credentials are
  replaced or quota state is externally reset;
* each session's working set is **bounded**: at most ``capacity_per_session``
  decisions live per session, evicted least-recently-used.  A kernel memo
  must not grow with the number of distinct functions a long-lived client
  touches; the default capacity is generous enough that the repo's
  benchmarks never evict (``evictions`` stays 0), while a hostile client
  walking a huge function space is capped at a fixed footprint.

The cache is owned by the :class:`~repro.secmodule.smod_syscalls.SmodExtension`
and shared between the session manager (which invalidates) and the
dispatcher (which reads/writes).  The ``DispatchConfig.use_decision_cache``
knob disables it entirely for paper-faithful runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .policy import Policy, PolicyDecision

#: Default per-session entry bound.  Far above the working set of every
#: existing test and benchmark (a traffic session touches ~3 functions), so
#: the bound changes nothing until a client actually sprays lookups.
DEFAULT_CAPACITY_PER_SESSION = 512


def policy_is_cacheable(policy: Policy) -> bool:
    """True when every clause of ``policy`` declares itself static."""
    return bool(getattr(policy, "static", False))


@dataclass(frozen=True)
class CacheEntry:
    """One memoized decision plus the epoch it was computed under."""

    decision: PolicyDecision
    policy_epoch: int


class DecisionCache:
    """Per-kernel memo of static policy decisions.

    Entries are grouped per session and keyed by ``(m_id, func_id)``; each
    records the session's ``policy_epoch`` at store time, so bumping the
    epoch (credential replacement, quota reset) invalidates every entry of
    that session without a scan.  Per-session groups are LRU-ordered and
    bounded by ``capacity_per_session``.
    """

    def __init__(self, *,
                 capacity_per_session: int = DEFAULT_CAPACITY_PER_SESSION
                 ) -> None:
        if capacity_per_session < 1:
            raise SimulationError(
                "decision cache needs at least one entry per session")
        self.capacity_per_session = capacity_per_session
        #: session_id -> LRU-ordered {(m_id, func_id): CacheEntry}
        self._sessions: Dict[int, "OrderedDict[Tuple[int, int], CacheEntry]"] \
            = {}
        #: live entries over every session, kept by each store, eviction
        #: and invalidation
        self._entries = 0
        #: decisions stored, fresh or replacing a stale one (trace recording
        #: reads it twice per span: a span that stored is not steady state)
        self.stores = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: batched flushes that validated their whole queue with one epoch
        #: check (one SMOD_POLICY_CACHE_HIT charge) ...
        self.batch_epoch_checks = 0
        #: ... and the entries those flushes served from the prefetched
        #: decisions; the difference is the per-entry charges saved
        self.batch_served = 0
        #: armed by the dispatcher while recording a trace: every hit's key
        #: lands here so a replay can repeat the exact LRU touches
        self._touch_log: Optional[List[Tuple[int, int]]] = None
        #: the dispatcher's trace cache (when trace replay is wired up);
        #: invalidations forward so stale traces die with stale decisions
        self.trace_cache = None

    def __len__(self) -> int:
        return self._entries

    # ------------------------------------------------------------------ access
    def lookup(self, session, m_id: int,
               func_id: int) -> Optional[PolicyDecision]:
        """Return the cached decision, or None on miss/stale entry."""
        entries = self._sessions.get(session.session_id)
        entry = entries.get((m_id, func_id)) if entries is not None else None
        if entry is None or entry.policy_epoch != session.policy_epoch:
            self.misses += 1
            return None
        entries.move_to_end((m_id, func_id))     # most recently used
        self.hits += 1
        if self._touch_log is not None:
            self._touch_log.append((m_id, func_id))
        return entry.decision

    def lookup_batch(self, session, keys) -> Dict[Tuple[int, int], PolicyDecision]:
        """Validate a whole batch queue's decisions with one epoch check.

        ``keys`` is an iterable of ``(m_id, func_id)`` pairs (duplicates
        fine).  The session's ``policy_epoch`` is compared **once** for the
        whole queue — the caller charges a single
        :data:`~repro.sim.costs.SMOD_POLICY_CACHE_HIT` instead of one per
        entry — and every still-valid decision is returned.  Hit/miss
        statistics are *not* bumped here; the dispatcher counts each entry
        it serves from the returned map via :meth:`note_batch_served`, so
        the per-entry hit-rate stays comparable with the single-call path.
        """
        entries = self._sessions.get(session.session_id)
        if not entries:
            return {}
        found: Dict[Tuple[int, int], PolicyDecision] = {}
        epoch = session.policy_epoch          # the one epoch check
        for key in dict.fromkeys(keys):       # unique, order-preserving
            entry = entries.get(key)
            if entry is None or entry.policy_epoch != epoch:
                continue
            entries.move_to_end(key)          # most recently used
            if self._touch_log is not None:
                self._touch_log.append(key)
            found[key] = entry.decision
        if found:
            self.batch_epoch_checks += 1
        return found

    def note_batch_served(self, count: int = 1) -> None:
        """Record entries answered from a batch prefetch (counted as hits)."""
        self.hits += count
        self.batch_served += count

    @property
    def batch_saved_charges(self) -> int:
        """Per-entry cache-hit charges the batch-aware validation avoided."""
        return max(0, self.batch_served - self.batch_epoch_checks)

    def store(self, session, m_id: int, func_id: int,
              decision: PolicyDecision) -> None:
        entries = self._sessions.setdefault(session.session_id, OrderedDict())
        key = (m_id, func_id)
        if key not in entries:
            if len(entries) >= self.capacity_per_session:
                entries.popitem(last=False)      # least recently used
                self.evictions += 1
            else:
                self._entries += 1
        entries[key] = CacheEntry(decision=decision,
                                  policy_epoch=session.policy_epoch)
        entries.move_to_end(key)
        self.stores += 1

    # ----------------------------------------------------------- trace replay
    def start_touch_log(self) -> None:
        """Arm hit-key logging for one recorded dispatch span."""
        self._touch_log = []

    def stop_touch_log(self) -> Tuple[Tuple[int, int], ...]:
        """Disarm logging and return the hit keys the span touched."""
        log = self._touch_log or []
        self._touch_log = None
        return tuple(log)

    def replay_touch(self, session, keys: Sequence[Tuple[int, int]]) -> bool:
        """Repeat a recorded span's LRU touches without re-evaluating.

        Returns False, touching nothing — the caller must fall back to the
        op-by-op path — when any recorded key is gone or stale (evicted by
        another key's store, invalidated out-of-band): a replay then would
        diverge from what the slow path would have recomputed.
        """
        if not keys:
            return True
        entries = self._sessions.get(session.session_id)
        if entries is None:
            return False
        epoch = session.policy_epoch
        for key in keys:
            entry = entries.get(key)
            if entry is None or entry.policy_epoch != epoch:
                return False
        for key in keys:
            entries.move_to_end(key)
        return True

    def credit_replay(self, *, hits: int = 0, misses: int = 0,
                      batch_epoch_checks: int = 0,
                      batch_served: int = 0) -> None:
        """Fold one replayed span's counter deltas into the statistics.

        Keeps ``snapshot()`` (and the ``decision_cache.*`` metrics read from
        its counters) identical between a replayed run and the op-by-op
        execution it stands in for.
        """
        self.hits += hits
        self.misses += misses
        self.batch_epoch_checks += batch_epoch_checks
        self.batch_served += batch_served

    # ------------------------------------------------------------ invalidation
    def invalidate_session(self, session_id: int) -> int:
        """Drop every entry belonging to one session (teardown path)."""
        dropped = len(self._sessions.pop(session_id, ()))
        self._entries -= dropped
        self.invalidations += dropped
        if self.trace_cache is not None:
            self.trace_cache.invalidate_session(session_id)
        return dropped

    def invalidate_module(self, m_id: int) -> int:
        """Drop every entry for one module (module removal/re-registration)."""
        dropped = 0
        for entries in self._sessions.values():
            stale = [key for key in entries if key[0] == m_id]
            for key in stale:
                del entries[key]
            dropped += len(stale)
        self._sessions = {sid: entries
                          for sid, entries in self._sessions.items() if entries}
        self._entries -= dropped
        self.invalidations += dropped
        if self.trace_cache is not None:
            self.trace_cache.invalidate_module(m_id)
        return dropped

    def invalidate_all(self) -> int:
        count = self._entries
        self._sessions.clear()
        self._entries = 0
        self.invalidations += count
        if self.trace_cache is not None:
            self.trace_cache.invalidate_all()
        return count

    # ------------------------------------------------------------------- stats
    def session_entry_count(self, session_id: int) -> int:
        """Live entries for one session (observability for eviction tests)."""
        return len(self._sessions.get(session_id, ()))

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "batch_epoch_checks": self.batch_epoch_checks,
                "batch_saved_charges": self.batch_saved_charges,
                "entries": len(self)}
