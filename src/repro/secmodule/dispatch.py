"""The protected-call dispatch path (``sys_smod_call``).

This is the code whose latency the paper's Figure 8 measures.  One protected
call executes, in order:

1. the client-side stub pushes the argument frame and the
   ``(moduleID, funcID)`` pair on the shared stack (Figure 3 steps 1–2);
2. ``sys_smod_call(framep, rtnaddr, m_id, funcID)`` traps into the kernel,
   which verifies the caller has a live session for ``m_id`` and that the
   credential/policy still allow the call;
3. the kernel notifies the handle through the session's SysV message queue
   and context-switches to it;
4. the handle's ``smod_stub_receive`` (on its secret stack) strips the frame
   down to the bare arguments, relays to the real function on the shared
   stack, and restores the frame (Figure 3 steps 3–4);
5. the handle posts the result on the reply queue, the kernel switches back
   to the client, copies the return value out and returns from the trap;
6. the client stub unwinds its frame.

The :class:`DispatchConfig` knobs expose the design alternatives the paper
discusses but does not measure — the §4.4 multithreaded-client hardenings
and the explicit-copy marshalling that the shared-VM design replaced — so
the ablation benchmarks can quantify them.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from math import gcd
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..control.overload import OverloadController
from ..errors import SimulationError
from ..kernel.errno import Errno, SyscallResult, fail, ok
from ..kernel.proc import Proc
from ..kernel.sysv_msg import Message
from ..sim import costs
from ..telemetry.tracing import TIER_OP_BY_OP, TIER_REPLAY
from .decision_cache import DecisionCache, policy_is_cacheable
from .module import SecFunction
from .registry import RegisteredModule
from .session import Session
from .stubs import (
    BatchCallFrame,
    BatchStub,
    StubCallFrame,
    unwind_client_frame,
)


class HardeningMode(enum.Enum):
    """§4.4 countermeasures against multithreaded argument-rewriting attacks."""

    NONE = "none"                       # what the paper measured
    UNMAP_CLIENT = "unmap-client"       # unmap client data/stack during the call
    SUSPEND_CLIENT = "suspend-client"   # pull the client off the ready queue


class MarshallingMode(enum.Enum):
    """How arguments travel between client and handle."""

    SHARED_VM = "shared-vm"             # the paper's design: nothing to copy
    EXPLICIT_COPY = "explicit-copy"     # SysV-shm-style copy in and out


#: the handle's reply to a single call: one part, one word (messages are
#: never mutated once built, so every call sends this one)
_SINGLE_REPLY = Message(mtype=2, payload=(1,))


@dataclass(frozen=True)
class DispatchConfig:
    """Per-call-path configuration (defaults reproduce the paper's setup).

    Every protected call checks its module's policy, the paper's design
    point; the fields choose how that check and the call around it run.
    """

    #: the §4.4 countermeasure applied around each kernel-side call
    hardening: HardeningMode = HardeningMode.NONE
    #: how arguments travel between client and handle
    marshalling: MarshallingMode = MarshallingMode.SHARED_VM
    #: memoize static policy decisions per (session, module, function);
    #: disable for paper-faithful runs.  With the paper's zero-step
    #: always-allow policy the cache never engages, so the default stays
    #: cycle-identical to the published setup either way.
    use_decision_cache: bool = True
    #: queue depth of the batched dispatch path: how many protected calls the
    #: client-side stub accumulates before flushing them through a single
    #: ``sys_smod_call_batch`` trap.  1 reproduces the paper's behaviour
    #: (every call pays its own trap and two context switches); larger values
    #: amortize those fixed costs across the queue.  ``call_batch`` chunks
    #: longer queues to this bound.
    batch_size: int = 1
    #: fast-forward tier: record the exact charge sequence of a steady-state
    #: protected call (or batch flush) once, then settle later identical
    #: spans from it as one closed-form charge — a direct call as a window
    #: of one, the traffic engine as windows of n.  Accounting
    #: is byte-identical either way — cycle totals, op histograms, cache
    #: statistics — the knob only trades simulator wall-clock for the
    #: op-by-op execution (see docs/performance.md); disable it to force
    #: every call down the op-by-op path.
    use_trace_replay: bool = True
    #: record Figure 3 stack snapshots (off for the million-call benchmarks)
    record_checkpoints: bool = False

    def __post_init__(self) -> None:
        # the generated frozen-dataclass hash walks every field (two enums
        # included) on each dict operation, and trace-cache keys embed the
        # config — so every lookup on the hot path pays it.  Configs are
        # immutable: compute once, keep the same equality contract.
        # smod: allow(DET003)  it only keys dicts: no seed, ordering or
        # output depends on the value, and an unpickled config recomputes
        # it under the receiving process's string salt (see __reduce__)
        object.__setattr__(self, "_cached_hash", hash(
            (self.hardening, self.marshalling, self.use_decision_cache,
             self.batch_size, self.use_trace_replay,
             self.record_checkpoints)))

    def __hash__(self) -> int:
        return self._cached_hash

    def __reduce__(self):
        # rebuild from the field values rather than restoring __dict__: the
        # enum hashes salt per process, so the sender's _cached_hash would
        # not match an equal config built in the receiving process
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class DispatchOutcome:
    """Result of one protected call."""

    value: Any = None
    errno: Optional[Errno] = None
    frame: Optional[StubCallFrame] = None

    @property
    def ok(self) -> bool:
        return self.errno is None


@dataclass
class BatchOutcome:
    """Result of one batched flush: per-entry outcomes in submission order.

    Per-entry failures (ENOENT, EACCES) never abort the batch — each entry
    carries its own :class:`DispatchOutcome`.  ``errno`` is set only when the
    *whole* queue was rejected before any entry ran (dead session, foreign
    client), in which case every entry's outcome carries the same errno.
    """

    outcomes: List[DispatchOutcome] = field(default_factory=list)
    #: batch-level rejection (EINVAL/EPERM); None when entries were processed
    errno: Optional[Errno] = None

    @property
    def ok(self) -> bool:
        return self.errno is None and all(o.ok for o in self.outcomes)

    @property
    def values(self) -> List[Any]:
        """Per-entry return values (None for failed entries)."""
        return [o.value for o in self.outcomes]

    @property
    def denied(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def __len__(self) -> int:
        return len(self.outcomes)


# --------------------------------------------------------------------------
# Fast-forward tier.
#
# The paper's numbers are per-call totals of a *fixed* op sequence (trap,
# policy check, two context switches, msgsnd/reply, stack fixups) — yet the
# simulator re-executes that sequence op by op on every one of the millions
# of calls a traffic run issues.  The trace cache records the sequence once
# per steady-state key, proves it stable with a confirming second execution,
# and then settles later spans as one closed-form charge (plus the handful
# of explicit state deltas the slow path would have made) — one span at a
# time on the dispatch path, n at a time in a traffic-engine window.
# Anything a settle cannot reproduce exactly — stateful policy chains,
# checkpoint recording, variable-cost function bodies, a live TraceBuffer —
# stays on the op-by-op path for good.
# --------------------------------------------------------------------------

#: TraceEntry life cycle: freshly recorded entries are CONFIRMING until a
#: second execution reproduces the identical charge sequence and state
#: deltas; only then do replays begin.  Keys whose sequence keeps changing
#: are POISONED and never attempted again (their recording overhead would
#: be pure waste).
TRACE_CONFIRMING, TRACE_HOT, TRACE_POISONED = 0, 1, 2

#: consecutive confirm mismatches before a key is poisoned
TRACE_MISMATCH_LIMIT = 8

#: steady recordings a fitted batch model must predict exactly before it
#: may compose a flush
BATCH_MODEL_CONFIRMS = 2

#: a batch span's components ahead of its op totals: the clock events and
#: the seven state deltas ``_settle`` applies, in :class:`TraceEntry` order
_FIXED = 8


class TraceEntry:
    """One recorded dispatch span: its charges and state deltas."""

    __slots__ = (
        "state", "strikes", "trace",
        # what a confirming execution must repeat, built once with the
        # entry: the charges (a single call's exact sequence, a batch's
        # (event count, sorted op totals)) and the state deltas
        "charge_sig", "effects_sig",
        # guards revalidated before every replay
        "policy_epoch", "handle_epoch", "cache_epoch", "hardening_sig",
        # state deltas the slow path would have applied
        "dispatched", "denied", "served",
        "cache_hits", "cache_misses", "cache_batch_checks",
        "cache_batch_served", "cache_touch_keys",
        # settle plumbing
        "env", "handle", "m_ids",
        # batch flushes keep ``batch_plan`` (one (module, function, errno)
        # triple per entry); None for singles
        "batch_plan", "any_executed", "depth",
        # per-module executed-call counts for the bulk ``note_calls``
        # (count 0 when all of a module's calls were denied), and the
        # outcome plan: (m_id, func_id) -> errno, so a canonically-keyed
        # batch settles any permutation of its shape
        "note_plan", "plan_by_pair",
    )

    def touches_for(self, pairs: Optional[Sequence[Tuple[int, int]]]
                    ) -> Tuple:
        """The decision-cache touches a settle of the queue ``pairs``
        makes (its ``(m_id, func_id)`` pairs in submission order).

        A recorded batch span touched each cached decision of its queue
        once, in the queue's first-occurrence order (the flush's one
        prefetch), so a settle of any permutation of the shape touches the
        same keys in *its* queue's order.  A single call's touch, or a
        settle without its queue at hand (``pairs`` None), repeats as
        recorded.
        """
        touches = self.cache_touch_keys
        if pairs is None or self.batch_plan is None or len(touches) < 2:
            return touches
        return tuple(pair for pair in dict.fromkeys(pairs)
                     if pair in touches)


def _pair_counts(shape: Tuple[Tuple[int, int], ...]
                 ) -> Dict[Tuple[int, int], int]:
    """``(m_id, func_id)`` -> count for a batch key's sorted shape."""
    counts: Dict[Tuple[int, int], int] = {}
    for pair in shape:
        counts[pair] = counts.get(pair, 0) + 1
    return counts


class BatchModel:
    """An exact integer model of one group's batch-flush spans.

    A flush pays its trap, hardening and switches once per queue and the
    rest once per entry, so each component of its span — the clock events,
    every op total and the seven state deltas — is a base plus, per
    ``(m_id, func_id)`` pair, an increment times the pair's count.  Each
    steady recording is one row: a one, then each pair's count, against
    the span's components.  Rows reduce into an integer echelon basis as
    they arrive; a row the basis already spans must agree with it, or no
    such model exists.  At full column rank the basis is solved exactly,
    and only an integer solution is kept.  All of it is integer
    arithmetic: ``fractions`` would import ``decimal``, whose memory every
    process's peak RSS would carry.

    ``info`` holds what each pair did in every sample (its errno, whether
    its cached decision was touched, its argument count), ``guards`` the
    samples' trace guards and ``touched`` whether their queues touched any
    cached decision (the flush's one prefetch charge hangs on that, not on
    a count).  A sample that disagrees with any of them ends the model.
    """

    __slots__ = ("info", "ops", "basis", "coef", "confirms", "ceiling",
                 "guards", "touched")

    def __init__(self, guards: Tuple, touched: bool) -> None:
        #: the columns after the constant, in first-seen order: pair ->
        #: (errno, touched, argument count)
        self.info: Dict[Tuple[int, int], Tuple] = {}
        #: the components after the fixed ones, in first-seen order: op
        #: name -> its index in a component list
        self.ops: Dict[str, int] = {}
        #: echelon rows: (pivot column, row, components)
        self.basis: List[Tuple[int, List[int], List[int]]] = []
        #: per column, its integer components (None until solved)
        self.coef: Optional[List[List[int]]] = None
        #: samples predicted exactly since the last solve
        self.confirms = 0
        #: per component, the largest value any sample reached
        self.ceiling: List[int] = [0] * _FIXED
        self.guards = guards
        self.touched = touched

    def agrees(self, guards: Tuple, touched: bool,
               info: Dict[Tuple[int, int], Tuple]) -> bool:
        """May a sample with these guards and pair facts join the model?"""
        if guards != self.guards or touched != self.touched:
            return False
        known = self.info
        return all(known.get(pair, facts) == facts
                   for pair, facts in info.items())

    def sample(self, entry: TraceEntry, counts: Dict[Tuple[int, int], int],
               info: Dict[Tuple[int, int], Tuple]) -> bool:
        """Fold in one steady recording; False when no model fits it."""
        for op, _ in entry.charge_sig[1]:
            if op not in self.ops:
                self._add_op(op)
        for pair, facts in info.items():
            if pair not in self.info:
                self._add_pair(pair, facts)
        x = self._row(counts)
        y = self._components(entry)
        if self.coef is not None:
            if self.predict(x) != y:
                return False
            self.confirms += 1
        elif not self._reduce(x, y):
            return False
        elif len(self.basis) == len(x) and not self._solve():
            return False
        self.ceiling = [max(top, value)
                        for top, value in zip(self.ceiling, y)]
        return True

    def answer(self, counts: Dict[Tuple[int, int], int],
               arity: Dict[Tuple[int, int], int]) -> Optional[List[int]]:
        """The components of a flush of ``counts``, or None when the model
        may not answer for it."""
        if self.coef is None or self.confirms < BATCH_MODEL_CONFIRMS:
            return None
        touched = False
        for pair in counts:
            facts = self.info.get(pair)
            if facts is None or facts[2] != arity[pair]:
                return None
            touched = touched or facts[1]
        if touched != self.touched:
            return None
        y = self.predict(self._row(counts))
        for value, top in zip(y, self.ceiling):
            if value < 0 or value > top:
                return None
        return y

    def predict(self, x: List[int]) -> List[int]:
        coef = self.coef
        y = coef[0]
        for count, column in zip(x[1:], coef[1:]):
            if count:
                y = [base + count * step for base, step in zip(y, column)]
        return list(y)

    # ---------------------------------------------------------------- algebra
    def _row(self, counts: Dict[Tuple[int, int], int]) -> List[int]:
        return [1] + [counts.get(pair, 0) for pair in self.info]

    def _components(self, entry: TraceEntry) -> List[int]:
        events, ops = entry.charge_sig
        y = [events, entry.dispatched, entry.denied, entry.served,
             entry.cache_hits, entry.cache_misses, entry.cache_batch_checks,
             entry.cache_batch_served] + [0] * len(self.ops)
        index = self.ops
        for op, count in ops:
            y[index[op]] = count
        return y

    def _add_op(self, op: str) -> None:
        # every earlier sample charged none of it
        self.ops[op] = _FIXED + len(self.ops)
        self.ceiling.append(0)
        for _, _, comps in self.basis:
            comps.append(0)
        if self.coef is not None:
            for column in self.coef:
                column.append(0)

    def _add_pair(self, pair: Tuple[int, int], facts: Tuple) -> None:
        # every earlier sample held none of it; its increment is unknown
        self.info[pair] = facts
        for _, row, _ in self.basis:
            row.append(0)
        self.coef = None
        self.confirms = 0

    def _reduce(self, x: List[int], y: List[int]) -> bool:
        """Eliminate ``(x, y)`` against the basis; keep it when it adds
        rank, else check that the basis already implies ``y``."""
        for pivot, row, comps in self.basis:
            a = x[pivot]
            if a:
                b = row[pivot]
                g = gcd(a, b)
                a, b = a // g, b // g
                x = [b * u - a * v for u, v in zip(x, row)]
                y = [b * u - a * v for u, v in zip(y, comps)]
        for column, value in enumerate(x):
            if value:
                g = gcd(*x, *y)
                if g > 1:
                    x = [u // g for u in x]
                    y = [u // g for u in y]
                self.basis.append((column, x, y))
                return True
        return not any(y)

    def _solve(self) -> bool:
        """Back-substitute the full-rank basis; keep an integer solution.

        Each row is zero on the pivots of the rows before it, so solving
        the rows newest first meets every other column already solved.
        Those are integers, so a component its pivot does not divide has
        no integer solution: exact, without rationals.
        """
        solved: List[Optional[List[int]]] = [None] * len(self.basis)
        for pivot, row, comps in reversed(self.basis):
            acc = comps
            for column, value in enumerate(row):
                if value and column != pivot:
                    acc = [a - value * s for a, s in zip(acc, solved[column])]
            divisor = row[pivot]
            if any(a % divisor for a in acc):
                return False
            solved[pivot] = [a // divisor for a in acc]
        self.coef = solved
        self.confirms = 0
        return True


class TraceCache:
    """Per-dispatcher store of recorded call traces, LRU-bounded.

    Keys are ``(session_id, call shape, DispatchConfig)`` tuples; the shape
    is ``(m_id, func_id)`` for a single call and the *sorted* tuple of
    those pairs for a batch flush, so every permutation of a queue shares
    one trace.  Invalidation is two-layered: cheap per-settle guard checks
    (policy epoch, handle seat epoch, session liveness) catch anything that
    changed under a live key, and the explicit ``invalidate_*`` hooks —
    forwarded from the decision cache and the handle broker — drop entries
    eagerly so the cache never fills with dead keys.  Each session's batch
    models (:class:`BatchModel`), which compose the entries of batch
    flushes not yet recorded, are dropped with its traces.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise SimulationError("trace cache needs a positive capacity")
        self.capacity = capacity
        # smod: guarded-by epoch
        self._entries: "OrderedDict[Tuple, TraceEntry]" = OrderedDict()
        #: session id -> keys stored for it; per-session invalidation (the
        #: teardown and broker seat-churn paths) is O(own keys), not a walk
        #: over the whole cache — at served scale teardown storms would
        #: otherwise rescan thousands of live entries per dead session
        self._by_session: Dict[int, set] = {}
        #: bumped by ``invalidate_all``; every entry records the epoch it was
        #: stored under, so a bump retires the whole cache in O(1)
        self.epoch = 0
        # observability
        self.records = 0
        self.confirms = 0
        self.replays = 0
        self.mismatches = 0
        self.poisoned = 0
        self.fallbacks = 0
        self.invalidated = 0
        self.evictions = 0
        #: fast-forward windows committed / calls they covered
        self.fast_forwards = 0
        self.fast_forward_calls = 0
        #: batch spans settled from a composed entry instead of running op
        #: by op (outside ``snapshot()``: the op-by-op run it stands in
        #: for exports the same snapshot)
        self.composed = 0
        #: session id -> (config with batch_size 1, any entry granted) ->
        #: the group's batch model
        self._models: Dict[int, Dict[Tuple, BatchModel]] = {}
        #: config -> the same config with batch_size 1
        self._model_configs: Dict[DispatchConfig, DispatchConfig] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple) -> Optional[TraceEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def store(self, key: Tuple, entry: TraceEntry) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            # smod: allow(EPOCH001)  evicting never stales survivors: the
            # epoch only retires entries wholesale (invalidate_all)
            evicted_key, _ = self._entries.popitem(last=False)
            self._unindex(evicted_key)
            self.evictions += 1
        # smod: allow(EPOCH001)  inserting a fresh entry cannot stale it;
        # it is recorded under the current epoch by construction
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._by_session.setdefault(key[0], set()).add(key)

    def _unindex(self, key: Tuple) -> None:
        keys = self._by_session.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_session[key[0]]

    # ------------------------------------------------------------ batch models
    def _model_group(self, config: DispatchConfig, granted: bool) -> Tuple:
        base = self._model_configs.get(config)
        if base is None:
            base = self._model_configs[config] = replace(config,
                                                         batch_size=1)
        return (base, granted)

    def learn(self, key: Tuple, entry: TraceEntry,
              arity: Dict[Tuple[int, int], int]) -> None:
        """Fold one stored batch recording into its group's model.

        ``arity`` is each pair's argument count in the flush.  A recording
        the model cannot take — other guards or pair facts, or components
        no integer model fits — discards the model, and a new one starts
        from this recording.
        """
        counts = _pair_counts(key[1])
        touches = entry.cache_touch_keys
        info = {pair: (entry.plan_by_pair[pair], pair in touches,
                       arity[pair])
                for pair in counts}
        guards = (entry.policy_epoch, entry.handle_epoch, entry.cache_epoch,
                  entry.hardening_sig)
        touched = bool(touches)
        models = self._models.setdefault(key[0], {})
        group = self._model_group(key[2], entry.any_executed)
        model = models.get(group)
        if model is not None and model.agrees(guards, touched, info) and \
                model.sample(entry, counts, info):
            return
        model = models[group] = BatchModel(guards, touched)
        model.sample(entry, counts, info)

    def answer(self, key: Tuple, arity: Dict[Tuple[int, int], int]
               ) -> Optional[Tuple[BatchModel, List[int]]]:
        """The model and components for a flush keyed ``key``, or None.

        A queue with any pair the granted model knows as executed asks
        that model; any other asks the fully-denied one.  Either must know
        every pair of the queue.
        """
        models = self._models.get(key[0])
        if not models:
            return None
        counts = _pair_counts(key[1])
        model = models.get(self._model_group(key[2], True))
        if model is None or not any(
                pair in model.info and model.info[pair][0] is None
                for pair in counts):
            model = models.get(self._model_group(key[2], False))
            if model is None:
                return None
        components = model.answer(counts, arity)
        return None if components is None else (model, components)

    def discard_model(self, key: Tuple, model: BatchModel) -> None:
        """Drop ``model`` from the group of ``key``'s session."""
        models = self._models.get(key[0], {})
        for group, held in list(models.items()):
            if held is model:
                del models[group]

    # ------------------------------------------------------------ invalidation
    def invalidate_session(self, session_id: int) -> int:
        self._models.pop(session_id, None)
        stale = self._by_session.pop(session_id, None)
        if not stale:
            return 0
        for key in stale:
            # smod: allow(EPOCH001)  entries are removed outright, not staled;
            # the epoch exists for O(1) wholesale retirement only
            del self._entries[key]
        self.invalidated += len(stale)
        return len(stale)

    def invalidate_module(self, m_id: int) -> int:
        for session_id, models in list(self._models.items()):
            for group, model in list(models.items()):
                if any(pair[0] == m_id for pair in model.info):
                    del models[group]
            if not models:
                del self._models[session_id]
        stale = [key for key, entry in self._entries.items()
                 if m_id in entry.m_ids]
        for key in stale:
            # smod: allow(EPOCH001)  entries are removed outright, not staled;
            # the epoch exists for O(1) wholesale retirement only
            del self._entries[key]
            self._unindex(key)
        self.invalidated += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self._by_session.clear()
        self._models.clear()
        self.invalidated += count
        self.epoch += 1
        return count

    def snapshot(self) -> Dict[str, int]:
        hot = sum(1 for e in self._entries.values() if e.state == TRACE_HOT)
        return {"entries": len(self._entries), "hot": hot,
                "records": self.records, "confirms": self.confirms,
                "replays": self.replays, "mismatches": self.mismatches,
                "poisoned": self.poisoned, "fallbacks": self.fallbacks,
                "invalidated": self.invalidated, "evictions": self.evictions,
                "fast_forwards": self.fast_forwards,
                "fast_forward_calls": self.fast_forward_calls}


class SmodDispatcher:
    """Executes protected calls for established sessions."""

    def __init__(self, kernel, *,
                 decision_cache: Optional[DecisionCache] = None,
                 trace_cache: Optional[TraceCache] = None) -> None:
        self.kernel = kernel
        self.calls_dispatched = 0
        self.calls_denied = 0
        # explicit None check: an *empty* cache is falsy (it has __len__)
        self.decision_cache = (decision_cache if decision_cache is not None
                               else DecisionCache())
        self.trace_cache = (trace_cache if trace_cache is not None
                            else TraceCache())
        # decision invalidations retire the traces recorded under them
        self.decision_cache.trace_cache = self.trace_cache
        #: the machine's observation plane (recording never charges the
        #: virtual clock)
        self.telemetry = kernel.machine.telemetry
        #: overload protection (token-bucket admission); None = unprotected,
        #: and the entry check compiles down to one attribute test
        self.overload: Optional[OverloadController] = None
        self.calls_shed = 0

    # ------------------------------------------------------------------ helpers
    def _admit(self, session: Session, tokens: int) -> bool:
        """Token-bucket admission at the dispatch entry.

        Runs *before* any trace lookup or recording, so its charges — one
        SMOD_ADMIT_CHECK per decision, one SMOD_ADMIT_REFILL when the
        check refilled the bucket — never land inside a recorded span, and
        a refused call never touches the trace machinery at all.  The
        refusal therefore has honest nonzero virtual cost without ever
        being able to poison a HOT key.
        """
        overload = self.overload
        if overload is None or not overload.admission_active:
            return True
        machine = self.kernel.machine
        admitted, refilled = overload.admit(
            session.client.pid, machine.microseconds(), tokens)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_admission(session.client.pid, admitted,
                                       n=tokens)
        machine.charge(costs.SMOD_ADMIT_CHECK)
        if refilled:
            machine.charge(costs.SMOD_ADMIT_REFILL)
        if not admitted:
            self.calls_shed += tokens
        return admitted

    def _policy_check(self, session: Session, module: RegisteredModule,
                      function: SecFunction, config: DispatchConfig, *,
                      pending_calls: int = 0) -> Tuple[bool, str]:
        """Per-call policy check, memoized for static chains.

        A hit costs one :data:`~repro.sim.costs.SMOD_POLICY_CACHE_HIT` charge
        instead of re-walking the policy chain.  Only decisions from chains
        that (a) declare themselves static and (b) actually cost at least one
        step are stored — memoizing the paper's zero-step always-allow
        baseline would make a hit *more* expensive than the evaluation.
        ``pending_calls`` (a batch's calls granted ahead of this one) only
        moves dynamic chains: a static chain reads no call counts.
        """
        machine = self.kernel.machine
        policy = module.definition.policy
        cacheable = config.use_decision_cache and policy_is_cacheable(policy)
        if cacheable:
            cached = self.decision_cache.lookup(session, module.m_id,
                                                function.func_id)
            if cached is not None:
                machine.charge(costs.SMOD_POLICY_CACHE_HIT)
                return cached.allowed, cached.reason
        ctx = session.policy_context(
            module, function.name, now_us=machine.microseconds(),
            args_words=function.arg_words, pending_calls=pending_calls)
        decision = policy.evaluate(ctx)
        if decision.steps:
            machine.charge(costs.SMOD_POLICY_STEP, decision.steps)
            if cacheable:
                self.decision_cache.store(session, module.m_id,
                                          function.func_id, decision)
        return decision.allowed, decision.reason

    def _apply_hardening(self, session: Session,
                         mode: HardeningMode) -> None:
        machine = self.kernel.machine
        if mode is HardeningMode.UNMAP_CLIENT:
            # "simply unmap the entire data and stack region of the client
            # ... during the kernel level execution of sys_smod_call" — the
            # simulation charges the page-table work for the client's shared
            # entries without destroying the mappings (they come right back).
            for entry in session.client.vmspace.shared_entries():
                machine.charge(costs.UVM_PAGE_OP, entry.pages)
            machine.charge(costs.UVM_MAP_ENTRY_OP,
                           max(1, len(session.client.vmspace.shared_entries())))
        elif mode is HardeningMode.SUSPEND_CLIENT:
            # "forcibly remove the client (and all threads related to the
            # client) from the ready queue" — cheaper for the kernel.
            self.kernel.sched.suspend(session.client)
            machine.charge(costs.SCHED_ENQUEUE)

    def _undo_hardening(self, session: Session, mode: HardeningMode) -> None:
        machine = self.kernel.machine
        if mode is HardeningMode.UNMAP_CLIENT:
            for entry in session.client.vmspace.shared_entries():
                machine.charge(costs.UVM_PAGE_OP, entry.pages)
            machine.charge(costs.UVM_MAP_ENTRY_OP,
                           max(1, len(session.client.vmspace.shared_entries())))
        elif mode is HardeningMode.SUSPEND_CLIENT:
            self.kernel.sched.resume(session.client)
            machine.charge(costs.SCHED_ENQUEUE)

    # ----------------------------------------------------- trace-replay helpers
    def _traceable(self, session: Session, function: SecFunction,
                   module: RegisteredModule, config: DispatchConfig,
                   machine) -> bool:
        """May this call's charge sequence be recorded and replayed at all?

        Everything that can make the sequence vary call-to-call under an
        unchanged key stays on the op-by-op path: stateful (non-static)
        policy chains, variable-cost function bodies, Figure 3 checkpoint
        recording, and a live event TraceBuffer (replay skips its emits).
        """
        return (config.use_trace_replay
                and not config.record_checkpoints
                and not machine.trace.enabled
                and function.fixed_cost
                and session.established and not session.torn_down
                and policy_is_cacheable(module.definition.policy))

    @staticmethod
    def _shared_entry_signature(session: Session) -> Tuple[int, ...]:
        """Page counts of the client's shared map entries (UNMAP hardening
        charges are a function of these, so they guard those traces)."""
        return tuple(e.pages
                     for e in session.client.vmspace.shared_entries())

    def _can_settle(self, entry: TraceEntry, session: Session,
                    touches: Tuple) -> bool:
        """May spans of ``entry`` settle from its trace right now?

        The one hot-entry check: every per-call settle runs it, a window
        runs it when it opens and again at the engine's barrier.  The key
        is HOT, every guard still holds (cheap integer compares), and the
        decision-cache touches the span performs (``touches``, from
        :meth:`TraceEntry.touches_for`) repeat — they are *applied here*,
        so the cache's LRU order and touch accounting match the op-by-op
        execution.  A touch that no longer repeats bumps ``fallbacks``;
        every False sends the span down the op-by-op path.
        """
        if entry.state != TRACE_HOT or not self._guards_hold(entry, session):
            return False
        if touches and not self.decision_cache.replay_touch(session,
                                                            touches):
            self.trace_cache.fallbacks += 1
            return False
        return True

    def _guards_hold(self, entry: TraceEntry, session: Session) -> bool:
        """Do ``entry``'s guards still hold for ``session`` (the session
        is live, and its policy epoch, its handle's seat epoch, the cache
        epoch and the hardening signature are the recorded ones)?"""
        if not session.established or session.torn_down:
            return False
        if session.policy_epoch != entry.policy_epoch:
            return False
        if session.handle.trace_epoch != entry.handle_epoch:
            return False
        if entry.cache_epoch != self.trace_cache.epoch:
            return False
        return entry.hardening_sig is None or \
            entry.hardening_sig == self._shared_entry_signature(session)

    def _begin_trace_recording(self, session: Session, *, batched: bool):
        """Arm a recorder and snapshot every affected counter.

        A single call's span records its exact charge sequence; a batch
        flush's span records the meter's delta (see
        :class:`~repro.sim.costs.DeltaRecorder`).  None when the recorder
        refuses to start.
        """
        meter = self.kernel.machine.meter
        recorder = meter.record_delta() if batched else meter.record_trace()
        if not recorder.start():
            return None
        cache = self.decision_cache
        cache.start_touch_log()
        snapshot = (self.calls_dispatched, self.calls_denied,
                    session.handle.calls_served,
                    cache.hits, cache.misses, cache.batch_epoch_checks,
                    cache.batch_served, cache.invalidations, cache.stores)
        return (recorder, snapshot)

    def _abort_trace_recording(self, recording) -> None:
        recorder, _ = recording
        recorder.abort()
        self.decision_cache.stop_touch_log()

    def _finish_trace_recording(self, recording, key: Tuple,
                                session: Session, plan, *,
                                config: DispatchConfig,
                                batched: bool,
                                arity: Optional[Dict] = None) -> None:
        """Turn one recorded slow execution into a (confirming) trace entry.

        ``plan`` is one ``(module, function, errno)`` triple per call of
        the span, in submission order (a single call has one).  A span
        that cannot be repeated stores no entry, so the key records again
        next time.  A stored batch span also teaches its group's batch
        model, when ``arity`` (each pair's argument count) is given.
        """
        recorder, before = recording
        charges = recorder.stop()
        touches = self.decision_cache.stop_touch_log()
        cache = self.decision_cache
        (d0, n0, s0, h0, m0, bc0, bs0, inv0, st0) = before
        if cache.invalidations != inv0 or cache.stores != st0:
            # the span changed the decision cache (a first-call store, a
            # stale decision replaced, an eviction, which only a store
            # makes): not steady state yet — a replay could not repeat it.
            return
        if batched:
            if charges is None:
                # the delta does not stand for the span's charges: a frozen
                # clock, or an idle or bare clock advance inside the span
                return
            events, ops, _ = charges
            charges = (events, ops)
        guards = (session.policy_epoch, session.handle.trace_epoch,
                  self.trace_cache.epoch,
                  self._shared_entry_signature(session)
                  if config.hardening is HardeningMode.UNMAP_CLIENT else None)
        deltas = (self.calls_dispatched - d0, self.calls_denied - n0,
                  session.handle.calls_served - s0, cache.hits - h0,
                  cache.misses - m0, cache.batch_epoch_checks - bc0,
                  cache.batch_served - bs0)
        entry = self._new_entry(session, plan, charges, deltas, touches,
                                guards, batched=batched)
        if entry is None:
            return
        self._observe_trace(key, entry)
        if arity is not None:
            self.trace_cache.learn(key, entry, arity)

    def _new_entry(self, session: Session, plan, charges: Tuple,
                   deltas: Sequence[int], touches: Tuple, guards: Tuple, *,
                   batched: bool) -> Optional[TraceEntry]:
        """A CONFIRMING entry for one span of ``session``.

        ``charges`` is a single call's charge sequence or a batch's
        ``(events, sorted op totals)``; ``deltas`` the seven state deltas
        in :class:`TraceEntry` order; ``guards`` the policy epoch, handle
        seat epoch, cache epoch and hardening signature.  None for a batch
        whose touches are not one per key in the queue's order: a settle
        of another permutation could not repeat them.
        """
        entry = TraceEntry()
        entry.state = TRACE_CONFIRMING
        entry.strikes = 0
        entry.charge_sig = charges
        entry.trace = None
        (entry.policy_epoch, entry.handle_epoch, entry.cache_epoch,
         entry.hardening_sig) = guards
        (entry.dispatched, entry.denied, entry.served, entry.cache_hits,
         entry.cache_misses, entry.cache_batch_checks,
         entry.cache_batch_served) = deltas
        entry.cache_touch_keys = touches
        entry.env = session.call_env
        entry.handle = session.handle
        entry.batch_plan = plan if batched else None
        entry.depth = len(plan)
        # every module of the span, count 0 when all its calls were denied
        # (a single call's telemetry names its module either way)
        executed: Dict[int, List] = {}
        entry.plan_by_pair = {}
        pairs = []
        for module, function, errno in plan:
            slot = executed.get(module.m_id)
            if slot is None:
                executed[module.m_id] = slot = [module, 0]
            if errno is None:
                slot[1] += 1
            pair = (module.m_id, function.func_id)
            pairs.append(pair)
            entry.plan_by_pair[pair] = errno
        if batched and entry.touches_for(pairs) != touches:
            return None
        entry.m_ids = frozenset(executed)
        entry.note_plan = tuple((module, count)
                                for module, count in executed.values())
        entry.any_executed = any(count for _, count in entry.note_plan)
        if batched:
            # a canonically-keyed batch observes its plan and touches in
            # its own permutation's order, so both compare as multisets;
            # the totals it charges are permutation-invariant
            plan_sig: object = tuple(sorted(
                (module.m_id, function.func_id, 0 if errno is None else errno)
                for module, function, errno in plan))
            touch_sig = tuple(sorted(touches))
        else:
            plan_sig, touch_sig = entry.plan_by_pair, touches
        entry.effects_sig = (*deltas, touch_sig, plan_sig)
        return entry

    def _observe_trace(self, key: Tuple, entry: TraceEntry) -> None:
        """The record → confirm → hot state machine for one key."""
        cache = self.trace_cache
        existing = cache.lookup(key)
        if (existing is not None and existing.state != TRACE_POISONED
                and existing.charge_sig == entry.charge_sig
                and existing.effects_sig == entry.effects_sig):
            # a second execution reproduced the span exactly: promote
            # (the guards are refreshed from this, newest, execution)
            entry.state = TRACE_HOT
            meter = self.kernel.machine.meter
            if entry.batch_plan is None:
                entry.trace = meter.build_trace(entry.charge_sig)
            elif entry.trace is None:       # a composed entry has its own
                events, ops = entry.charge_sig
                entry.trace = costs.CallTrace.from_totals(ops, events,
                                                          meter.profile)
            cache.confirms += 1
            cache.store(key, entry)
            return
        if existing is not None:
            cache.mismatches += 1
            entry.strikes = existing.strikes + 1
            if entry.strikes >= TRACE_MISMATCH_LIMIT:
                entry.state = TRACE_POISONED
                cache.poisoned += 1
        cache.records += 1
        cache.store(key, entry)

    def _settle(self, entry: TraceEntry, session: Session, n: int) -> None:
        """Settle ``n`` spans of a hot ``entry`` as one closed-form charge.

        Everything ``n`` op-by-op executions of the span would apply,
        applied in bulk: the scaled trace charge (cycles, events and the op
        histogram all multiply exactly), the decision-cache credits (the
        per-span touches already ran in :meth:`_can_settle`), the
        dispatcher/handle counters, per-module ``note_calls``, and the
        dispatch-level telemetry histograms via their bulk ``n`` parameter.
        Function bodies are the caller's.
        """
        machine = self.kernel.machine
        trace = entry.trace
        machine.meter.charge_trace(trace.scaled(n))
        if (entry.cache_hits or entry.cache_misses
                or entry.cache_batch_checks or entry.cache_batch_served):
            self.decision_cache.credit_replay(
                hits=entry.cache_hits * n, misses=entry.cache_misses * n,
                batch_epoch_checks=entry.cache_batch_checks * n,
                batch_served=entry.cache_batch_served * n)
        self.calls_dispatched += entry.dispatched * n
        self.calls_denied += entry.denied * n
        entry.handle.calls_served += entry.served * n
        for module, executed in entry.note_plan:
            if executed:
                session.note_calls(module.m_id, executed * n)
        telemetry = self.telemetry
        if telemetry.enabled:
            span_us = trace.total_cycles / machine.spec.mhz
            if entry.batch_plan is None:
                telemetry.record_dispatch(session.session_id,
                                          entry.note_plan[0][0].name,
                                          span_us, n=n)
                if entry.any_executed:
                    telemetry.record_handle_queue(entry.handle.proc.pid, 1,
                                                  n=n)
            else:
                if entry.any_executed:
                    telemetry.record_handle_queue(entry.handle.proc.pid,
                                                  entry.depth, n=n)
                telemetry.record_batch(session.session_id, entry.depth,
                                       span_us, n=n)

    # ------------------------------------------------------------ fast-forward
    def fast_forward_probe(self, session: Session,
                           key: Tuple) -> Optional[TraceEntry]:
        """May the traffic engine open a window for the span keyed ``key``?

        The check that opens a window: :meth:`_can_settle`, behind two
        refusals that only windows need.  A live event trace wants the
        per-op emits a settle skips, and active admission control decides
        per call — folding n calls into one window would bypass it (a
        direct call was admitted before it got here, so it still settles).
        Returns the entry to accumulate, or None when the caller must
        flush and take the dispatch path.
        """
        if self.kernel.machine.trace.enabled:
            return None
        overload = self.overload
        if overload is not None and overload.admission_active:
            return None
        entry = self.trace_cache.lookup(key)
        if entry is None or not self._can_settle(entry, session,
                                                 entry.cache_touch_keys):
            return None
        return entry

    def fast_forward_recheck(self, key: Tuple, entry: TraceEntry,
                             session: Session,
                             pairs: Optional[Sequence[Tuple[int, int]]]
                             ) -> None:
        """Re-check the open window of ``entry`` at the engine's barrier.

        A call that joins an open window is not probed, so the barrier
        makes the probe's touches once per window: the trace-cache
        ``lookup`` and, through :meth:`_can_settle`, the decision-cache
        touches of the window's last flush, whose ``(m_id, func_id)``
        pairs in submission order are ``pairs``.  Run over the windows in
        last-use order, it leaves both caches' LRU orders as a probe per
        call would.  Nothing a probe reads changes between two barriers,
        so a check that fails here is a bug: it raises instead of
        settling.
        """
        if self.trace_cache.lookup(key) is not entry or \
                not self._can_settle(entry, session,
                                     entry.touches_for(pairs)):
            raise SimulationError(
                f"fast-forward window {key!r} no longer settles at the "
                f"barrier: a guard input changed between two barriers")

    def fast_forward_commit(self, entry: TraceEntry, session: Session,
                            n: int) -> None:
        """Settle a window of ``n`` checked spans of ``entry``.

        :meth:`_settle` plus the window's own bookkeeping: the
        ``fast_forwards`` / ``fast_forward_calls`` counters and one
        synthesized ``count=n`` span for the whole window.
        """
        if n <= 0:
            return
        self._settle(entry, session, n)
        trace_cache = self.trace_cache
        trace_cache.fast_forwards += 1
        trace_cache.fast_forward_calls += n
        telemetry = self.telemetry
        if telemetry.enabled:
            # one synthesized span stands in for the whole window, so a
            # traced fast-forward run records O(windows) spans, not O(n)
            telemetry.aggregate(
                "dispatch.call" if entry.batch_plan is None
                else "dispatch.batch",
                span_us=(entry.trace.total_cycles
                         / self.kernel.machine.spec.mhz),
                n=n, client_id=session.client.pid,
                session_id=session.session_id)

    # -------------------------------------------------------------- kernel path
    def _round_trip(self, client: Proc, session: Session,
                    config: DispatchConfig, request: Message, reply: Message,
                    arg_words: Sequence[int], receive) -> Any:
        """The kernel round trip both smod syscalls share.

        Applies the §4.4 hardening, copies the arguments in when
        marshalling is explicit (``arg_words`` per executed call), sends
        ``request`` and switches to the handle, runs ``receive(env)`` on
        it, sends ``reply`` and switches back, and copies out one return
        value per reply part.  Returns what ``receive`` returned.
        """
        kernel = self.kernel
        machine = kernel.machine
        msg = kernel.msg
        sched = kernel.sched
        handle = session.handle.proc
        explicit_copy = config.marshalling is MarshallingMode.EXPLICIT_COPY
        hardening = config.hardening
        if hardening is not HardeningMode.NONE:
            self._apply_hardening(session, hardening)
        # Everything between apply and undo can raise (the msg/sched plumbing,
        # the handle's receive); without the finally a SUSPEND_CLIENT-
        # hardened client would stay in Scheduler._suspended forever.
        try:
            if explicit_copy:
                # Arguments must be copied into a transfer buffer and back
                # out: the cost the shared-VM design avoids.  (Pointer-rich
                # calls such as malloc simply cannot work in this mode; the
                # caller asserts that separately in the marshalling
                # ablation.)
                for words in arg_words:
                    machine.charge_words(costs.COPY_WORD, words * 2)
                machine.charge(costs.KMALLOC)

            # -- notify the handle and switch to it ----------------------------
            msg.msgsnd(client, session.request_msqid, request)
            sched.switch_to(handle)
            if msg.msgrcv(handle, session.request_msqid, 1) is None:
                raise SimulationError("handle woke without a queued request")

            # -- the handle executes on the shared stack -----------------------
            result = receive(session.call_env)

            # -- reply and switch back -----------------------------------------
            msg.msgsnd(handle, session.reply_msqid, reply)
            sched.switch_to(client)
            msg.msgrcv(client, session.reply_msqid, 2)
            kernel.copyout(reply.part_count)    # one return value per part
            if explicit_copy:
                machine.charge(costs.KFREE)
        finally:
            if hardening is not HardeningMode.NONE:
                self._undo_hardening(session, hardening)
        return result

    def sys_smod_call(self, client: Proc, session: Session,
                      frame: StubCallFrame, m_id: int, func_id: int, *,
                      config: DispatchConfig = DispatchConfig()) -> SyscallResult:
        """The kernel half of a protected call (already inside the trap):
        the syscall's result, the function's return value or an errno."""
        machine = self.kernel.machine

        # -- validate the session and locate the function ---------------------
        machine.charge(costs.SMOD_SESSION_LOOKUP)
        if session is None or not session.established or session.torn_down:
            self.calls_denied += 1
            return fail(Errno.EINVAL)
        if session.client is not client:
            # the handle is bound to p and only p (paper question 2)
            self.calls_denied += 1
            return fail(Errno.EPERM)
        module = session.modules.get(m_id)
        if module is None:
            self.calls_denied += 1
            return fail(Errno.ENOENT)
        function = session.handle.lookup_function(m_id, func_id)
        if function is None:
            self.calls_denied += 1
            return fail(Errno.ENOENT)

        # -- per-call credential/policy check ---------------------------------
        machine.charge(costs.SMOD_CRED_CHECK)
        allowed, reason = self._policy_check(session, module, function,
                                             config)
        if not allowed:
            self.calls_denied += 1
            machine.trace.emit("smod.call", "policy_denied",
                               pid=client.pid, detail_reason=reason)
            return fail(Errno.EACCES)

        result = self._round_trip(
            client, session, config,
            Message(mtype=1, payload=(m_id, func_id, frame.return_address)),
            _SINGLE_REPLY, (function.arg_words,),
            lambda env: session.handle.receive_call(
                session.shared_stack, frame, function, env,
                record_checkpoints=config.record_checkpoints))
        session.note_call(module)
        self.calls_dispatched += 1
        return ok(result)

    def sys_smod_call_batch(self, client: Proc, session: Session,
                            batch: BatchCallFrame, *,
                            config: DispatchConfig = DispatchConfig()
                            ) -> BatchOutcome:
        """The kernel half of a batched flush (``sys_smod_call_batch``).

        Validates the session **once**, walks the queue running the (cached)
        policy check per entry, applies the §4.4 hardening **once**, and pays
        one request ``msgsnd`` + one switch-to-handle + one reply + one
        switch-back for the whole queue.  Per-entry validation failures mark
        that entry denied and keep going; the handle unwinds denied frames
        while draining the super-frame.
        """
        machine = self.kernel.machine
        frames = batch.frames
        n = len(frames)

        # -- validate the session once ----------------------------------------
        machine.charge(costs.SMOD_SESSION_LOOKUP)
        machine.charge(costs.SMOD_BATCH_SETUP)
        if session is None or not session.established or session.torn_down:
            self.calls_denied += n
            return BatchOutcome(errno=Errno.EINVAL)
        if session.client is not client:
            self.calls_denied += n
            return BatchOutcome(errno=Errno.EPERM)

        # -- batch-aware decision prefetch --------------------------------------
        # One epoch check (one SMOD_POLICY_CACHE_HIT charge) validates every
        # memoized static decision the queue needs, instead of N per-entry
        # checks; entries the prefetch cannot answer fall back to the
        # ordinary per-entry path below.
        prefetched: Dict[Tuple[int, int], object] = {}
        if config.use_decision_cache:
            keys = []
            # each distinct pair once, in first-occurrence order: the order
            # the prefetch touches the cache in
            for key in dict.fromkeys((frame.module_id, frame.func_id)
                                     for frame in frames):
                module = session.modules.get(key[0])
                if module is None or not policy_is_cacheable(
                        module.definition.policy):
                    continue
                keys.append(key)
            if keys:
                prefetched = self.decision_cache.lookup_batch(session, keys)
                if prefetched:
                    machine.charge(costs.SMOD_POLICY_CACHE_HIT)

        # -- per-entry lookup + credential/policy check -------------------------
        # Each entry charges SMOD_BATCH_ENTRY and, once its function is
        # found, SMOD_CRED_CHECK.  The walk owes them as two runs, charged
        # before anything reads the clock (an uncached policy check, a
        # logged denial) and at its end: inside the flush's span they may
        # be regrouped, since nothing reads the clock between them.
        outcomes: List[Optional[DispatchOutcome]] = [None] * n
        #: per entry: (function, allowed) — the handle's drain plan
        plan: List[Tuple[Optional[SecFunction], bool]] = []
        entry_modules: List[Optional[RegisteredModule]] = []
        #: calls already granted in this queue, per module: the whole batch
        #: is validated before any entry runs, so quota/count clauses must
        #: see each entry against the count including its predecessors
        pending: Dict[int, int] = {}
        modules = session.modules
        lookup_function = session.handle.lookup_function
        walked = checked = served = granted = 0
        for index, frame in enumerate(frames):
            walked += 1
            m_id = frame.module_id
            module = modules.get(m_id)
            function = (lookup_function(m_id, frame.func_id)
                        if module is not None else None)
            if function is None:
                self.calls_denied += 1
                outcomes[index] = DispatchOutcome(errno=Errno.ENOENT,
                                                  frame=frame)
                plan.append((None, False))
                entry_modules.append(None)
                continue
            checked += 1
            decision = prefetched.get((m_id, frame.func_id))
            if decision is not None:
                # already validated by the batch epoch check: no per-entry
                # charge
                served += 1
                allowed, reason = decision.allowed, decision.reason
            else:
                self._charge_walk(walked, checked)
                walked = checked = 0
                allowed, reason = self._policy_check(
                    session, module, function, config,
                    pending_calls=pending.get(m_id, 0))
            if not allowed:
                self.calls_denied += 1
                if machine.trace.enabled:
                    self._charge_walk(walked, checked)
                    walked = checked = 0
                    machine.trace.emit("smod.call", "policy_denied",
                                       pid=client.pid, detail_reason=reason)
                outcomes[index] = DispatchOutcome(errno=Errno.EACCES,
                                                  frame=frame)
                plan.append((None, False))
                entry_modules.append(None)
                continue
            pending[m_id] = pending.get(m_id, 0) + 1
            granted += 1
            plan.append((function, True))
            entry_modules.append(module)
        self._charge_walk(walked, checked)
        if served:
            self.decision_cache.note_batch_served(served)

        if not granted:
            # nothing to execute: skip hardening, the message round trip and
            # both context switches — a fully-denied queue costs what the
            # single path charges denied calls, the unwind.  Frames are
            # popped topmost (first submission) first.
            for frame in frames:
                unwind_client_frame(session.shared_stack, frame)
            return BatchOutcome(outcomes=outcomes)

        results = self._round_trip(
            client, session, config,
            Message.batched(1, [
                (frame.module_id, frame.func_id, frame.return_address)
                for frame in frames]),
            Message.batched(2, [(1,)] * granted),
            [function.arg_words for function, allowed in plan if allowed],
            lambda env: session.handle.receive_batch(
                session.shared_stack, batch, plan, env))

        for index, value in results.items():
            outcomes[index] = DispatchOutcome(value=value,
                                              frame=frames[index])
            session.note_call(entry_modules[index])
        self.calls_dispatched += len(results)
        return BatchOutcome(outcomes=outcomes)

    def _charge_walk(self, walked: int, checked: int) -> None:
        """Charge what the batch walk owes: ``walked`` SMOD_BATCH_ENTRY and
        ``checked`` SMOD_CRED_CHECK unit charges, one run each."""
        machine = self.kernel.machine
        machine.charge_each(costs.SMOD_BATCH_ENTRY, walked)
        machine.charge_each(costs.SMOD_CRED_CHECK, checked)

    # ---------------------------------------------------------------- user path
    def call(self, session: Session, function_name: str, *args: Any,
             config: DispatchConfig = DispatchConfig(),
             admitted: bool = False) -> DispatchOutcome:
        """The full user-visible call: client stub + trap + kernel path + unwind.

        This is what the SecModule-converted libc's wrappers boil down to and
        what the Figure 8 benchmark loops over.  In steady state (an
        already-confirmed trace whose preconditions still hold) the whole
        sequence settles from the trace as a fast-forward window of one;
        the first two executions of a key, and anything the trace cache
        cannot prove repeatable, run op by op below.

        ``admitted=True`` marks a call whose admission decision already
        ran upstream (a batch flush delegating its chunk-of-1); everything
        else pays the token-bucket check when admission control is on.
        """
        if not admitted and not self._admit(session, 1):
            return DispatchOutcome(errno=Errno.EAGAIN)
        found = session.find_function(function_name)
        if found is None:
            return DispatchOutcome(errno=Errno.ENOENT)
        module, function = found

        machine = self.kernel.machine
        telemetry = self.telemetry
        span = (telemetry.start("dispatch.call", client_id=session.client.pid,
                                session_id=session.session_id)
                if telemetry.enabled else None)
        key = None
        if self._traceable(session, function, module, config, machine):
            shape = (module.m_id, function.func_id)
            key = (session.session_id, shape, config)
            entry = self.trace_cache.lookup(key)
            if entry is not None:
                if self._can_settle(entry, session, entry.cache_touch_keys):
                    self._settle(entry, session, 1)
                    self.trace_cache.replays += 1
                    errno = entry.plan_by_pair[shape]
                    outcome = (DispatchOutcome(errno=errno)
                               if errno is not None else DispatchOutcome(
                                   value=function.impl(entry.env, *args)))
                    if span is not None:
                        telemetry.finish(span, tier=TIER_REPLAY)
                    return outcome
                if entry.state == TRACE_POISONED:
                    key = None        # recording this key again is pure waste

        recording = (self._begin_trace_recording(session, batched=False)
                     if key is not None else None)
        try:
            machine.charge(costs.USER_CALL_OVERHEAD)
            stub = module.client_stub(function)
            frame = stub.push_call(
                session.shared_stack, args,
                record_checkpoints=config.record_checkpoints)
            # the stub records the session the frame belongs to, so a shared
            # (pooled) handle can route it to the right secret-stack segment
            frame.session_id = session.session_id

            result = self.kernel.syscall(
                session.client, "smod_call", frame, module.m_id,
                function.func_id, config)
            if result.errno is not None:
                # unwind the stub frame exactly as the error return path would
                self._unwind_failed_call(session, frame)
                outcome = DispatchOutcome(errno=result.errno, frame=frame)
            else:
                stub.pop_return(session.shared_stack, frame)
                outcome = DispatchOutcome(value=result.value, frame=frame)
        except BaseException:
            if recording is not None:
                self._abort_trace_recording(recording)
            raise
        if recording is not None:
            self._finish_trace_recording(
                recording, key, session, ((module, function, outcome.errno),),
                config=config, batched=False)
        if span is not None:
            telemetry.close_call(span, session.session_id, module.name)
        return outcome

    def call_batch(self, session: Session,
                   calls: Sequence[Tuple[str, Tuple[Any, ...]]], *,
                   config: DispatchConfig = DispatchConfig()) -> BatchOutcome:
        """A queue of protected calls: ``[(function_name, args), ...]``.

        The queue is flushed in chunks of at most ``config.batch_size``
        entries; each chunk pays one trap and one context-switch pair.  A
        chunk of one flushes on the ordinary single-call path — no
        super-frame bookkeeping — so ``batch_size=1`` is cycle-identical to
        issuing the calls one at a time.  An empty queue flushes nothing and
        charges nothing.

        Admission control charges one token per queued call, decided in a
        single bucket check up front: a queue that does not fit is refused
        whole (EAGAIN per entry) before any flush runs.
        """
        if not calls:
            return BatchOutcome()
        if not self._admit(session, len(calls)):
            return BatchOutcome(errno=Errno.EAGAIN, outcomes=[
                DispatchOutcome(errno=Errno.EAGAIN) for _ in calls])
        chunk = max(1, config.batch_size)
        merged = BatchOutcome()
        for start in range(0, len(calls), chunk):
            flushed = self._flush_batch(session, calls[start:start + chunk],
                                        config)
            merged.outcomes.extend(flushed.outcomes)
            if flushed.errno is not None:
                # whole-queue rejection means the session is dead for this
                # client; don't burn a trap + push + unwind per remaining
                # chunk — fail the rest of the queue in place
                merged.errno = flushed.errno
                merged.outcomes.extend(
                    DispatchOutcome(errno=flushed.errno)
                    for _ in calls[start + chunk:])
                break
        return merged

    def _flush_batch(self, session: Session,
                     calls: Sequence[Tuple[str, Tuple[Any, ...]]],
                     config: DispatchConfig) -> BatchOutcome:
        """Flush one bounded chunk of the call queue through a single trap.

        A traceable chunk settles instead when its key is hot, or when its
        session's batch model composes the entry it would record or
        confirm (:meth:`_compose_flush`).
        """
        if len(calls) == 1:
            name, args = calls[0]
            return BatchOutcome(outcomes=[
                self.call(session, name, *args, config=config,
                          admitted=True)])

        machine = self.kernel.machine
        telemetry = self.telemetry
        span = (telemetry.start("dispatch.batch",
                                client_id=session.client.pid,
                                session_id=session.session_id)
                if telemetry.enabled else None)
        # resolve every name once: the trace-eligibility check, the stub
        # build and the recorded batch plan all consume this list
        found_list = [session.find_function(name) for name, _ in calls]
        key = arity = None
        if all(found is not None for found in found_list) and all(
                self._traceable(session, function, module, config, machine)
                for module, function in found_list):
            pairs = [(module.m_id, function.func_id)
                     for module, function in found_list]
            # canonical batch shape: *sorted* (m_id, func_id) pairs, so every
            # permutation of the same multiset of entries shares one trace —
            # the per-entry charges and state deltas are permutation-
            # invariant sums, and outcomes settle by pair, not position
            key = (session.session_id, tuple(sorted(pairs)), config)
            entry = self.trace_cache.lookup(key)
            if entry is not None:
                if self._can_settle(entry, session,
                                    entry.touches_for(pairs)):
                    self._settle(entry, session, 1)
                    self.trace_cache.replays += 1
                    if span is not None:
                        telemetry.finish(span, tier=TIER_REPLAY)
                    return self._settled_outcome(entry, pairs, found_list,
                                                 calls)
                if entry.state == TRACE_POISONED:
                    key = None
            if key is not None:
                # each pair's argument count (its stack words): a model
                # learns from and answers for queues where it is one count
                arity = {}
                for pair, (_, args) in zip(pairs, calls):
                    if arity.setdefault(pair, len(args)) != len(args):
                        arity = None
                        break
            if arity is not None:
                composed = self._compose_flush(session, key, entry, pairs,
                                               found_list, calls, arity)
                if composed is not None:
                    if span is not None:
                        telemetry.finish(span, tier=TIER_REPLAY)
                    return composed

        recording = (self._begin_trace_recording(session, batched=True)
                     if key is not None else None)
        try:
            machine.charge(costs.USER_CALL_OVERHEAD)  # one flush, not per call
            outcomes: List[Optional[DispatchOutcome]] = [None] * len(calls)
            batch_stub = BatchStub()
            pushed: List[int] = []
            for index, ((name, args), found) in enumerate(zip(calls,
                                                              found_list)):
                if found is None:
                    # never reaches the stack or the kernel, exactly like the
                    # single path's pre-trap ENOENT
                    outcomes[index] = DispatchOutcome(errno=Errno.ENOENT)
                    continue
                module, function = found
                batch_stub.enqueue(module.client_stub(function), args)
                pushed.append(index)
            if not len(batch_stub):
                if recording is not None:
                    self._abort_trace_recording(recording)
                if span is not None:
                    telemetry.finish(span, tier=TIER_OP_BY_OP)
                return BatchOutcome(outcomes=list(outcomes))

            batch = batch_stub.push_batch(session.shared_stack,
                                          session_id=session.session_id)
            result = self.kernel.syscall(session.client, "smod_call_batch",
                                         batch, config)
            if result.failed:
                # whole-queue rejection: nothing executed, nothing drained —
                # the client stub unwinds every frame itself, topmost
                # (frames[0]) first
                for frame in batch.frames:
                    self._unwind_failed_call(session, frame)
                for index, frame in zip(pushed, batch.frames):
                    outcomes[index] = DispatchOutcome(errno=result.errno,
                                                      frame=frame)
                if recording is not None:
                    # a dead/foreign session is not a steady state to memoize
                    self._abort_trace_recording(recording)
                    recording = None
                if span is not None:
                    telemetry.close_batch(span, session.session_id,
                                          len(batch.frames))
                return BatchOutcome(outcomes=list(outcomes),
                                    errno=result.errno)

            for index, outcome in zip(pushed, result.value.outcomes):
                outcomes[index] = outcome
        except BaseException:
            if recording is not None:
                self._abort_trace_recording(recording)
            raise
        if recording is not None:
            self._finish_trace_recording(
                recording, key, session,
                tuple((module, function, outcome.errno)
                      for (module, function), outcome
                      in zip(found_list, outcomes)),
                config=config, batched=True, arity=arity)
        if span is not None:
            telemetry.close_batch(span, session.session_id, len(pushed))
        return BatchOutcome(outcomes=list(outcomes))

    def _compose_flush(self, session: Session, key: Tuple,
                       existing: Optional[TraceEntry],
                       pairs: List[Tuple[int, int]], found_list: List,
                       calls: Sequence[Tuple[str, Tuple[Any, ...]]],
                       arity: Dict[Tuple[int, int], int]
                       ) -> Optional[BatchOutcome]:
        """Settle a flush that would record or confirm op by op from an
        entry its group's batch model composes; None when the model may
        not answer, and the flush runs op by op.

        The composed entry is what the recording would have stored: it
        must pass the settle guards with the model's guards, its
        decision-cache touches must hold, and an entry already stored
        under the key must match it (one that does not discards the
        model).  It settles as a per-call settle does, then enters the
        record → confirm → hot state machine as the recording would have.
        """
        meter = self.kernel.machine.meter
        if not meter.can_record_delta:
            # op by op, the flush would record nothing
            return None
        trace_cache = self.trace_cache
        answer = trace_cache.answer(key, arity)
        if answer is None:
            return None
        model, components = answer
        info = model.info
        plan = tuple((module, function, info[pair][0])
                     for pair, (module, function) in zip(pairs, found_list))
        touches = tuple(pair for pair in dict.fromkeys(pairs)
                        if info[pair][1])
        events = components[0]
        ops = tuple(sorted((op, count) for op, count
                           in zip(model.ops, components[_FIXED:]) if count))
        entry = self._new_entry(session, plan, (events, ops),
                                components[1:_FIXED], touches, model.guards,
                                batched=True)
        if existing is not None and (
                existing.charge_sig != entry.charge_sig
                or existing.effects_sig != entry.effects_sig):
            trace_cache.discard_model(key, model)
            return None
        if not self._guards_hold(entry, session) or \
                not self.decision_cache.replay_touch(session, touches):
            return None
        entry.trace = costs.CallTrace.from_totals(ops, events, meter.profile)
        self._settle(entry, session, 1)
        self._observe_trace(key, entry)
        trace_cache.composed += 1
        return self._settled_outcome(entry, pairs, found_list, calls)

    @staticmethod
    def _settled_outcome(entry: TraceEntry, pairs: List[Tuple[int, int]],
                         found_list: List,
                         calls: Sequence[Tuple[str, Tuple[Any, ...]]]
                         ) -> BatchOutcome:
        """The outcomes of a settled flush: each entry's errno by pair, or
        its function body's value."""
        env, plan = entry.env, entry.plan_by_pair
        outcomes = []
        for pair, (_, function), (_, args) in zip(pairs, found_list, calls):
            errno = plan[pair]
            outcomes.append(
                DispatchOutcome(errno=errno) if errno is not None
                else DispatchOutcome(value=function.impl(env, *args)))
        return BatchOutcome(outcomes=outcomes)

    def _unwind_failed_call(self, session: Session,
                            frame: StubCallFrame) -> None:
        """Pop the step-2 frame the stub pushed before a denied call.

        The op-for-op unwind lives in
        :func:`~repro.secmodule.stubs.unwind_client_frame`, shared with the
        handle's batch drain so a denied entry costs the same words whether
        it was flushed alone or in a queue.
        """
        unwind_client_frame(session.shared_stack, frame)
