"""The SecModule policy engine.

The paper measures only the *simplest* policy — "always allowed for the
lifetime of p" — and notes in its conclusions that *"if we need to evaluate
more complex policy statements, we can expect a corresponding slowdown in
proportion to the complexity of the required access control check."*

This module provides that spectrum:

* :class:`AlwaysAllowPolicy` — the measured baseline (zero extra steps);
* simple predicate policies (uid, group, principal allow-lists, call quotas,
  time-of-day windows, per-function deny lists, rate limits) that each cost
  one policy step;
* :class:`CompositePolicy` — conjunction of clauses, whose cost is the sum
  of its parts;
* :class:`KeyNotePolicy` (in :mod:`repro.secmodule.keynote`) — the
  trust-management style engine the paper planned as future work.

Every policy reports how many *steps* a given evaluation performed; the
dispatch path charges :data:`~repro.sim.costs.SMOD_POLICY_STEP` per step,
which is what the policy-complexity ablation benchmark sweeps.

A clause returns one prebuilt :class:`PolicyDecision` for each outcome
whose reason is fixed, rather than building a new one per call: decisions
are never mutated after an evaluation returns them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from ..errors import PolicyError
from .credentials import Credential


#: the attributes of a call that names none: one shared, read-only mapping
NO_ATTRIBUTES: Mapping[str, object] = MappingProxyType({})


class PolicyContext(NamedTuple):
    """Everything a policy clause may look at when deciding one call.

    Immutable: the dispatch path builds one per policy check with
    :data:`build_policy_context`, which runs no Python frame.
    """

    credential: Credential
    uid: int
    gid: int
    principal: str
    function_name: str
    now_us: float
    calls_this_session: int
    args_words: int = 0
    #: arbitrary environment attributes (host load, client labels, ...)
    attributes: Mapping[str, object] = NO_ATTRIBUTES


#: PolicyContext from its nine fields in order, without NamedTuple's
#: Python frame
build_policy_context = partial(tuple.__new__, PolicyContext)


@dataclass
class PolicyDecision:
    """Outcome of a policy evaluation (never mutated once returned)."""

    allowed: bool
    steps: int
    reason: str = ""

    def __bool__(self) -> bool:   # pragma: no cover - convenience only
        return self.allowed


class Policy(abc.ABC):
    """A single access-control policy attached to a SecModule."""

    name = "policy"
    #: True when the decision depends only on session-establishment-time
    #: inputs (uid, gid, principal, credential identity, function name) —
    #: never on the clock, call counters or per-call attributes.  Static
    #: decisions are safe to memoize per ``(session, m_id, func_id)``; see
    #: :mod:`repro.secmodule.decision_cache`.
    static = False

    @abc.abstractmethod
    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        """Decide one call.  Must report the number of steps performed."""

    def describe(self) -> str:
        return self.name


class AlwaysAllowPolicy(Policy):
    """The paper's measured baseline: allow for the lifetime of the process."""

    name = "always-allow"
    static = True
    _ALLOWED = PolicyDecision(allowed=True, steps=0, reason="always allowed")

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:   # noqa: ARG002
        return self._ALLOWED


class DenyAllPolicy(Policy):
    """Refuse everything (used to verify the deny path end-to-end)."""

    name = "deny-all"
    static = True
    _DENIED = PolicyDecision(allowed=False, steps=1, reason="denied by policy")

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:   # noqa: ARG002
        return self._DENIED


class UidAllowPolicy(Policy):
    """Allow only a fixed set of uids — the 'finer than root/non-root' case."""

    name = "uid-allowlist"
    static = True
    _ALLOWED = PolicyDecision(allowed=True, steps=1, reason="uid allowed")

    def __init__(self, allowed_uids: Sequence[int]) -> None:
        if not allowed_uids:
            raise PolicyError("uid allow-list must not be empty")
        self.allowed_uids = frozenset(int(u) for u in allowed_uids)

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        if ctx.uid in self.allowed_uids:
            return self._ALLOWED
        return PolicyDecision(allowed=False, steps=1,
                              reason=f"uid {ctx.uid} not in allow-list")


class PrincipalAllowPolicy(Policy):
    """Allow only credentials issued to certain principals."""

    name = "principal-allowlist"
    static = True
    _ALLOWED = PolicyDecision(allowed=True, steps=1, reason="principal allowed")

    def __init__(self, principals: Sequence[str]) -> None:
        if not principals:
            raise PolicyError("principal allow-list must not be empty")
        self.principals = frozenset(principals)

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        if ctx.principal in self.principals:
            return self._ALLOWED
        return PolicyDecision(allowed=False, steps=1,
                              reason=f"principal {ctx.principal!r} not allowed")


class FunctionDenyPolicy(Policy):
    """Deny specific functions in the module (everything else passes).

    This is the "certified users only for the dangerous entry points" case
    from the paper's third motivating scenario.
    """

    name = "function-denylist"
    static = True
    _PERMITTED = PolicyDecision(allowed=True, steps=1,
                                reason="function permitted")

    def __init__(self, denied_functions: Sequence[str]) -> None:
        self.denied = frozenset(denied_functions)
        #: the denying decision of each denied function
        self._denials: Dict[str, PolicyDecision] = {
            name: PolicyDecision(allowed=False, steps=1,
                                 reason=f"function {name!r} denied")
            for name in self.denied}

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        return self._denials.get(ctx.function_name, self._PERMITTED)


class CallQuotaPolicy(Policy):
    """Allow at most N calls per session — the resource-drain scenario."""

    name = "call-quota"
    _WITHIN = PolicyDecision(allowed=True, steps=1, reason="within quota")

    def __init__(self, max_calls: int) -> None:
        if max_calls <= 0:
            raise PolicyError("call quota must be positive")
        self.max_calls = max_calls
        self._exhausted = PolicyDecision(
            allowed=False, steps=1,
            reason=f"quota of {max_calls} calls exhausted")

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        if ctx.calls_this_session < self.max_calls:
            return self._WITHIN
        return self._exhausted


class TimeWindowPolicy(Policy):
    """Allow calls only inside a window of virtual time.

    Stands in for "business hours only" style conditions; virtual
    microseconds since boot play the role of wall-clock time.
    """

    name = "time-window"
    _INSIDE = PolicyDecision(allowed=True, steps=1, reason="inside window")
    _OUTSIDE = PolicyDecision(allowed=False, steps=1,
                              reason="outside permitted time window")

    def __init__(self, start_us: float, end_us: float) -> None:
        if end_us <= start_us:
            raise PolicyError("time window is empty")
        self.start_us = start_us
        self.end_us = end_us

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        if self.start_us <= ctx.now_us < self.end_us:
            return self._INSIDE
        return self._OUTSIDE


class CredentialExpiryPolicy(Policy):
    """Deny once the session's credential has passed its expiry time.

    Expiry is rechecked on *every* call (establishment-time validation alone
    would let a long-lived session outlive its credential).  The decision
    depends on the virtual clock, so it is deliberately not ``static`` — the
    decision cache must never memoize it.
    """

    name = "credential-expiry"
    _VALID = PolicyDecision(allowed=True, steps=1,
                            reason="credential still valid")
    _EXPIRED = PolicyDecision(allowed=False, steps=1,
                              reason="credential expired")

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        if ctx.credential.is_expired(ctx.now_us):
            return self._EXPIRED
        return self._VALID


class AttributePredicatePolicy(Policy):
    """Evaluate a named predicate over the context attributes.

    The predicate is a Python callable; the ``weight`` parameter says how
    many policy *steps* one evaluation is worth, letting tests and the
    ablation build arbitrarily expensive synthetic clauses.  Pass
    ``static=True`` only when the predicate genuinely ignores per-call state
    (the throughput benchmarks do this to build cacheable chains).
    """

    name = "attribute-predicate"

    def __init__(self, label: str,
                 predicate: Callable[[Dict[str, object]], bool],
                 *, weight: int = 1, static: bool = False) -> None:
        if weight < 1:
            raise PolicyError("predicate weight must be >= 1")
        self.label = label
        self.predicate = predicate
        self.weight = weight
        self.static = static
        #: the two outcomes, indexed by the predicate's verdict
        self._decisions = tuple(
            PolicyDecision(allowed=allowed, steps=weight,
                           reason=f"predicate {label!r} -> {allowed}")
            for allowed in (False, True))

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        return self._decisions[bool(self.predicate(ctx.attributes))]

    def describe(self) -> str:
        return f"{self.name}({self.label})"


class CompositePolicy(Policy):
    """Conjunction of clauses: every clause must allow; steps accumulate.

    Evaluation short-circuits on the first denial (like the paper's
    expectation that cost is proportional to the *required* check), but the
    steps already spent are still reported.

    The chain is static when every clause is.  ``clauses`` is a tuple and no
    clause's ``static`` changes after it is built, so the flag is computed
    once here rather than on every read.
    """

    name = "composite"

    def __init__(self, clauses: Sequence[Policy]) -> None:
        if not clauses:
            raise PolicyError("composite policy needs at least one clause")
        self.clauses: Tuple[Policy, ...] = tuple(clauses)
        self.static = all(clause.static for clause in self.clauses)
        #: the allowing decision per step total (one per chain in practice)
        self._allowed: Dict[int, PolicyDecision] = {}

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        total_steps = 0
        for clause in self.clauses:
            decision = clause.evaluate(ctx)
            total_steps += decision.steps
            if not decision.allowed:
                return PolicyDecision(allowed=False, steps=total_steps,
                                      reason=f"{clause.describe()}: {decision.reason}")
        allowed = self._allowed.get(total_steps)
        if allowed is None:
            allowed = self._allowed[total_steps] = PolicyDecision(
                allowed=True, steps=total_steps,
                reason=f"all {len(self.clauses)} clauses allowed")
        return allowed

    def describe(self) -> str:
        inner = ", ".join(c.describe() for c in self.clauses)
        return f"composite[{inner}]"

    def __len__(self) -> int:
        return len(self.clauses)


def synthetic_chain(length: int, *, static: bool = False) -> Policy:
    """Build an always-allowing composite of ``length`` unit-cost clauses.

    The policy-complexity ablation benchmark sweeps ``length`` to regenerate
    the paper's "slowdown proportional to check complexity" claim.  By
    default the clauses are treated as dynamic (never memoized, matching the
    paper's per-call evaluation); ``static=True`` marks them cacheable so the
    throughput benchmarks can measure the decision cache against a chain of
    known cost.
    """
    if length <= 0:
        return AlwaysAllowPolicy()
    clauses: List[Policy] = [
        AttributePredicatePolicy(f"clause-{i}", lambda attrs: True,
                                 static=static)
        for i in range(length)
    ]
    return CompositePolicy(clauses)
