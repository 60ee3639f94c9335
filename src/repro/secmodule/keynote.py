"""A KeyNote-style trust-management policy engine.

The paper's initial design "included the use of KeyNote policies as our
definition language" (references [3] and [4]), but the authors deferred the
integration and measured only the always-allow policy.  This module builds
that deferred piece as the reproduction's main *extension*: a small
assertion language in the spirit of RFC 2704 —

* an **assertion** names an *authorizer*, a set of *licensees* and a
  *conditions* expression over action attributes;
* a **compliance check** asks: given a set of assertions, a requesting
  principal and an action attribute set, what is the maximum compliance
  value the request achieves (``_MIN_TRUST`` … ``_MAX_TRUST``)?
* delegation works by chaining: POLICY assertions are unconditionally
  trusted roots; other assertions only contribute if their authorizer is
  itself authorized (directly or transitively).

The condition grammar is a restricted, safely-evaluated expression language:
comparisons of attribute names against string/number literals combined with
``&&`` / ``||`` / ``!`` and parentheses — enough to express the examples in
the KeyNote RFC without ever calling ``eval``.

The :class:`KeyNotePolicy` adapter plugs the checker into the SecModule
policy interface; its step count is the number of assertions examined plus
the number of condition tokens evaluated, which is what makes the
policy-complexity ablation's "KeyNote" series meaningfully more expensive
than the synthetic predicate chains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PolicyError
from .policy import Policy, PolicyContext, PolicyDecision

#: Compliance values, least to most trusted (RFC 2704 uses an ordered set).
MIN_TRUST = "_MIN_TRUST"
MAX_TRUST = "_MAX_TRUST"
DEFAULT_COMPLIANCE_VALUES: Tuple[str, ...] = (MIN_TRUST, "approve_with_log", MAX_TRUST)

#: The distinguished authorizer of root policy assertions.
POLICY_AUTHORIZER = "POLICY"


# ---------------------------------------------------------------------------
# Condition expression language
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\() |
        (?P<rparen>\)) |
        (?P<and>&&) |
        (?P<or>\|\|) |
        (?P<not>!(?!=)) |
        (?P<op>==|!=|<=|>=|<|>) |
        (?P<string>"[^"]*") |
        (?P<number>-?\d+(?:\.\d+)?) |
        (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
    )""",
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    value: str


def tokenize_condition(text: str) -> List[_Token]:
    """Split a condition expression into tokens; raise PolicyError on junk."""
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise PolicyError(f"cannot tokenize condition near {remainder[:20]!r}")
        position = match.end()
        for kind, value in match.groupdict().items():
            if value is not None:
                tokens.append(_Token(kind=kind, value=value))
                break
    return tokens


class _ConditionParser:
    """Recursive-descent parser/evaluator for the condition grammar.

    grammar:
        expr    := term ('||' term)*
        term    := factor ('&&' factor)*
        factor  := '!' factor | '(' expr ')' | comparison | 'true' | 'false'
        comparison := name op literal | name        (bare name = truthy check)
    """

    def __init__(self, tokens: List[_Token], attributes: Dict[str, object]) -> None:
        self.tokens = tokens
        self.attributes = attributes
        self.position = 0
        self.steps = 0

    def _peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise PolicyError("unexpected end of condition expression")
        self.position += 1
        return token

    def parse(self) -> bool:
        result = self._expr()
        if self._peek() is not None:
            raise PolicyError(
                f"trailing tokens in condition: {self._peek().value!r}")
        return result

    def _expr(self) -> bool:
        value = self._term()
        while self._peek() is not None and self._peek().kind == "or":
            self._advance()
            right = self._term()
            value = value or right
        return value

    def _term(self) -> bool:
        value = self._factor()
        while self._peek() is not None and self._peek().kind == "and":
            self._advance()
            right = self._factor()
            value = value and right
        return value

    def _factor(self) -> bool:
        token = self._peek()
        if token is None:
            raise PolicyError("unexpected end of condition expression")
        if token.kind == "not":
            self._advance()
            return not self._factor()
        if token.kind == "lparen":
            self._advance()
            value = self._expr()
            closing = self._advance()
            if closing.kind != "rparen":
                raise PolicyError("missing ')' in condition")
            return value
        if token.kind == "name" and token.value in ("true", "false"):
            self._advance()
            self.steps += 1
            return token.value == "true"
        return self._comparison()

    def _literal(self, token: _Token) -> object:
        if token.kind == "string":
            return token.value[1:-1]
        if token.kind == "number":
            return float(token.value) if "." in token.value else int(token.value)
        raise PolicyError(f"expected a literal, got {token.value!r}")

    def _comparison(self) -> bool:
        name_token = self._advance()
        if name_token.kind != "name":
            raise PolicyError(f"expected an attribute name, got {name_token.value!r}")
        self.steps += 1
        attr_value = self.attributes.get(name_token.value)
        next_token = self._peek()
        if next_token is None or next_token.kind != "op":
            # bare attribute: truthy / present check
            return bool(attr_value)
        op = self._advance().value
        literal = self._literal(self._advance())
        if attr_value is None:
            return False
        # KeyNote compares strings lexically and numbers numerically; we
        # coerce the attribute to the literal's type when possible.
        try:
            if isinstance(literal, (int, float)) and not isinstance(attr_value, (int, float)):
                attr_value = float(attr_value)
        except (TypeError, ValueError):
            return False
        if isinstance(literal, str):
            attr_value = str(attr_value)
        if op == "==":
            return attr_value == literal
        if op == "!=":
            return attr_value != literal
        if op == "<":
            return attr_value < literal
        if op == "<=":
            return attr_value <= literal
        if op == ">":
            return attr_value > literal
        if op == ">=":
            return attr_value >= literal
        raise PolicyError(f"unknown comparison operator {op!r}")


def evaluate_condition(text: str, attributes: Dict[str, object]) -> Tuple[bool, int]:
    """Evaluate a condition string; returns (result, steps)."""
    if not text.strip():
        return True, 1
    parser = _ConditionParser(tokenize_condition(text), attributes)
    result = parser.parse()
    return result, max(1, parser.steps)


# ---------------------------------------------------------------------------
# Assertions and compliance checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assertion:
    """One KeyNote assertion.

    ``conditions`` maps directly to a compliance value when true; an empty
    conditions string means "unconditional".  ``compliance`` is the value
    granted when the conditions hold (defaults to maximum trust).
    """

    authorizer: str
    licensees: Tuple[str, ...]
    conditions: str = ""
    compliance: str = MAX_TRUST
    comment: str = ""


@dataclass
class ComplianceResult:
    value: str
    steps: int
    chain: List[Assertion] = field(default_factory=list)

    def at_least(self, threshold: str,
                 ordering: Sequence[str] = DEFAULT_COMPLIANCE_VALUES) -> bool:
        return ordering.index(self.value) >= ordering.index(threshold)


class KeyNoteEngine:
    """Holds a set of assertions and answers compliance queries."""

    def __init__(self, assertions: Sequence[Assertion],
                 compliance_values: Sequence[str] = DEFAULT_COMPLIANCE_VALUES) -> None:
        if not assertions:
            raise PolicyError("KeyNote engine needs at least one assertion")
        self.assertions = list(assertions)
        self.compliance_values = tuple(compliance_values)
        for assertion in self.assertions:
            if assertion.compliance not in self.compliance_values:
                raise PolicyError(
                    f"assertion grants unknown compliance value "
                    f"{assertion.compliance!r}")

    def _value_rank(self, value: str) -> int:
        return self.compliance_values.index(value)

    def query(self, principal: str, attributes: Dict[str, object]) -> ComplianceResult:
        """Maximum compliance value ``principal`` achieves for ``attributes``.

        Authorization flows from POLICY assertions outward: a principal is
        *authorized at value v* if some assertion whose authorizer is
        POLICY, or is itself an authorized principal, lists it as a
        licensee and whose conditions evaluate true, granting value >= v.
        The walk is a fixed-point iteration over the (small) assertion set.
        """
        steps = 0
        best_value = MIN_TRUST
        best_chain: List[Assertion] = []
        #: principal -> best rank achieved so far
        authorized: Dict[str, int] = {POLICY_AUTHORIZER: self._value_rank(MAX_TRUST)}

        changed = True
        while changed:
            changed = False
            for assertion in self.assertions:
                steps += 1
                authorizer_rank = authorized.get(assertion.authorizer)
                if authorizer_rank is None:
                    continue
                holds, condition_steps = evaluate_condition(assertion.conditions,
                                                            attributes)
                steps += condition_steps
                if not holds:
                    continue
                granted_rank = min(authorizer_rank,
                                   self._value_rank(assertion.compliance))
                for licensee in assertion.licensees:
                    previous = authorized.get(licensee, -1)
                    if granted_rank > previous:
                        authorized[licensee] = granted_rank
                        changed = True
                        if licensee == principal and granted_rank > self._value_rank(best_value):
                            best_value = self.compliance_values[granted_rank]
                            best_chain = best_chain + [assertion]
        return ComplianceResult(value=best_value if principal in authorized else MIN_TRUST,
                                steps=steps, chain=best_chain)


class KeyNotePolicy(Policy):
    """Adapter exposing a :class:`KeyNoteEngine` as a SecModule policy."""

    name = "keynote"

    def __init__(self, engine: KeyNoteEngine, *,
                 required_value: str = MAX_TRUST) -> None:
        self.engine = engine
        self.required_value = required_value

    def evaluate(self, ctx: PolicyContext) -> PolicyDecision:
        attributes = dict(ctx.attributes)
        attributes.setdefault("app_domain", "SecModule")
        attributes.setdefault("function", ctx.function_name)
        attributes.setdefault("uid", ctx.uid)
        attributes.setdefault("calls", ctx.calls_this_session)
        result = self.engine.query(ctx.principal, attributes)
        allowed = result.at_least(self.required_value,
                                  self.engine.compliance_values)
        return PolicyDecision(allowed=allowed, steps=result.steps,
                              reason=f"keynote compliance {result.value}")

    def describe(self) -> str:
        return f"keynote[{len(self.engine.assertions)} assertions]"


def example_policy_set(licensee: str, *, function: str = "malloc",
                       delegate: Optional[str] = None) -> KeyNoteEngine:
    """A small, realistic assertion set used by tests and the ablation.

    POLICY trusts the module owner; the owner licenses ``licensee`` (and
    optionally delegates through ``delegate``) for calls whose ``function``
    attribute matches and whose call count stays under 1000.
    """
    assertions = [
        Assertion(authorizer=POLICY_AUTHORIZER, licensees=("module-owner",),
                  comment="root of trust"),
        Assertion(authorizer="module-owner", licensees=(licensee,),
                  conditions=f'app_domain == "SecModule" && function == "{function}" '
                             f'&& calls < 1000',
                  comment="direct grant"),
    ]
    if delegate is not None:
        assertions.append(Assertion(
            authorizer="module-owner", licensees=(delegate,),
            conditions='app_domain == "SecModule"',
            compliance="approve_with_log",
            comment="limited delegation"))
    return KeyNoteEngine(assertions)
