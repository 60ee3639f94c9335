"""COST: cycle charges name constants from the cost table, and only live ones.

The cost model's contract (see :mod:`repro.sim.costs`) is that a typo'd
operation shows up as a loud error, never as a silently-free or
silently-renamed charge.  Statically that means:

* a ``charge("trap_entry")`` string literal bypasses the constant namespace
  and survives a table rename unnoticed (COST001);
* a charge whose operation the analyzer cannot resolve to a costs constant
  needs an explicit, reasoned exemption — forwarding wrappers are the
  legitimate case (COST002);
* a charge naming an attribute the cost table does not define, or a costs
  constant missing from ``ALL_OPERATIONS``, is a wiring bug (COST003);
* a constant no charge site references is dead weight that pads every
  profile and misleads calibration work (COST004).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core import Checker, Finding, SourceFile, module_aliases, register

#: call names treated as charge operations (first arg = operation name)
CHARGE_CALLS = frozenset({"charge", "charge_words", "charge_each"})


class CostModelFacts:
    """Constants and the operation table, extracted from a ``costs.py``."""

    def __init__(self) -> None:
        #: NAME -> (operation string value, definition line)
        self.constants: Dict[str, Tuple[str, int]] = {}
        #: names listed in the ALL_OPERATIONS tuple
        self.operation_names: Set[str] = set()

    @classmethod
    def from_source(cls, source: SourceFile) -> "CostModelFacts":
        facts = cls()
        for node in source.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            if (target.isupper() and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                facts.constants[target] = (node.value.value, node.lineno)
            elif target == "ALL_OPERATIONS":
                value = node.value
                if isinstance(node.value, ast.AnnAssign):  # pragma: no cover
                    value = node.value.value
                for element in ast.walk(value):
                    if isinstance(element, ast.Name):
                        facts.operation_names.add(element.id)
        # an annotated ``ALL_OPERATIONS: tuple = (...)`` form
        for node in source.tree.body:
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == "ALL_OPERATIONS"
                    and node.value is not None):
                for element in ast.walk(node.value):
                    if isinstance(element, ast.Name):
                        facts.operation_names.add(element.id)
        return facts


def _costs_aliases(tree: ast.AST) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to the costs module / to individual costs constants.

    Returns ``(module_aliases, constant_bindings)`` where the former is the
    set of local names referring to the costs *module* (``from ..sim import
    costs``) and the latter maps local names to constants imported directly
    (``from ..sim.costs import TRAP_ENTRY``).
    """
    modules: Set[str] = set()
    constants: Dict[str, str] = {}
    for local, canonical in module_aliases(tree).items():
        if canonical == "costs" or canonical.endswith(".costs"):
            modules.add(local)
        elif ".costs." in f".{canonical}":
            constants[local] = canonical.rsplit(".", 1)[1]
    return modules, constants


@register
class CostChecker(Checker):
    name = "cost"
    rules = {
        "COST001": "charge operation given as a string literal instead of a "
                   "sim.costs constant",
        "COST002": "charge operation not statically resolvable to a "
                   "sim.costs constant",
        "COST003": "operation name missing from the cost table "
                   "(ALL_OPERATIONS)",
        "COST004": "cost constant never referenced by any charge site "
                   "(dead operation)",
    }

    def __init__(self) -> None:
        self._facts: Optional[CostModelFacts] = None
        self._costs_rel_path: Optional[str] = None
        self._references: Set[str] = set()

    # ------------------------------------------------------------------ facts
    def _load_facts(self, ctx) -> Optional[CostModelFacts]:
        if self._facts is not None:
            return self._facts
        for source in ctx.sources:
            if source.rel_path.endswith(ctx.config.costs_suffix):
                self._facts = CostModelFacts.from_source(source)
                self._costs_rel_path = source.rel_path
                break
        return self._facts

    # ------------------------------------------------------------------ check
    def check(self, source: SourceFile, ctx) -> Iterable[Finding]:
        facts = self._load_facts(ctx)
        if facts is None:
            return
        is_costs_file = source.rel_path == self._costs_rel_path
        cost_modules, cost_constants = _costs_aliases(source.tree)
        known = facts.constants

        if is_costs_file:
            for name, (_value, line) in known.items():
                if name not in facts.operation_names:
                    yield Finding(
                        "COST003", source.rel_path, line,
                        f"constant {name} is not listed in ALL_OPERATIONS "
                        f"(no profile will price it)")

        for node in ast.walk(source.tree):
            if not is_costs_file:
                # record references for the dead-constant pass
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in cost_modules
                        and node.attr in known):
                    self._references.add(node.attr)
                elif isinstance(node, ast.Name) and node.id in cost_constants:
                    self._references.add(cost_constants[node.id])
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            func_name = (func.attr if isinstance(func, ast.Attribute)
                         else func.id if isinstance(func, ast.Name) else None)
            if func_name not in CHARGE_CALLS:
                continue
            op = self._operation_arg(node)
            if op is None:
                continue
            yield from self._check_operation(
                source, op, known, cost_modules, cost_constants)

    @staticmethod
    def _operation_arg(call: ast.Call) -> Optional[ast.expr]:
        if call.args:
            first = call.args[0]
            return None if isinstance(first, ast.Starred) else first
        for keyword in call.keywords:
            if keyword.arg == "operation":
                return keyword.value
        return None

    def _check_operation(self, source: SourceFile, op: ast.expr,
                         known, cost_modules, cost_constants
                         ) -> Iterable[Finding]:
        if isinstance(op, ast.Constant) and isinstance(op.value, str):
            yield Finding(
                "COST001", source.rel_path, op.lineno,
                f"charge op is the string literal {op.value!r}; name the "
                f"sim.costs constant so renames stay loud")
            return
        if (isinstance(op, ast.Attribute) and isinstance(op.value, ast.Name)
                and op.value.id in cost_modules):
            if op.attr in known:
                self._references.add(op.attr)
                return
            yield Finding(
                "COST003", source.rel_path, op.lineno,
                f"charge op costs.{op.attr} is not a cost-table constant")
            return
        if isinstance(op, ast.Name) and op.id in cost_constants:
            constant = cost_constants[op.id]
            if constant in known:
                self._references.add(constant)
                return
            yield Finding(
                "COST003", source.rel_path, op.lineno,
                f"charge op {op.id} is imported from sim.costs but is not a "
                f"cost-table constant")
            return
        rendered = ast.unparse(op) if hasattr(ast, "unparse") else "<expr>"
        yield Finding(
            "COST002", source.rel_path, op.lineno,
            f"charge op {rendered!r} does not resolve to a sim.costs "
            f"constant; forwarding wrappers need a reasoned allow")

    # --------------------------------------------------------------- finalize
    def finalize(self, ctx) -> Iterable[Finding]:
        facts = self._facts
        if facts is None or self._costs_rel_path is None:
            return
        for name, (_value, line) in sorted(facts.constants.items(),
                                           key=lambda item: item[1][1]):
            if name not in facts.operation_names:
                continue  # already flagged as COST003
            if name not in self._references:
                yield Finding(
                    "COST004", self._costs_rel_path, line,
                    f"cost constant {name} is never charged or referenced "
                    f"outside the table (dead operation)")
