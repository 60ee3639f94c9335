"""Runs every registered checker over a tree and folds in suppressions.

The runner owns the two meta-rules that keep the exemption mechanism
honest: every ``# smod: allow`` must carry a reason (SUP001) and must
actually suppress something (SUP002) — a stale suppression outlives the
finding it excused and silently widens the hole it punched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from .config import AnalysisConfig
from .core import Finding, SourceFile, all_checkers, rule_catalogue

META_RULES = {
    "PARSE001": "file does not parse (checkers cannot vouch for it)",
    "SUP001": "suppression comment carries no reason string",
    "SUP002": "suppression comment matches no finding (stale exemption)",
    "SUP003": "unrecognized '# smod:' directive",
}


def iter_rules() -> Dict[str, str]:
    """The full rule catalogue: every checker rule plus the meta-rules."""
    catalogue = dict(rule_catalogue())
    catalogue.update(META_RULES)
    return dict(sorted(catalogue.items()))


@dataclass
class AnalysisContext:
    """Shared state checkers may consult (config + every parsed source)."""

    config: AnalysisConfig
    sources: List[SourceFile] = field(default_factory=list)


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    root: str
    files_scanned: int
    findings: List[Finding]
    suppressed: int
    allowlisted: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        summary = (f"repro analyze: {len(self.findings)} finding(s) across "
                   f"{self.files_scanned} files "
                   f"({self.suppressed} suppressed, "
                   f"{self.allowlisted} allowlisted)")
        if self.findings:
            by_rule = ", ".join(f"{rule}: {count}" for rule, count
                                in self.counts_by_rule().items())
            return "\n".join(lines + [summary, f"by rule: {by_rule}"])
        return summary + " -- clean"

    def render_json(self) -> str:
        return json.dumps({
            "version": 1,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "suppressed": self.suppressed,
            "allowlisted": self.allowlisted,
            "counts_by_rule": self.counts_by_rule(),
            "findings": [finding.as_dict() for finding in self.findings],
        }, indent=2, sort_keys=True)


def analyze_tree(config: AnalysisConfig) -> AnalysisReport:
    """Scan every ``*.py`` under ``config.root`` with every checker."""
    rel_root = config.effective_rel_root
    sources: List[SourceFile] = []
    parse_failures: List[Finding] = []
    for path in sorted(config.root.rglob("*.py")):
        rel = path.relative_to(rel_root).as_posix()
        try:
            sources.append(SourceFile(path, rel,
                                      path.read_text(encoding="utf-8")))
        except SyntaxError as exc:
            parse_failures.append(Finding(
                "PARSE001", rel, exc.lineno or 1,
                f"syntax error: {exc.msg}"))
    ctx = AnalysisContext(config=config, sources=sources)

    raw: List[Finding] = []
    checkers = all_checkers()
    for checker in checkers:
        for source in sources:
            raw.extend(checker.check(source, ctx))
        raw.extend(checker.finalize(ctx))

    by_path = {source.rel_path: source for source in sources}
    kept: List[Finding] = list(parse_failures)
    suppressed = 0
    allowlisted = 0
    for finding in raw:
        if not config.rule_selected(finding.rule):
            continue
        if config.allowlisted(finding.rule, finding.path) is not None:
            allowlisted += 1
            continue
        source = by_path.get(finding.path)
        directive = (source.allows(finding.rule, finding.line)
                     if source is not None else None)
        if directive is not None:
            directive.used = True
            suppressed += 1
            continue
        kept.append(finding)

    # meta-rules over the directives themselves (subject to --rules too)
    meta: List[Finding] = []
    for source in sources:
        for directive in source.directives:
            if directive.kind == "allow":
                if not directive.reason:
                    meta.append(Finding(
                        "SUP001", source.rel_path, directive.line,
                        f"allow({', '.join(directive.rules)}) carries no "
                        f"reason; every exemption must be reviewable"))
                elif not directive.used and not config.only_rules:
                    meta.append(Finding(
                        "SUP002", source.rel_path, directive.line,
                        f"allow({', '.join(directive.rules)}) suppresses "
                        f"nothing; remove the stale exemption"))
            elif directive.kind == "unknown":
                meta.append(Finding(
                    "SUP003", source.rel_path, directive.line,
                    f"unrecognized smod directive {directive.raw!r}"))
    kept.extend(f for f in meta if config.rule_selected(f.rule))

    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisReport(
        root=str(config.root), files_scanned=len(sources),
        findings=kept, suppressed=suppressed, allowlisted=allowlisted)
