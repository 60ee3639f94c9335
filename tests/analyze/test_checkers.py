"""Each checker fires on its bad fixture and stays quiet on the clean one.

The fixtures under ``fixtures/tree`` form a miniature package with its own
``sim/costs.py``; running the real :func:`analyze_tree` over it exercises
the same path ``repro analyze`` takes over the live source.
"""

from pathlib import Path

import pytest

from repro.analyze import AnalysisConfig, analyze_tree

FIXTURES = Path(__file__).parent / "fixtures"
TREE = FIXTURES / "tree"


@pytest.fixture(scope="module")
def report():
    return analyze_tree(AnalysisConfig(root=TREE, allowlist={}))


def rules_in(report, filename):
    return sorted({f.rule for f in report.findings
                   if f.path.endswith(filename)})


class TestDeterminism:
    def test_bad_fixture(self, report):
        assert rules_in(report, "det_bad.py") == ["DET001", "DET002"]

    def test_counts(self, report):
        det1 = [f for f in report.findings if f.rule == "DET001"
                and f.path.endswith("det_bad.py")]
        assert len(det1) == 3  # time.time, perf_counter, random.random


class TestCost:
    def test_bad_fixture(self, report):
        assert rules_in(report, "cost_bad.py") == [
            "COST001", "COST002", "COST003"]

    def test_dead_and_untabled_constants(self, report):
        costs_rules = [f.rule for f in report.findings
                       if f.path.endswith("sim/costs.py")]
        assert costs_rules.count("COST003") == 1  # BOGUS not in the table
        assert costs_rules.count("COST004") == 1  # DEAD_OP never charged

    def test_literal_message_names_the_literal(self, report):
        (finding,) = [f for f in report.findings if f.rule == "COST001"
                      and f.path.endswith("/cost_bad.py")]
        assert "'trap'" in finding.message

    def test_charge_each_is_a_charge_site(self, report):
        findings = [(f.rule, f.line) for f in report.findings
                    if f.path.endswith("cost_each_bad.py")]
        assert findings == [("COST001", 7), ("COST002", 9)]


class TestClock:
    def test_bad_fixture(self, report):
        findings = [f for f in report.findings
                    if f.path.endswith("clock_bad.py")]
        assert [f.rule for f in findings] == ["CLOCK001", "CLOCK001"]

    def test_idle_is_not_flagged(self, report):
        lines = [f.line for f in report.findings
                 if f.path.endswith("clock_bad.py")]
        assert lines == [5, 6]


class TestTelemetry:
    def test_bad_fixture(self, report):
        assert "TELEM001" in rules_in(report, "telemetry/probe_bad.py")
        assert "TELEM002" in rules_in(report, "telemetry/probe_bad.py")

    def test_charge_each_in_telemetry_is_flagged(self, report):
        lines = [f.line for f in report.findings if f.rule == "TELEM002"
                 and f.path.endswith("probe_bad.py")]
        assert lines == [7, 8]

    def test_tracing_bad_fixture(self, report):
        rules = rules_in(report, "telemetry/tracing_bad.py")
        assert "TELEM001" in rules   # imports sim.costs
        assert "TELEM002" in rules   # charge() and clock.advance()
        telem2 = [f for f in report.findings if f.rule == "TELEM002"
                  and f.path.endswith("tracing_bad.py")]
        assert len(telem2) == 2

    def test_tracing_good_fixture_is_clean(self, report):
        assert rules_in(report, "telemetry/tracing_good.py") == []

    def test_scope_is_telemetry_only(self, report):
        outside = [f for f in report.findings
                   if f.rule.startswith("TELEM")
                   and "telemetry/" not in f.path]
        assert outside == []


class TestEpoch:
    def test_missing_bump(self, report):
        epoch1 = [f for f in report.findings if f.rule == "EPOCH001"]
        assert len(epoch1) == 1
        assert epoch1[0].path.endswith("epoch_bad.py")
        assert "forgot_bump" in epoch1[0].message

    def test_bump_and_excused_mutations_pass(self, report):
        lines = {f.line for f in report.findings
                 if f.path.endswith("epoch_bad.py")
                 and f.rule == "EPOCH001"}
        assert lines == {11}  # only the unexcused pop

    def test_malformed_annotations(self, report):
        epoch2 = [f for f in report.findings if f.rule == "EPOCH002"]
        assert len(epoch2) == 2  # unknown epoch attr + orphan directive


class TestSuppressionMeta:
    def test_reasonless_allow(self, report):
        assert "SUP001" in rules_in(report, "sup_bad.py")

    def test_stale_allow(self, report):
        assert "SUP002" in rules_in(report, "sup_bad.py")

    def test_unknown_directive(self, report):
        assert "SUP003" in rules_in(report, "sup_bad.py")

    def test_used_suppressions_counted(self, report):
        # det suppression in sup_bad.py + epoch excusal in epoch_bad.py
        assert report.suppressed == 2


class TestCleanAndScoping:
    def test_clean_fixture_has_no_findings(self, report):
        assert rules_in(report, "clean.py") == []

    def test_allowlist_drops_findings(self):
        allow = {"DET": {"tree/det_bad.py": "fixture exercising the rule"},
                 "CLOCK": {"tree/clock_bad.py": "fixture"}}
        report = analyze_tree(AnalysisConfig(root=TREE, allowlist=allow))
        assert rules_in(report, "det_bad.py") == []
        assert rules_in(report, "clock_bad.py") == []
        assert report.allowlisted == 6  # 3 DET001 + 1 DET002 + 2 CLOCK001

    def test_only_rules_restricts_output(self):
        report = analyze_tree(AnalysisConfig(
            root=TREE, allowlist={}, only_rules=("CLOCK",)))
        rules = {f.rule for f in report.findings
                 if not f.rule.startswith(("SUP", "PARSE"))}
        assert rules == {"CLOCK001"}

    def test_findings_sorted_and_renderable(self, report):
        keys = [(f.path, f.line, f.rule) for f in report.findings]
        assert keys == sorted(keys)
        for finding in report.findings:
            assert finding.path in finding.render()

    def test_json_roundtrip(self, report):
        import json
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        assert payload["files_scanned"] == report.files_scanned
        assert len(payload["findings"]) == len(report.findings)
        assert sum(payload["counts_by_rule"].values()) == len(report.findings)
