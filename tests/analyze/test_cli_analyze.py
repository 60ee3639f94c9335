"""`repro analyze` CLI: exit codes, JSON mode, rule listing, rule filters."""

import json
from pathlib import Path

from repro.cli import main

FIXTURE_TREE = str(Path(__file__).parent / "fixtures" / "tree")


class TestAnalyzeCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_dirty_tree_exits_nonzero(self, capsys):
        assert main(["analyze", "--root", FIXTURE_TREE]) == 1
        out = capsys.readouterr().out
        assert "COST001" in out
        assert "by rule:" in out

    def test_json_format(self, capsys):
        code = main(["analyze", "--root", FIXTURE_TREE, "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["version"] == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert "DET001" in rules

    def test_rule_filter(self, capsys):
        code = main(["analyze", "--root", FIXTURE_TREE, "--rules", "CLOCK",
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"CLOCK001"}

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("DET001", "DET003", "COST004", "CLOCK001", "TELEM002",
                     "EPOCH001", "SUP002", "PARSE001"):
            assert rule in out
