"""Golden outputs of the observation commands.

Each command below runs in virtual time only, so its output is a pure
function of the source: ``repro stats --live`` (a metrics snapshot),
``repro trace run --fast`` and ``repro trace report --fast`` (the span
recorder and its critical-path report) and ``repro serve status --json``
(the overloaded service-plane demo).  Each must print exactly the file of
the same name under ``golden/``.  Regenerate, after a deliberate change to
what the commands print, with::

    PYTHONPATH=src python tests/telemetry/test_observation_cli.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
from typing import Dict, List

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

#: golden file name -> ``repro`` arguments
COMMANDS: Dict[str, List[str]] = {
    "stats_live.txt": ["stats", "--live"],
    "trace_run_fast.txt": ["trace", "run", "--fast"],
    "trace_report_fast.txt": ["trace", "report", "--fast"],
    "serve_status.json": ["serve", "status", "--json"],
}


def run(argv: List[str]) -> str:
    """What ``repro <argv>`` prints, after checking it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    assert run(COMMANDS[name]) == (GOLDEN / name).read_text()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(COMMANDS.items()):
        (GOLDEN / name).write_text(run(argv))
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no arguments)")
    _regenerate()
