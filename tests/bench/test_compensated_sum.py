"""The baselines hold under Python 3.12's compensated builtin ``sum``.

The committed baselines are made on Python 3.11, whose ``sum`` adds floats
left to right.  Python 3.12's ``sum`` adds them with Neumaier
compensation, so a float sum can differ in the last bit.  Every exported
float sum goes through ``sim.stats.ordered_sum`` (DET004 enforces it inside
its scope).  This test guards the files outside that scope: it patches
``builtins.sum`` with an emulation of 3.12's, reruns the experiments that
average floats (fig8, abl-policy and abl-pool) at their baselines'
parameters, and asserts that no ``data`` leaf differs.
"""

from __future__ import annotations

import builtins
import math
from pathlib import Path

import pytest

from repro.bench.diff import diff_files, load_payload
from repro.bench.harness import run_experiment

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def compensated_sum(iterable, /, start=0):
    """Python 3.12's builtin ``sum``: ints add exactly; from the first
    float on, exact floats add with Neumaier compensation and ints add
    plainly; any other item ends the float run and adds with ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) in (int, bool):
                total += item
                continue
            total = total + item
            break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                added = total + item
                if abs(total) >= abs(item):
                    compensation += (total - added) + item
                else:
                    compensation += (item - added) + total
                total = added
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                total = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        total = total + item
    return total


def test_the_emulation_compensates_floats_only():
    assert compensated_sum([0.1] * 10) == 1.0   # 0.9999999999999999 on 3.11
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum(range(10)) == 45
    assert compensated_sum([2**70, 1]) == 2**70 + 1
    assert compensated_sum([[1], [2]], []) == [1, 2]


@pytest.mark.parametrize("experiment", ["fig8", "abl-policy", "abl-pool"])
def test_baseline_data_holds_under_a_compensated_sum(experiment, tmp_path,
                                                     monkeypatch):
    baseline = BASELINES / f"BENCH_{experiment}.json"
    params = load_payload(str(baseline))["params"]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    run_experiment(experiment, params, export_dir=str(tmp_path))
    monkeypatch.undo()
    diff = diff_files(str(baseline), str(tmp_path / baseline.name))
    assert [item.describe() for item in diff.items] == []
    assert diff.ok
