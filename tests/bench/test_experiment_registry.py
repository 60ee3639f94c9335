"""The experiment registry: one table runs, exports and checks every
experiment, and regenerates every committed baseline."""

import json
import pathlib
import shutil

import pytest

from repro.bench.batch import BatchReport
from repro.bench.harness import EXPERIMENTS, run_experiment, to_jsonable
from repro.cli import main as cli_main

BASELINES = (pathlib.Path(__file__).resolve().parents[2]
             / "benchmarks" / "baselines")


def _fast(spec):
    return {} if spec.fast is None else {"fast": True}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_fast_run_holds_its_checks_and_round_trips(experiment_id, tmp_path):
    spec = EXPERIMENTS[experiment_id]
    run = run_experiment(experiment_id, _fast(spec), export_dir=str(tmp_path))
    assert run.failed_checks == []
    payload = json.loads(
        (tmp_path / f"BENCH_{experiment_id}.json").read_text())
    assert payload["params"] == to_jsonable(run.params)
    assert payload["data"] is not None
    assert payload["rendered"] == run.rendered


def test_flags_and_fast_overrides_set_runner_parameters():
    for spec in EXPERIMENTS.values():
        canonical = spec.resolve({})
        for flag in spec.flags:
            assert flag.param in canonical, (spec.experiment_id, flag.name)
        for name in spec.fast or {}:
            assert name in spec.params, (spec.experiment_id, name)


def test_fast_overrides_only_what_the_command_line_leaves_unset():
    params = EXPERIMENTS["abl-batch"].resolve({"fast": True, "calls": 96})
    assert (params["sizes"], params["calls"], params["fast"]) == (
        (1, 4, 16), 96, True)


def test_every_experiment_has_a_baseline():
    ids = {path.stem[len("BENCH_"):] for path in BASELINES.glob("BENCH_*.json")}
    assert ids == set(EXPERIMENTS)


@pytest.mark.parametrize("path", sorted(BASELINES.glob("BENCH_*.json")),
                         ids=lambda path: path.stem)
def test_canonical_params_are_the_baselines_params(path):
    """`repro <id>` records exactly what its committed baseline records,
    so the CI loop's `bench diff` compares like with like."""
    payload = json.loads(path.read_text())
    spec = EXPERIMENTS[payload["experiment"]]
    assert to_jsonable(spec.resolve({})) == payload["params"]


@pytest.mark.parametrize("argv", [["bench", "batch", "--fast"],
                                  ["abl-batch"],
                                  ["all", "--only", "abl-batch"]])
def test_a_failed_check_prints_exports_and_exits_one(argv, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(BatchReport, "monotonically_decreasing",
                        lambda self: False)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "cycles/call monotonically decreasing: NO" in captured.out
    assert "abl-batch: check failed: monotonically_decreasing" in captured.err
    assert (tmp_path / "BENCH_abl-batch.json").exists()


def test_update_regenerates_each_baseline_from_its_params(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    names = ("BENCH_abl-batch.json", "BENCH_abl-pool.json", "BENCH_fig8.json")
    for name in names:
        shutil.copy(BASELINES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["bench", "diff", "--update",
                     "--baselines-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("regenerated and staged") == 3
    for name in names:
        committed = json.loads((BASELINES / name).read_text())
        regenerated = json.loads((tmp_path / name).read_text())
        assert (json.dumps(regenerated["data"], indent=2, sort_keys=True)
                == json.dumps(committed["data"], indent=2, sort_keys=True))
        assert regenerated["params"] == committed["params"]


def test_update_reruns_with_the_recorded_params(tmp_path, monkeypatch):
    """A baseline recorded at non-canonical parameters stays at them."""
    monkeypatch.chdir(tmp_path)
    smoke = run_experiment("abl-batch", {"fast": True, "calls": 96},
                           export_dir=str(tmp_path))
    before = json.loads((tmp_path / "BENCH_abl-batch.json").read_text())
    assert cli_main(["bench", "diff", "--update",
                     "--baselines-dir", str(tmp_path)]) == 0
    after = json.loads((tmp_path / "BENCH_abl-batch.json").read_text())
    assert after["params"] == before["params"] == to_jsonable(smoke.params)
    assert after["data"] == before["data"]


def test_update_refuses_an_unknown_experiment(tmp_path, capsys):
    (tmp_path / "BENCH_abl-nope.json").write_text(
        json.dumps({"experiment": "abl-nope", "params": {}}))
    assert cli_main(["bench", "diff", "--update",
                     "--baselines-dir", str(tmp_path)]) == 2
    assert "abl-nope" in capsys.readouterr().err
