"""The experiment harness: every table and figure, one entry point each.

``EXPERIMENTS`` maps experiment ids (as used in DESIGN.md's per-experiment
index and EXPERIMENTS.md) to the one description of each experiment: its
runner (the sweep function itself, called with keyword parameters), the
parameters an export records, its ``--fast`` overrides, the flags that
``repro fig8`` or ``repro bench <alias>`` expose, and the report predicates
that are its checks.  The CLI builds its parsers from this table and runs
every experiment through :func:`run_experiment`, so adding an experiment is
one new entry here plus its benchmark file.

The harness also exports every run machine-readably: ``run_experiment``
with an ``export_dir`` (the CLI passes the working directory, i.e. the repo
root) writes ``BENCH_<experiment id>.json`` next to the printed report,
resolved parameters included, so the perf trajectory of a checkout is
diffable across commits and ``repro bench diff --update`` can rerun a
baseline from the parameters it records.
"""

from __future__ import annotations

import enum
import inspect
import json
import os
import platform
import time
from array import array

try:
    import resource
except ImportError:                       # pragma: no cover - non-POSIX host
    resource = None  # type: ignore[assignment]
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .ablations import (
    run_argument_size_ablation,
    run_hardening_ablation,
    run_machine_sensitivity,
    run_marshalling_ablation,
    run_policy_ablation,
    run_protection_ablation,
)
from .adaptive import run_adaptive_bench
from .batch import run_batch_sweep
from .figure7 import reproduce_figure7
from .overload import (
    FAST_ADMIT_CALLS,
    FAST_CALLS as OVERLOAD_FAST_CALLS,
    FAST_RATIOS,
    run_overload_sweep,
)
from .pool import run_pool_sweep
from .serve import FAST_SESSIONS, run_serve_sweep
from .simspeed import run_simspeed
from .figure8 import reproduce_figure8
from .figures123 import reproduce_figure1, reproduce_figure2, reproduce_figure3
from .report import section
from .throughput import run_throughput


@dataclass(frozen=True)
class Flag:
    """A command-line flag that sets one runner parameter.

    ``type`` parses the flag's text; ``bool`` makes the flag a switch.  A
    flag left off the command line sets nothing, so its parameter keeps
    the canonical (or ``--fast``) value.
    """

    name: str
    param: str
    help: Optional[str] = None
    type: Callable[[str], object] = int
    choices: Optional[Tuple[str, ...]] = None


def int_list(text: str) -> Tuple[int, ...]:
    """A comma-separated flag value such as ``--sizes 1,4,16``."""
    return tuple(int(item) for item in text.split(",") if item)


def float_list(text: str) -> Tuple[float, ...]:
    """A comma-separated flag value such as ``--ratios 0.5,1,2``."""
    return tuple(float(item) for item in text.split(",") if item)


@dataclass(frozen=True)
class ExperimentSpec:
    """One regenerable experiment."""

    experiment_id: str
    title: str
    runner: Callable[..., object]
    kind: str = "figure"          # "figure" | "table" | "ablation"
    #: runner keywords a run passes and its export records; their
    #: canonical values are the runner's defaults (a default that is not a
    #: JSON value, such as fig7's MachineSpec, stays unlisted)
    params: Tuple[str, ...] = ()
    #: ``--fast`` overrides, applied to every parameter the command line
    #: leaves unset; None when the experiment has no fast mode.  With one,
    #: the export also records ``fast``.
    fast: Optional[Dict[str, object]] = None
    #: ``repro bench <bench>`` carries ``flags``; without an alias they sit
    #: on ``repro <id>`` itself (fig8), and every other ``repro <id>`` is
    #: flagless
    bench: Optional[str] = None
    #: help line of the command that carries the flags
    help: Optional[str] = None
    flags: Tuple[Flag, ...] = ()
    #: the report's boolean predicates (methods or properties) that must
    #: hold; a failed one makes the command exit 1
    checks: Tuple[str, ...] = ()

    def resolve(self, given: Mapping[str, object]) -> Dict[str, object]:
        """A run's full parameters: the canonical values, then the
        ``--fast`` overrides when ``given`` sets ``fast``, then ``given``."""
        defaults = inspect.signature(self.runner).parameters
        params = {name: defaults[name].default for name in self.params}
        if self.fast is not None:
            params["fast"] = False
            if given.get("fast"):
                params.update(self.fast)
        unknown = sorted(set(given) - set(params))
        if unknown:
            raise ValueError(
                f"{self.experiment_id} has no parameter(s) {unknown}")
        params.update(given)
        return params

    def failed_checks(self, result: object) -> List[str]:
        """The names of the checks ``result`` fails."""
        failed = []
        for name in self.checks:
            verdict = getattr(result, name)
            if not (verdict() if callable(verdict) else verdict):
                failed.append(name)
        return failed


#: Every experiment the harness can regenerate, keyed by experiment id.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "fig1": ExperimentSpec("fig1", "SecModule initialization sequence",
                           reproduce_figure1, params=("seed",),
                           checks=("follows_expected_order",)),
    "fig2": ExperimentSpec("fig2", "Address space layout", reproduce_figure2,
                           params=("seed",)),
    "fig3": ExperimentSpec("fig3", "Stack manipulations", reproduce_figure3,
                           params=("seed", "argument")),
    "fig7": ExperimentSpec("fig7", "Test system information", reproduce_figure7),
    "fig8": ExperimentSpec(
        "fig8", "Performance comparisons", reproduce_figure8, kind="table",
        params=("trials", "sample_calls", "seed"),
        help="the Figure 8 table",
        flags=(Flag("--trials", "trials"),
               Flag("--sample-calls", "sample_calls"),
               Flag("--seed", "seed")),
        checks=("ordering_matches_paper",)),
    "abl-policy": ExperimentSpec("abl-policy", "Policy complexity sweep",
                                 run_policy_ablation, kind="ablation"),
    "abl-hardening": ExperimentSpec(
        "abl-hardening", "§4.4 hardening modes", run_hardening_ablation,
        kind="ablation", params=("trials", "sample_calls", "seed")),
    "abl-marshalling": ExperimentSpec(
        "abl-marshalling", "Shared-VM vs explicit-copy marshalling",
        run_marshalling_ablation, kind="ablation",
        params=("arg_word_counts", "calls", "seed")),
    "abl-protection": ExperimentSpec(
        "abl-protection", "Text protection modes", run_protection_ablation,
        kind="ablation", params=("calls", "seed")),
    "abl-argsize": ExperimentSpec(
        "abl-argsize", "Argument-size scaling", run_argument_size_ablation,
        kind="ablation", params=("arg_word_counts", "calls", "seed"),
        checks=("crossover_absent",)),
    "abl-machine": ExperimentSpec(
        "abl-machine", "Machine sensitivity", run_machine_sensitivity,
        kind="ablation", params=("trials", "sample_calls", "seed")),
    "abl-throughput": ExperimentSpec(
        "abl-throughput",
        "Multi-client throughput and the policy-decision cache",
        run_throughput, kind="ablation",
        params=("clients", "modules", "calls_per_client", "policy_kind",
                "seed", "fast"),
        fast={}, bench="throughput",
        help="multi-client traffic engine + decision cache",
        flags=(Flag("--clients", "clients", "number of concurrent clients"),
               Flag("--modules", "modules", "number of protected modules"),
               Flag("--sample-calls", "calls_per_client",
                    "calls issued per client"),
               Flag("--policy", "policy_kind",
                    "policy chain attached to every module", str,
                    ("static", "quota", "expiry", "deny-only")),
               Flag("--seed", "seed"),
               Flag("--fast", "fast", "CI smoke: skip the open-loop leg",
                    bool))),
    "abl-batch": ExperimentSpec(
        "abl-batch",
        "Batched dispatch: amortizing the two context switches",
        run_batch_sweep, kind="ablation", params=("sizes", "calls", "seed"),
        fast={"sizes": (1, 4, 16), "calls": 48}, bench="batch",
        help="batched dispatch: latency/call vs queue depth",
        flags=(Flag("--sizes", "sizes",
                    "comma-separated queue depths to sweep", int_list),
               Flag("--calls", "calls", "protected calls measured per point"),
               Flag("--seed", "seed"),
               Flag("--fast", "fast", "CI smoke: fewer sizes and calls",
                    bool)),
        checks=("batch1_matches_single_call", "monotonically_decreasing")),
    "abl-pool": ExperimentSpec(
        "abl-pool",
        "Handle pooling: one handle co-process serving many sessions",
        run_pool_sweep, kind="ablation",
        params=("seats", "sessions", "calls_per_session", "seed"),
        fast={"seats": (1, 4, 16), "sessions": 16}, bench="pool",
        help="handle pooling: sessions/handle vs process count",
        flags=(Flag("--seats", "seats",
                    "comma-separated seats-per-handle values to sweep",
                    int_list),
               Flag("--sessions", "sessions",
                    "sessions established per point"),
               Flag("--calls", "calls_per_session",
                    "protected calls per session in the call phase"),
               Flag("--seed", "seed"),
               Flag("--fast", "fast", "CI smoke: fewer seats and sessions",
                    bool)),
        checks=("handle_counts_match", "monotone_us_per_call")),
    "abl-serve": ExperimentSpec(
        "abl-serve",
        "Service plane: attach/lookup/pool costs vs live-session count",
        run_serve_sweep, kind="ablation",
        params=("sessions", "tenants", "sessions_per_client", "seed"),
        fast={"sessions": FAST_SESSIONS}, bench="serve",
        help="service plane: attach/lookup/pool costs vs live-session "
             "count (abl-serve)",
        flags=(Flag("--sessions", "sessions",
                    "comma-separated live-session counts to sweep "
                    "(reaches 10^6: --sessions 1000000)", int_list),
               Flag("--tenants", "tenants",
                    "tenants the sharded session table is split across"),
               Flag("--sessions-per-client", "sessions_per_client",
                    "sessions each surrogate client program holds"),
               Flag("--seed", "seed"),
               Flag("--fast", "fast", "CI smoke: two small sweep points",
                    bool)),
        checks=("lookup_ops_flat", "lookup_cost_flat")),
    "abl-adaptive": ExperimentSpec(
        "abl-adaptive",
        "Adaptive batching: AIMD queue depth from the arrival-rate EWMA",
        run_adaptive_bench, kind="ablation",
        params=("depths", "static_calls", "adaptive_calls", "mmpp_calls",
                "seed"),
        fast={"depths": (1, 4, 16), "static_calls": 96,
              "adaptive_calls": 256, "mmpp_calls": 256},
        bench="adaptive", help="AIMD batch controller vs static queue depths",
        flags=(Flag("--depths", "depths",
                    "comma-separated static depths for the baseline sweep",
                    int_list),
               Flag("--calls", "adaptive_calls",
                    "calls in the adaptive steady leg"),
               Flag("--seed", "seed"),
               Flag("--fast", "fast", "CI smoke: fewer depths and calls",
                    bool)),
        checks=("within_20_percent", "adapted_up_and_down")),
    "abl-simspeed": ExperimentSpec(
        "abl-simspeed",
        "Simulator speed: op-by-op vs fast-forward dispatch (wall clock)",
        run_simspeed, kind="ablation",
        params=("calls", "clients", "modules", "seed", "shards", "workers",
                "fast"),
        fast={}, bench="simspeed",
        help="simulator wall-clock speed: op-by-op vs fast-forward, serial "
             "and sharded (exit 1 when the tiers or worker counts disagree)",
        flags=(Flag("--calls", "calls",
                    "fast-forward-tier protected calls (10^5 to 10^7; "
                    "slower tiers are capped)"),
               Flag("--clients", "clients"),
               Flag("--modules", "modules"),
               Flag("--seed", "seed"),
               Flag("--shards", "shards",
                    "independent client groups for the sharded legs "
                    "(1 skips them)"),
               Flag("--workers", "workers",
                    "worker processes for the parallel sharded leg "
                    "(merged accounting must match workers=1 exactly)"),
               Flag("--fast", "fast", "CI smoke: a few thousand calls per leg",
                    bool)),
        checks=("identical",)),
    "abl-overload": ExperimentSpec(
        "abl-overload",
        "Overload protection: the goodput/tail-latency knee past saturation",
        run_overload_sweep, kind="ablation",
        params=("ratios", "calls", "admit_calls", "seed"),
        fast={"ratios": FAST_RATIOS, "calls": OVERLOAD_FAST_CALLS,
              "admit_calls": FAST_ADMIT_CALLS},
        bench="overload",
        help="overload protection: goodput/tail-latency knee past "
             "saturation, shedding off vs on (abl-overload)",
        flags=(Flag("--ratios", "ratios",
                    "comma-separated offered-load ratios "
                    "(offered rate / pool capacity)", float_list),
               Flag("--calls", "calls",
                    "open-loop arrivals offered per (leg, ratio) point"),
               Flag("--admit-calls", "admit_calls",
                    "bound calls offered in the admission-control leg"),
               Flag("--seed", "seed"),
               Flag("--fast", "fast", "CI smoke: fewer ratios and calls",
                    bool)),
        checks=("protected_goodput_holds", "protected_tail_bounded",
                "unprotected_tail_blows", "unprotected_goodput_collapses",
                "admission_refusal_cheap")),
}


@dataclass
class ExperimentRun:
    """An executed experiment: the spec, its result object and rendering."""

    spec: ExperimentSpec
    result: object
    rendered: str
    #: the resolved parameters the runner ran with
    params: Dict[str, object]
    #: names of the spec's checks the result failed
    failed_checks: List[str]
    #: host wall-clock seconds the runner took (None when not measured)
    wall_seconds: Optional[float] = None


# ------------------------------------------------------------ JSON export
def to_jsonable(value: object) -> object:
    """Coerce a result object into something ``json.dump`` accepts.

    Dataclasses become dicts field by field (without ``asdict``'s deep-copy
    surprises on non-dataclass members), enums their values, and anything
    else unrecognized its ``str()`` — an export must never fail just
    because a report grew an exotic field.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # named tuples (the Figure 3 stack slots) export like dataclasses
        return {name: to_jsonable(item)
                for name, item in zip(value._fields, value)}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, array):
        # latency vectors are array('d'); export exactly as a list would
        return value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in fields(value)}
    return str(value)


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes (None off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalize to
    bytes.  A high-water mark, not a per-experiment delta: runs later in a
    ``repro all`` sweep inherit earlier peaks.  Machine-dependent, so it
    lives at the payload top level (outside ``data``) where the byte-exact
    regression gate never looks.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":    # pragma: no cover - mac only
        return int(peak)
    return int(peak) * 1024


def result_total_calls(result: object) -> Optional[int]:
    """Simulated protected calls a result covers (for the wall-rate field).

    Reports may define ``bench_total_calls`` explicitly; otherwise a plain
    integer ``total_calls`` attribute is used.  None when the result has no
    meaningful call count (layout figures, dmesg tables).
    """
    for attribute in ("bench_total_calls", "total_calls"):
        value = getattr(result, attribute, None)
        if isinstance(value, int) and value > 0:
            return value
    return None


def experiment_payload(experiment_id: str, title: str, kind: str,
                       result: object, rendered: str, *,
                       params: Optional[Dict[str, object]] = None,
                       wall_seconds: Optional[float] = None
                       ) -> Dict[str, object]:
    """The machine-readable record written to ``BENCH_<id>.json``.

    ``params`` records the resolved run parameters (client counts, call
    counts, ``fast``, ...) so a cross-commit diff of the files can tell a
    smoke run from the canonical experiment instead of silently comparing
    runs of different sizes, and ``repro bench diff --update`` can rerun
    the experiment from the file alone.

    ``wall_seconds`` is the host wall-clock time the run took; together
    with the result's call count it yields ``calls_per_wall_second`` — the
    simulator-throughput trajectory of a checkout.  Both are machine-
    dependent and excluded from the ``repro bench diff`` regression gate,
    as is ``peak_rss_bytes`` — the process's memory high-water mark, the
    other half of the scaling story at 10^7+-call runs.

    ``python`` and ``numpy`` name the interpreter and numpy versions that
    made the run.  They sit outside ``params`` and ``data``, so runs made
    on different versions still compare, and a failing diff names both.
    """
    if hasattr(result, "as_dict"):
        data = to_jsonable(result.as_dict())
    elif is_dataclass(result) and not isinstance(result, type):
        data = to_jsonable(result)
    else:
        data = None
    total_calls = result_total_calls(result)
    return {
        "experiment": experiment_id,
        "title": title,
        "kind": kind,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "params": to_jsonable(params or {}),
        "data": data,
        "rendered": rendered,
        "wall_seconds": wall_seconds,
        "calls_per_wall_second": (
            total_calls / wall_seconds
            if wall_seconds and total_calls else None),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def export_payload(payload: Dict[str, object],
                   directory: str = ".") -> str:
    """Write one experiment payload to ``<directory>/BENCH_<id>.json``."""
    path = os.path.join(directory, f"BENCH_{payload['experiment']}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def export_run(run: ExperimentRun, directory: str = ".") -> str:
    """Export one executed experiment as ``BENCH_<id>.json``."""
    return export_payload(
        experiment_payload(run.spec.experiment_id, run.spec.title,
                           run.spec.kind, run.result, run.rendered,
                           params=run.params, wall_seconds=run.wall_seconds),
        directory)


def run_experiment(experiment_id: str,
                   params: Optional[Mapping[str, object]] = None, *,
                   export_dir: Optional[str] = None) -> ExperimentRun:
    """Run one experiment by id and evaluate its checks.

    ``params`` sets parameters over the canonical ones (``{"fast": True}``
    selects the fast mode); ``export_dir`` also writes the JSON record.
    """
    spec = EXPERIMENTS[experiment_id]
    resolved = spec.resolve(params or {})
    start = time.perf_counter()
    result = spec.runner(**{name: resolved[name] for name in spec.params})
    wall_seconds = time.perf_counter() - start
    rendered = result.render() if hasattr(result, "render") else str(result)
    run = ExperimentRun(spec=spec, result=result, rendered=rendered,
                        params=resolved, wall_seconds=wall_seconds,
                        failed_checks=spec.failed_checks(result))
    if export_dir is not None:
        export_run(run, export_dir)
    return run


def run_all(experiment_ids: Optional[List[str]] = None, *,
            export_dir: Optional[str] = None) -> List[ExperimentRun]:
    """Run several (default: all) experiments in DESIGN.md order."""
    ids = experiment_ids or list(EXPERIMENTS)
    return [run_experiment(experiment_id, export_dir=export_dir)
            for experiment_id in ids]


def full_report(runs: List[ExperimentRun]) -> str:
    """Concatenate experiment renderings into one report document."""
    parts = []
    for run in runs:
        parts.append(section(f"[{run.spec.experiment_id}] {run.spec.title}",
                             run.rendered))
    return "\n".join(parts)
