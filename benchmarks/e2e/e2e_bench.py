"""Measurement, correctness gate, report and comparison for the benchmark.

``run.py`` is the command line; this module holds what it runs.  A
workload is measured in two fresh processes: an untraced one (the
end-to-end metrics and the virtual per-layer metrics) and, with
``--trace``, a traced one (the host per-layer metrics).  Each process
returns one JSON record; :func:`assemble` turns the records into metrics
and checks.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
FIG8_BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_fig8.json"
DEFAULT_SEED = 1
#: timed reps per workload process; ``--seconds`` adds more, never fewer.
#: Set-ups take milliseconds, so their median needs many samples too.
MIN_REPS = 10
SHARE_TOLERANCE = 0.01
#: pairs of runs a claimed gain needs (the nine-in-ten rule)
MIN_PAIRS = 10


def load_spec() -> Dict[str, object]:
    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        return json.load(stream)


def units(spec: Dict[str, object], section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def peak_rss_mib() -> float:
    # not repro.bench.harness.peak_rss_bytes: importing the harness loads
    # every experiment module into the process being measured.  ru_maxrss
    # is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- workers
def measure_untraced(name: str, seed: int, *, seconds: float = 0.0,
                     smoke: bool = False,
                     min_reps: int = MIN_REPS) -> Dict[str, object]:
    """Run reps of one workload until ``seconds`` have passed (at least
    ``min_reps``), with the host-speed probe before and after each.

    ``seconds`` is the measuring time a run is given (``--seconds``; a
    benchmark runner passes BENCHMARK.json's ``run_seconds``).  At 0 the
    run is exactly ``min_reps`` reps.

    A first, untimed rep lets lazy set-up and the allocator's first growth
    finish before timing (on the reference box the first rep of a process
    ran up to 25% slower); its digest still joins the identity check.
    """
    from e2e_speed import probe
    from e2e_workloads import run_rep

    warmup = run_rep(name, seed, smoke=smoke)
    probe()                    # untimed too: the probe's first run warms it
    probes = [probe()]
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        gc.collect()
        reps.append(run_rep(name, seed, smoke=smoke))
        probes.append(probe())
    first = reps[0]
    # the virtual-accounting canary: pinned by expected.json whatever seed
    # this run was given
    reference = (warmup if smoke and seed == DEFAULT_SEED
                 else run_rep(name, DEFAULT_SEED, smoke=True))
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "reference_digest": reference.digest,
        # probe_s: the probes on either side of the rep, averaged
        "reps": [{"ops": rep.ops, "failed": rep.failed, "setup_s": rep.setup_s,
                  "run_s": rep.run_s,
                  "probe_s": (probes[index] + probes[index + 1]) / 2}
                 for index, rep in enumerate(reps)],
        "reps_identical": all(rep.digest == first.digest
                              and rep.virtual == first.virtual
                              for rep in [warmup] + reps),
        "digest": first.digest,
        "virtual": first.virtual,
        "samples": first.samples,
        "peak_rss_mib": peak_rss_mib(),
    }


def measure_traced(name: str, seed: int, trace_dir: Path, *,
                   smoke: bool = False) -> Dict[str, object]:
    """One rep with the layer shims installed; writes the Chrome trace.

    An untraced warm-up rep and probe run first, as in
    :func:`measure_untraced`, so the traced rep is as warm as the timed reps
    it is compared with, and it is scaled by host speed as they are.
    """
    from e2e_layers import SpanRecorder, entry_point_attributes
    from e2e_speed import probe
    from e2e_workloads import run_rep
    from repro.telemetry.trace_export import (chrome_trace,
                                              validate_chrome_trace,
                                              write_chrome_trace)

    run_rep(name, seed, smoke=smoke)
    probe()
    before = entry_point_attributes()
    recorder = SpanRecorder()
    probe_before = probe()
    gc.collect()
    recorder.install()
    try:
        rep = run_rep(name, seed, smoke=smoke, recorder=recorder)
    finally:
        recorder.restore()
    probe_s = (probe_before + probe()) / 2
    restored = entry_point_attributes() == before
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"trace-{name}.json"
    spans = recorder.ring_spans()
    trace_error = validate_chrome_trace(chrome_trace(spans))
    write_chrome_trace(str(path), spans)
    return {
        "ops": rep.ops,
        "failed": rep.failed,
        "setup_s": rep.setup_s,
        "run_s": rep.run_s,
        "probe_s": probe_s,
        "digest": rep.digest,
        "virtual": rep.virtual,
        "self_ns": recorder.self_ns,
        "entries": recorder.entries,
        "spans": recorder.spans,
        "missing_entry_points": recorder.missing_entry_points,
        "shims_restored": restored,
        "trace_file": str(path),
        "trace_error": trace_error,
    }


# ----------------------------------------------------------------- results
def assemble(untraced: Dict[str, object], traced: Optional[Dict[str, object]],
             spec: Dict[str, object]) -> Dict[str, object]:
    """Metrics and checks of one workload from its process records."""
    from e2e_layers import LAYERS, host_layer_metrics, layer_table
    from e2e_speed import host_speed

    name = untraced["workload"]
    with open(EXPECTED_JSON, encoding="utf-8") as stream:
        expected = json.load(stream)
    reps = untraced["reps"]
    raw_rates = [rep["ops"] / rep["run_s"] for rep in reps]
    speeds = [host_speed(rep["probe_s"]) for rep in reps]
    # host times at the reference speed: a rep that ran while the host was
    # at half speed took twice the host seconds it would have taken there
    rates = [rate / speed for rate, speed in zip(raw_rates, speeds)]
    virtual = dict(untraced["virtual"])
    end_to_end = {
        "ops_per_host_s": statistics.median(rates),
        "setup_s": statistics.median(rep["setup_s"] * speed
                                     for rep, speed in zip(reps, speeds)),
        "peak_rss_mib": untraced["peak_rss_mib"],
        "virtual_cycles_per_op": virtual.pop("virtual_cycles_per_op"),
    }
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    checks: Dict[str, bool] = {
        "reps_identical": untraced["reps_identical"],
        "reference_digest": (expected["smoke_digests"].get(name)
                             == untraced["reference_digest"]),
    }
    if untraced["seed"] == DEFAULT_SEED and not untraced["smoke"]:
        checks["expected_digest"] = (expected["digests"].get(name)
                                     == untraced["digest"])
    result: Dict[str, object] = {
        "workload": name,
        "seed": untraced["seed"],
        "reps": len(reps),
        "rep_ops_per_host_s": rates,
        "raw_ops_per_host_s": statistics.median(raw_rates),
        "host_speed": statistics.median(speeds),
        "samples": untraced["samples"],
        "digest": untraced["digest"],
        "end_to_end": end_to_end,
    }
    _check_names(end_to_end, spec, "end_to_end")
    if traced is not None:
        attempted += traced["ops"]
        failed += traced["failed"]
        # the traced rep's host time, timed apart from the spans
        total_ns = (traced["setup_s"] + traced["run_s"]) * 1e9
        per_layer = host_layer_metrics(traced["self_ns"], traced["entries"],
                                       traced["ops"], total_ns)
        per_layer.update(virtual)
        traced_rate = (traced["ops"] / traced["run_s"]
                       / host_speed(traced["probe_s"]))
        per_layer["trace_overhead_ratio"] = (
            end_to_end["ops_per_host_s"] / traced_rate)
        table = layer_table(traced["self_ns"], traced["entries"],
                            traced["ops"], total_ns)
        share_sum = sum(table[layer][0] for layer in LAYERS)
        checks.update({
            "traced_digest_equal": (traced["digest"] == untraced["digest"]
                                    and traced["virtual"]
                                    == untraced["virtual"]),
            "shims_restored": traced["shims_restored"],
            "chrome_trace_valid": traced["trace_error"] is None,
            "self_shares_sum_to_1": abs(share_sum - 1.0) <= SHARE_TOLERANCE,
        })
        _check_names(per_layer, spec, "per_layer")
        result.update({
            "per_layer": per_layer,
            "layer_table": table,
            "spans": traced["spans"],
            "trace_file": traced["trace_file"],
            "trace_error": traced["trace_error"],
            "missing_entry_points": traced["missing_entry_points"],
        })
    checks["no_failed_ops"] = failed == 0
    result.update({"checks": checks, "attempted": attempted, "failed": failed,
                   "correct": all(checks.values())})
    return result


def _check_names(metrics: Dict[str, float], spec: Dict[str, object],
                 section: str) -> None:
    declared = set(units(spec, section))
    if set(metrics) != declared:
        raise ValueError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"extra {sorted(set(metrics) - declared)}, "
            f"missing {sorted(declared - set(metrics))}")


# -------------------------------------------------------------- global gate
def check_virtual_groups() -> Optional[str]:
    """None when every cost op maps to exactly one virtual group, else why
    not."""
    from e2e_layers import group_of_ops
    from repro.sim import costs

    try:
        group_of_ops(costs)
    except ValueError as error:
        return str(error)
    return None


def check_fig8() -> Dict[str, object]:
    """``reproduce_figure8()`` rows against the committed fig8 baseline,
    plus the largest error against the paper's published means."""
    from repro.bench.figure8 import reproduce_figure8

    table = reproduce_figure8()
    rows = [{"key": row.key, "name": row.name,
             "calls_per_trial": row.calls_per_trial, "trials": row.trials,
             "mean_us": row.mean_us, "stdev_us": row.stdev_us}
            for row in table.rows]
    with open(FIG8_BASELINE, encoding="utf-8") as stream:
        baseline = json.load(stream)["data"]["rows"]
    worst = max(table.rows, key=lambda row: row.relative_error() or 0.0)
    return {"equal": rows == baseline,
            "worst_row": worst.name,
            "worst_error": worst.relative_error(),
            "worst_measured_us": worst.mean_us,
            "worst_paper_us": worst.paper_mean_us}


# ------------------------------------------------------------------ report
def render(result: Dict[str, object], spec: Dict[str, object]) -> str:
    """The human-readable block of one workload: every metric with its
    unit, the per-layer table of a traced run, and the checks."""
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"{result['reps']} reps, {result['attempted']} ops attempted, "
             f"{result['failed']} failed) ==",
             f"  host speed {result['host_speed']:.3f} of the reference; "
             f"unscaled {result['raw_ops_per_host_s']:.6g} ops/s"]
    samples = result["samples"]
    sample_note = {"virt.call_cycles_p50": samples["latencies"],
                   "virt.call_cycles_p99": samples["latencies"],
                   "virt.queue_cycles_p99": samples["queue_delays"]}
    for section in ("end_to_end", "per_layer"):
        metrics = result.get(section)
        if metrics is None:
            continue
        unit_of = units(spec, section)
        for metric, value in metrics.items():
            note = (f"  (n={sample_note[metric]})"
                    if metric in sample_note else "")
            lines.append(f"  {metric:<42} {value:>16.6g} "
                         f"{unit_of[metric]}{note}")
    table = result.get("layer_table")
    if table is not None:
        lines.append(f"  host time by layer (traced run, {result['spans']} "
                     f"spans, trace in {result['trace_file']}):")
        lines.append(f"    {'layer':<20} {'self share':>10} "
                     f"{'self ns/op':>12} {'entries/op':>11}")
        for layer, (share, ns_per_op, entries) in table.items():
            lines.append(f"    {layer:<20} {share:>10.4f} {ns_per_op:>12.1f} "
                         f"{entries:>11.3f}")
        lines.append(f"    {'total':<20} "
                     f"{sum(row[0] for row in table.values()):>10.4f}")
        if result["missing_entry_points"]:
            lines.append("  missing_entry_points: "
                         + ", ".join(result["missing_entry_points"]))
    lines.append("  checks: " + ", ".join(
        f"{check} {'ok' if ok else 'FAILED'}"
        for check, ok in result["checks"].items()))
    return "\n".join(lines)


def final_line(results: Sequence[Dict[str, object]], spec: Dict[str, object],
               *, traced: bool, gate_ok: bool) -> Dict[str, object]:
    """The last stdout line: one workload's metrics under their own names,
    several workloads' under ``<workload>.<metric>``."""
    section = "per_layer" if traced else "end_to_end"
    unit_of = units(spec, section)
    metrics: Dict[str, Dict[str, object]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, value in result[section].items():
            metrics[prefix + metric] = {"value": value,
                                        "unit": unit_of[metric]}
    return {"correct": gate_ok and all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


# ----------------------------------------------------------------- compare
def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], new: List[float], *, bound: float,
            better: str) -> str:
    """improved / unchanged / worse / unresolved for one metric.

    Runs are paired in the order given (base[i] with new[i]).  A gain needs
    at least :data:`MIN_PAIRS` pairs, the new side winning nine in ten of
    them, and medians that differ by more than the base quartile spread;
    fewer pairs that look better are unresolved.  A loss is a median worse
    by more than ``bound``.  When the base spread is wider than the bound
    the metric is unresolved, unless every new run beats every base run.
    Metrics that read identically on every run (the virtual ones) compare
    exactly.
    """
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    if len(set(base)) == 1 and len(set(new)) == 1:
        if new[0] == base[0]:
            return "unchanged"
        return "improved" if beats(new[0], base[0]) else "worse"
    b_q1, b_med, b_q3 = _quartiles(base)
    _, n_med, _ = _quartiles(new)
    every_new_wins = all(beats(x, y) for x in new for y in base)
    if (b_q3 - b_q1) / abs(b_med) > bound and not every_new_wins:
        return "unresolved"
    if sign * (n_med - b_med) / abs(b_med) > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(beats(y, x) for x, y in pairs)
    if wins >= 0.9 * len(pairs) and sign * (b_med - n_med) > b_q3 - b_q1:
        return "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    return "unchanged"


def compare(base_paths: Sequence[str], new_paths: Sequence[str],
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per workload and end-to-end metric over ``--out`` files."""
    def load(paths):
        values: Dict[tuple, List[float]] = {}
        for path in paths:
            with open(path, encoding="utf-8") as stream:
                record = json.load(stream)
            for name, result in record["workloads"].items():
                for metric, value in result["end_to_end"].items():
                    values.setdefault((name, metric), []).append(value)
        return values

    base, new = load(base_paths), load(new_paths)
    rows = []
    for workload in sorted({name for name, _ in base}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            b_q = _quartiles(base[key])
            n_q = _quartiles(new[key])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "bound": metric["bound"],
                "base": b_q, "new": n_q,
                "verdict": verdict(base[key], new[key], bound=metric["bound"],
                                   better=metric["better"])})
    return rows


def render_compare(rows: Sequence[Dict[str, object]]) -> str:
    lines = [f"{'workload':<16} {'metric':<24} "
             f"{'base q1 / median / q3':>38} {'new q1 / median / q3':>38} "
             f"{'bound':>6}  verdict"]
    for row in rows:
        base = " / ".join(f"{v:.6g}" for v in row["base"])
        new = " / ".join(f"{v:.6g}" for v in row["new"])
        lines.append(f"{row['workload']:<16} {row['metric']:<24} "
                     f"{base:>38} {new:>38} {row['bound']:>6.0%}  "
                     f"{row['verdict']}")
    return "\n".join(lines)
