"""Command-line interface: ``repro`` (alias ``secmodule-bench``).

Regenerates the paper's tables and figures (and the ablations) from the
command line::

    repro list                    # show available experiments
    repro fig8                    # the Figure 8 latency table
    repro fig8 --trials 3         # faster, fewer trials
    repro all -o report.txt       # everything, written to a file
    repro describe                # one-page tour of a live system
    repro bench throughput --clients 32   # multi-client traffic engine
    repro bench pool --sessions 64        # handle pooling sweep (abl-pool)
    repro bench adaptive                  # AIMD batch controller (abl-adaptive)
    repro stats                   # pretty-print metrics (BENCH_*.json or live)

Experiment and bench commands also write a machine-readable
``BENCH_<experiment id>.json`` into the working directory (suppress with
``--no-export``); ``repro stats`` reads those files back.  They exit 1,
naming the check on stderr, when a report fails one of its checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bench.diff import BenchDiffError, diff_files, load_payload
from .bench.harness import (
    EXPERIMENTS,
    ExperimentRun,
    Flag,
    full_report,
    run_all,
    run_experiment,
)
from .secmodule.api import SecModuleSystem
from .telemetry import render_snapshot
from .workloads.traffic import TrafficSpec, run_traffic


def _add_experiment_parser(subparsers, name: str, help: Optional[str],
                           experiment_id: str, flags: Sequence[Flag]) -> None:
    """A command that runs one experiment, ``flags`` setting its params."""
    sub = subparsers.add_parser(name, help=help)
    sub.set_defaults(experiment=experiment_id)
    for flag in flags:
        if flag.type is bool:
            sub.add_argument(flag.name, dest=flag.param, action="store_true",
                             default=None, help=flag.help)
            continue
        metavar = (None if flag.choices
                   else flag.name.lstrip("-").upper().replace("-", "_"))
        sub.add_argument(flag.name, dest=flag.param, type=flag.type,
                         choices=flag.choices, metavar=metavar, help=flag.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secmodule-bench",
        description="Regenerate the SecModule paper's tables, figures and ablations.")
    parser.add_argument("-o", "--output", help="write the report to this file")
    parser.add_argument("--no-export", action="store_true",
                        help="skip writing BENCH_<id>.json next to the report")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")
    subparsers.add_parser("describe",
                          help="build a SecModule system and describe it")
    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--only", nargs="*", default=None,
                            help="restrict to these experiment ids")

    bench_parser = subparsers.add_parser(
        "bench", help="workload benchmarks (beyond the paper's figures)")
    bench_sub = bench_parser.add_subparsers(dest="bench_command")
    for spec in EXPERIMENTS.values():
        if spec.bench is not None:
            _add_experiment_parser(bench_sub, spec.bench, spec.help,
                                   spec.experiment_id, spec.flags)

    dp = bench_sub.add_parser(
        "diff", help="regression gate: compare two BENCH_<id>.json exports")
    dp.add_argument("old", nargs="?", default=None,
                    help="baseline export (e.g. benchmarks/baselines/"
                         "BENCH_fig8.json)")
    dp.add_argument("new", nargs="?", default=None,
                    help="freshly generated export to check")
    dp.add_argument("--rel-tol", type=float, default=0.0,
                    help="relative tolerance, in either direction, before "
                         "a changed leaf fails (default 0: byte-exact)")
    dp.add_argument("--update", action="store_true",
                    help="regenerate every committed baseline under "
                         "benchmarks/baselines/ from its recorded params "
                         "and git-add the results (use when a cost change "
                         "is intentional)")
    dp.add_argument("--baselines-dir", default="benchmarks/baselines",
                    help="baseline directory for --update")

    an = subparsers.add_parser(
        "analyze", help="simulator-invariant static analysis "
                        "(determinism, cost, clock, telemetry, epoch lints)")
    an.add_argument("--format", choices=["human", "json"], default="human",
                    help="findings as human-readable lines or one JSON blob")
    an.add_argument("--root", default=None,
                    help="directory tree to scan "
                         "(default: the installed repro package)")
    an.add_argument("--rules", default=None,
                    help="comma-separated rule ids or family prefixes to "
                         "run (e.g. DET,COST001); default: all")
    an.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")

    sv = subparsers.add_parser(
        "serve", help="service-plane surfaces (status snapshot)")
    sv_sub = sv.add_subparsers(dest="serve_command")
    ss = sv_sub.add_parser(
        "status", help="boot a demo service plane and print its telemetry "
                       "snapshot: live sessions per tenant, pool occupancy, "
                       "broker health")
    ss.add_argument("--json", action="store_true",
                    help="emit the raw status dict as JSON")
    ss.add_argument("--clients", type=int, default=6,
                    help="demo clients attached through the front-end")
    ss.add_argument("--tenants", type=int, default=3,
                    help="tenants the demo clients are spread across")
    ss.add_argument("--calls", type=int, default=24,
                    help="pooled calls driven before the snapshot")
    ss.add_argument("--seed", type=int, default=0x5E21)

    tr = subparsers.add_parser(
        "trace", help="virtual-time causal tracing: run a traced workload, "
                      "print the critical-path breakdown, export to Perfetto")
    tr_sub = tr.add_subparsers(dest="trace_command")
    trr = tr_sub.add_parser(
        "run", help="drive a traced workload and print flight-recorder "
                    "stats (a via-service MMPP run by default)")
    trp = tr_sub.add_parser(
        "report", help="per-request critical-path breakdown: service vs "
                       "queue vs resolve vs switch, p50/p95 per segment")
    tre = tr_sub.add_parser(
        "export", help="write the recorded spans as Chrome trace-event "
                       "JSON (load at https://ui.perfetto.dev)")
    for trace_parser in (trr, trp, tre):
        trace_parser.add_argument("--clients", type=int, default=8)
        trace_parser.add_argument("--modules", type=int, default=2)
        trace_parser.add_argument("--sample-calls", type=int, default=64,
                                  help="calls issued per client")
        trace_parser.add_argument("--arrival", default="mmpp",
                                  choices=["closed", "open", "mmpp"])
        trace_parser.add_argument("--direct", action="store_true",
                                  help="trace the direct dispatch path "
                                       "instead of the service plane")
        trace_parser.add_argument("--sample-every", type=int, default=1,
                                  help="deterministic head sampling: keep "
                                       "spans for 1 in K clients")
        trace_parser.add_argument("--capacity", type=int, default=0,
                                  help="flight-recorder span capacity "
                                       "(0: tracer default)")
        trace_parser.add_argument("--seed", type=int, default=0xB07_7E57)
        trace_parser.add_argument("--fast", action="store_true",
                                  help="CI smoke: tiny run")
    tre.add_argument("--out", default="TRACE_smod.json",
                     help="output path for the Chrome trace-event JSON")

    st = subparsers.add_parser(
        "stats", help="pretty-print metrics snapshots "
                      "(from BENCH_*.json files, or a live traffic run)")
    st.add_argument("paths", nargs="*",
                    help="BENCH_*.json files to summarize "
                         "(default: every BENCH_*.json in the working "
                         "directory; a live run when none exist)")
    st.add_argument("--live", action="store_true",
                    help="run a small telemetry-enabled traffic workload "
                         "and print its metrics snapshot")
    st.add_argument("--clients", type=int, default=4)
    st.add_argument("--sample-calls", type=int, default=8)
    st.add_argument("--seed", type=int, default=0xB07_7E57)

    # `repro <id>` is flagless unless no bench alias carries its flags (fig8)
    for spec in EXPERIMENTS.values():
        if spec.bench is None:
            _add_experiment_parser(subparsers, spec.experiment_id,
                                   spec.help or spec.title,
                                   spec.experiment_id, spec.flags)
        else:
            _add_experiment_parser(subparsers, spec.experiment_id,
                                   spec.title, spec.experiment_id, ())
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def _update_baselines(baselines_dir: str
                      ) -> List[Tuple[str, ExperimentRun]]:
    """Regenerate every committed baseline from its recorded params.

    Each ``BENCH_<id>.json`` under ``baselines_dir`` names its experiment
    and the exact parameters it was generated with, so an intentional
    cost-model change becomes one command: rerun each with those params,
    rewrite the file and ``git add`` it for the next commit.  Every file is
    read and its parameters checked before any is rewritten.
    """
    import subprocess

    paths = sorted(glob.glob(str(Path(baselines_dir) / "BENCH_*.json")))
    if not paths:
        raise BenchDiffError(f"no BENCH_*.json baselines in {baselines_dir}")
    jobs = []
    for path in paths:
        payload = load_payload(path)
        spec = EXPERIMENTS.get(payload["experiment"])
        if spec is None:
            raise BenchDiffError(
                f"{path}: unknown experiment {payload['experiment']!r}")
        params = payload.get("params") or {}
        spec.resolve(params)          # raises on a parameter it does not take
        jobs.append((path, spec.experiment_id, params))
    staged = [(path, run_experiment(experiment_id, params,
                                    export_dir=baselines_dir))
              for path, experiment_id, params in jobs]
    result = subprocess.run(["git", "add", "--"] + paths,
                            capture_output=True, text=True)
    if result.returncode != 0:
        print(f"warning: git add failed: {result.stderr.strip()}",
              file=sys.stderr)
    return staged


def _exit_for_checks(runs: List[ExperimentRun]) -> int:
    """Name every failed check on stderr; 1 when there is one, else 0."""
    failed = [f"{run.spec.experiment_id}: check failed: {name}"
              for run in runs for name in run.failed_checks]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def _render_payload_value(key: str, value: object, indent: int,
                          lines: List[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if {"counters", "gauges", "histograms"} <= set(value.keys()):
            lines.append(f"{pad}{key}:")
            body = render_snapshot(value, title="metrics").splitlines()[2:]
            lines.extend(pad + "  " + line for line in body)
            return
        lines.append(f"{pad}{key}:")
        for sub_key, sub_value in value.items():
            _render_payload_value(str(sub_key), sub_value, indent + 1, lines)
    elif isinstance(value, list):
        if len(value) > 8 or any(isinstance(v, (dict, list)) for v in value):
            lines.append(f"{pad}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{pad}{key}: {value}")
    elif isinstance(value, float):
        lines.append(f"{pad}{key}: {value:.4f}")
    else:
        lines.append(f"{pad}{key}: {value}")


def _render_bench_file(path: str) -> str:
    """Summarize one BENCH_<id>.json for ``repro stats``."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    title = f"{path}: [{payload.get('experiment')}] {payload.get('title')}"
    lines = [title, "-" * len(title)]
    host: List[str] = []
    wall = payload.get("wall_seconds")
    if isinstance(wall, (int, float)):
        host.append(f"wall={wall:.2f}s")
    rate = payload.get("calls_per_wall_second")
    if isinstance(rate, (int, float)) and rate:
        host.append(f"{rate:,.0f} calls/wall-s")
    rss = payload.get("peak_rss_bytes")
    if isinstance(rss, (int, float)) and rss:
        host.append(f"peak-rss={rss / (1 << 20):.1f}MiB")
    if host:
        lines.append("  host: " + "  ".join(host))
    data = payload.get("data")
    if isinstance(data, dict):
        for key, value in data.items():
            _render_payload_value(str(key), value, 1, lines)
    elif data is not None:
        lines.append(f"  data: {data}")
    else:
        lines.append("  (no structured data; see the rendered report)")
    return "\n".join(lines)


def _run_traced(args) -> "TrafficResult":
    """Drive the ``repro trace`` workload: a traced traffic run."""
    clients = args.clients
    calls = args.sample_calls
    if args.fast:
        clients = min(clients, 4)
        calls = min(calls, 16)
    spec = TrafficSpec(clients=clients, modules=args.modules,
                       calls_per_client=calls, arrival=args.arrival,
                       via_service=not args.direct, tracing=True,
                       trace_sample_every=args.sample_every,
                       trace_capacity=args.capacity, seed=args.seed)
    return run_traffic(spec)


def _render_trace_stats(result) -> str:
    """Human-readable ``repro trace run`` summary."""
    stats = result.trace_stats
    spec = result.spec
    path = "via-service" if spec.via_service else "direct"
    lines = [
        f"traced {path} {spec.arrival} run: {result.describe()}",
        f"  flight recorder: {stats.get('recorded', 0)} spans recorded "
        f"({stats.get('dropped', 0)} dropped by the ring, "
        f"{stats.get('sampled_out', 0)} sampled out, "
        f"{stats.get('open', 0)} left open), "
        f"capacity {stats.get('capacity', 0)}, "
        f"head sampling 1-in-{stats.get('sample_every', 1)}",
    ]
    kinds: Dict[str, int] = {}
    for span in result.trace_spans:
        kinds[span.kind] = kinds.get(span.kind, 0) + 1
    if kinds:
        per = ", ".join(f"{kind}: {count}"
                        for kind, count in sorted(kinds.items()))
        lines.append(f"  span kinds: {per}")
    return "\n".join(lines)


def _live_stats(clients: int, sample_calls: int, seed: int) -> str:
    """Run a small telemetry-enabled traffic workload and snapshot it."""
    spec = TrafficSpec(clients=clients, modules=2,
                       calls_per_client=sample_calls, arrival="open",
                       telemetry=True, seed=seed)
    result = run_traffic(spec)
    return render_snapshot(
        result.metrics,
        title=(f"live metrics: {clients} clients x 2 modules, "
               f"{sample_calls} calls/client, open-loop arrivals"))


def _serve_status_demo(clients: int, tenants: int, calls: int,
                       seed: int) -> Dict[str, object]:
    """Boot a small service plane, drive it, and return its status dict."""
    from .control.overload import OverloadConfig
    from .hw.machine import make_paper_machine
    from .kernel.kernel import Kernel
    from .secmodule.libc_conversion import build_test_module
    from .secmodule.protection import ProtectionMode
    from .secmodule.smod_syscalls import install_secmodule
    from .serve.attachment_pool import PoolConfig
    from .serve.frontend import ServiceConfig, ServiceFrontend

    machine = make_paper_machine(seed=seed)
    kernel = Kernel(machine=machine).boot()
    extension = install_secmodule(kernel)
    registered = extension.registry.register(
        build_test_module(), uid=0, protection=ProtectionMode.ENCRYPT)
    # a deliberately small, protected pool: the 1us-spaced demo calls
    # overload it, so the status shows live shed/breaker/retry counters
    frontend = ServiceFrontend(
        kernel, extension,
        config=ServiceConfig(
            pool=PoolConfig(max_attachments=2),
            overload=OverloadConfig(deadline_us=12.0,
                                    breaker_window_us=100.0,
                                    retry_budget=4)))
    record = frontend.register_backend("secmodule", [registered])
    for index in range(max(1, clients)):
        frontend.attach(record, tenant=index % max(1, tenants))
    base_us = machine.meter.profile.microseconds(machine.clock.cycles)
    for index in range(calls):
        frontend.call_pooled(record, "test_incr", index,
                             arrival_us=base_us + index * 1.0)
    return frontend.status()


def _render_serve_status(status: Dict[str, object]) -> str:
    """Human-readable ``repro serve status`` lines."""
    lines = [f"service plane @ {status['now_us']:.1f}us (virtual)",
             f"  live sessions: {status['live_sessions']}  "
             f"bindings: {status['bindings']}  "
             f"attaches: {status['attaches']}  "
             f"detaches: {status['detaches']}"]
    tenants = status.get("sessions_by_tenant") or {}
    if tenants:
        per = ", ".join(f"tenant {tenant}: {count}"
                        for tenant, count in sorted(tenants.items()))
        lines.append(f"  sessions by tenant: {per}")
    lines.append(f"  calls: {status['bound_calls']} bound, "
                 f"{status['pooled_calls']} pooled")
    for name, backend in sorted((status.get("backends") or {}).items()):
        lines.append(
            f"  backend {name}: state={backend.get('state')} "
            f"handles={backend.get('handles')} "
            f"live={backend.get('live_handles')} "
            f"seated={backend.get('seated_sessions')} "
            f"policy={backend.get('policy')}")
    for name, pool in sorted((status.get("pools") or {}).items()):
        lines.append(
            f"  pool {name}: {pool['size']}/{pool['max_attachments']} "
            f"attachments, busy={pool.get('busy', 0)} "
            f"queued={pool.get('queued', 0)}, "
            f"{pool['checkouts']} checkouts "
            f"({pool['waits']} waited, mean {pool['mean_wait_us']:.2f}us, "
            f"max {pool['max_wait_us']:.2f}us; "
            f"{pool['refusals']} refused)")
    overload = status.get("overload") or {}
    if overload:
        sheds = overload.get("pool_sheds") or {}
        lines.append(
            f"  overload: {sum(sheds.values())} pool sheds, "
            f"{overload.get('broker_seat_sheds', 0)} seat sheds, "
            f"{overload.get('dispatcher_calls_shed', 0)} admission "
            f"refusals, {overload.get('down_refusals', 0)} down + "
            f"{overload.get('breaker_refusals', 0)} breaker refusals")
        for name, breaker in sorted((overload.get("breakers") or {}).items()):
            lines.append(
                f"  breaker {name}: state={breaker.get('state')} "
                f"trips={breaker.get('trips')} "
                f"fast-fails={breaker.get('fast_fails')} "
                f"probes={breaker.get('probes')} "
                f"window={breaker.get('window')}")
        for name, budget in sorted(
                (overload.get("retry_budgets") or {}).items()):
            lines.append(
                f"  retry budget {name}: {budget.get('remaining')}/"
                f"{budget.get('budget')} remaining "
                f"({budget.get('consumed')} consumed, "
                f"{budget.get('exhaustions')} exhaustions)")
        admission = overload.get("admission")
        if admission:
            lines.append(
                f"  admission: {admission.get('admitted')} admitted, "
                f"{admission.get('refused')} refused across "
                f"{len(admission.get('clients') or {})} client buckets")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command or "list"
    export_dir = None if args.no_export else "."

    if command == "list":
        lines = [f"{experiment_id:<16s} {spec.title}"
                 for experiment_id, spec in EXPERIMENTS.items()]
        _emit("\n".join(lines), args.output)
        return 0

    if command == "describe":
        system = SecModuleSystem.create()
        body = [system.describe(), "",
                f"native getpid()    -> {system.native_getpid()}",
                f"SMOD test_incr(41) -> {system.call('test_incr', 41)}",
                f"SMOD getpid()      -> {system.call('getpid')}"]
        _emit("\n".join(body), args.output)
        return 0

    if command == "all":
        runs = run_all(args.only, export_dir=export_dir)
        _emit(full_report(runs), args.output)
        return _exit_for_checks(runs)

    experiment = getattr(args, "experiment", None)
    if experiment is not None:
        values = vars(args)
        given = {flag.param: values[flag.param]
                 for flag in EXPERIMENTS[experiment].flags
                 if values.get(flag.param) is not None}
        run = run_experiment(experiment, given, export_dir=export_dir)
        _emit(run.rendered, args.output)
        return _exit_for_checks([run])

    if command == "analyze":
        from .analyze import analyze_tree, iter_rules
        from .analyze.config import default_config
        if args.list_rules:
            lines = [f"{rule:<10s} {description}"
                     for rule, description in iter_rules().items()]
            _emit("\n".join(lines), args.output)
            return 0
        only = tuple(rule.strip()
                     for rule in (args.rules or "").split(",") if rule.strip())
        overrides = {"only_rules": only} if only else {}
        root = Path(args.root).resolve() if args.root else None
        report = analyze_tree(default_config(root, **overrides))
        _emit(report.render_json() if args.format == "json"
              else report.render(), args.output)
        return 0 if report.ok else 1

    if command == "serve":
        if getattr(args, "serve_command", None) != "status":
            parser.error("usage: repro serve status [--json]")
        status = _serve_status_demo(args.clients, args.tenants, args.calls,
                                    args.seed)
        if args.json:
            _emit(json.dumps(status, indent=2, sort_keys=True), args.output)
        else:
            _emit(_render_serve_status(status), args.output)
        return 0

    if command == "trace":
        trace_command = getattr(args, "trace_command", None)
        if trace_command not in ("run", "report", "export"):
            parser.error("usage: repro trace {run,report,export} [options]")
        from .telemetry.trace_export import (
            chrome_trace,
            critical_path_report,
            render_critical_path,
            validate_chrome_trace,
        )
        result = _run_traced(args)
        if trace_command == "run":
            _emit(_render_trace_stats(result), args.output)
            return 0
        if trace_command == "report":
            spec = result.spec
            title = (f"critical-path breakdown: "
                     f"{'via-service' if spec.via_service else 'direct'} "
                     f"{spec.arrival}, {spec.clients} clients x "
                     f"{spec.modules} modules")
            _emit(render_critical_path(critical_path_report(
                result.trace_spans), title=title), args.output)
            return 0
        payload = chrome_trace(result.trace_spans)
        error = validate_chrome_trace(payload)
        if error is not None:
            print(f"trace export error: {error}", file=sys.stderr)
            return 1
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=1)
        _emit(f"wrote {args.out} ({len(payload['traceEvents'])} events "
              f"from {len(result.trace_spans)} spans; load it at "
              f"https://ui.perfetto.dev)", args.output)
        return 0

    if command == "stats":
        paths = list(args.paths) or sorted(glob.glob("BENCH_*.json"))
        if args.live or not paths:
            _emit(_live_stats(args.clients, args.sample_calls, args.seed),
                  args.output)
            return 0
        _emit("\n\n".join(_render_bench_file(path) for path in paths),
              args.output)
        return 0

    if command == "bench":
        if args.bench_command != "diff":
            names = [spec.bench for spec in EXPERIMENTS.values() if spec.bench]
            parser.error("usage: repro bench {" + ",".join(names)
                         + ",diff} [options]")
        if args.update:
            try:
                staged = _update_baselines(args.baselines_dir)
            except (OSError, ValueError) as exc:
                print(f"bench diff --update error: {exc}", file=sys.stderr)
                return 2
            _emit("\n".join(f"regenerated and staged {path}"
                            for path, _ in staged), args.output)
            return _exit_for_checks([run for _, run in staged])
        if not args.old or not args.new:
            parser.error("bench diff needs OLD and NEW exports "
                         "(or --update)")
        try:
            diff = diff_files(args.old, args.new, rel_tol=args.rel_tol)
        except (BenchDiffError, OSError, json.JSONDecodeError) as exc:
            print(f"bench diff error: {exc}", file=sys.stderr)
            return 2
        _emit(diff.render(), args.output)
        return 0 if diff.ok else 1

    parser.error(f"unknown command {command!r}")
    return 2


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
