"""End-to-end benchmark of the SecModule simulator: host speed and virtual
fidelity over four workloads, with a traced per-layer breakdown.

Run from the root of a checkout (no install needed)::

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload ff-steady --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --trace 1 --out run.json
    python3 benchmarks/e2e/run.py --compare base1.json base2.json -- \\
        new1.json new2.json

Each workload runs in its own fresh, single-threaded process.  Every metric
is printed by name with its unit; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  The exit code is 1
when any correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: a workload process must finish well inside the 180 s a run may take
WORKER_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)")
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1, the seed "
                             "expected.json pins)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding timed reps until this many seconds "
                             "have passed; a benchmark runner passes "
                             "BENCHMARK.json's run_seconds (default 0: "
                             "exactly 10 reps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="also run each workload once with the layer "
                             "shims and report per-layer metrics")
    parser.add_argument("--out", help="write every result as JSON here")
    parser.add_argument("--trace-dir", default=str(ROOT / ".e2e_out"),
                        help="where traced runs write trace-<workload>.json")
    parser.add_argument("--compare", nargs="+", metavar="BASE.json",
                        help="compare --out files: BASE.json... -- NEW.json...")
    parser.add_argument("new", nargs="*", metavar="NEW.json",
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_worker(args: argparse.Namespace) -> int:
    """Inside a workload process: measure and print one JSON record."""
    import e2e_bench

    if args.traced:
        record = e2e_bench.measure_traced(args.worker, args.seed,
                                          Path(args.trace_dir))
    else:
        record = e2e_bench.measure_untraced(args.worker, args.seed,
                                            seconds=args.seconds)
    print(json.dumps(record))
    return 0


def spawn(args: argparse.Namespace, workload: str, *, traced: bool) -> dict:
    """Measure one workload in a fresh process and return its record."""
    command = [sys.executable, str(HERE / "run.py"), "--worker", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace-dir", args.trace_dir] + (["--traced"] if traced else [])
    # one thread per process: no BLAS pools behind numpy
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          cwd=str(ROOT), timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} process exited {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_benchmark(args: argparse.Namespace) -> int:
    import e2e_bench

    spec = e2e_bench.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(names)}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names

    problem = e2e_bench.check_virtual_groups()
    if problem is not None:
        # every virtual metric depends on the grouping: measure nothing
        print(f"error: {problem}", file=sys.stderr)
        return 1
    print("virtual groups cover every cost op: ok")
    fig8 = e2e_bench.check_fig8()
    print(f"fig8: rows {'equal' if fig8['equal'] else 'DIFFER FROM'} "
          f"benchmarks/baselines/BENCH_fig8.json; largest error vs the "
          f"paper {fig8['worst_error']:.2%} ({fig8['worst_row']}: "
          f"{fig8['worst_measured_us']:.2f} vs {fig8['worst_paper_us']:.2f} us)")

    results = []
    for workload in selected:
        untraced = spawn(args, workload, traced=False)
        traced = spawn(args, workload, traced=True) if args.trace else None
        result = e2e_bench.assemble(untraced, traced, spec)
        results.append(result)
        print(e2e_bench.render(result, spec), flush=True)

    line = e2e_bench.final_line(results, spec, traced=bool(args.trace),
                                gate_ok=fig8["equal"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "fig8": fig8,
                       "correct": line["correct"],
                       "workloads": {r["workload"]: r for r in results}},
                      stream, indent=1)
            stream.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.new and not args.compare:
        print(f"error: unexpected arguments {args.new}", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.worker:
        return run_worker(args)
    if args.compare:
        import e2e_bench

        if not args.new:
            print("error: --compare needs BASE.json... -- NEW.json...",
                  file=sys.stderr)
            return 2
        spec = e2e_bench.load_spec()
        print(e2e_bench.render_compare(
            e2e_bench.compare(args.compare, args.new, spec)))
        return 0
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
