"""bottleneck-lab benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload golden-dual --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --smoke

Run from any directory of a source checkout; the package is imported from
``src/`` of that checkout (never from an installed copy) with the BLAS
pool pinned to one thread through ``BOTTLENECK_LAB_THREADS``.  A run
repeats whole rounds of its workload until ``--seconds`` have passed (at
least one round) and prints, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``setup_s`` (median of fresh-process set-ups), ``wall_s``
  (median round) and ``peak_rss_mib`` of the process at the end of its
  first round, before any output check has run;
* ``--trace 1``: untraced rounds first, then traced rounds; the per-layer
  metrics (median over traced rounds) and ``trace.overhead_s``.

Artifacts, span files and results go under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("golden-ib", "golden-dual", "reduced-large", "error-exp")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900
THREAD_VARS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for checking the benchmark itself")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for needed in (ROOT / "src" / "bottleneck_lab" / "__init__.py",
                   ROOT / "problems" / "binary_overlap5.json",
                   ROOT / "problems" / "class_mixture8.json"):
        if not needed.is_file():
            return f"{needed.relative_to(ROOT)} is missing from {ROOT}"
    return None


def pin_threads() -> None:
    """One BLAS thread, set through the package's own variable; pool
    variables inherited from the caller would take precedence, so drop
    them first.  Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    os.environ["BOTTLENECK_LAB_THREADS"] = "1"


def import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import bottleneck_lab
    package = Path(bottleneck_lab.__file__).resolve().parent
    if package != ROOT / "src" / "bottleneck_lab":
        raise RuntimeError(f"imported bottleneck_lab from {package}, not "
                           "from this checkout")
    import workloads
    return workloads


def setup_probe(args) -> float:
    """Import the package and write the workload's inputs, timed, in this
    (fresh) process."""
    start = perf_counter()
    workloads = import_workloads()
    probe_dir = OUT / args.workload / "probe"
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe_dir.mkdir(parents=True)
    workloads.make(args.workload, ROOT, args.smoke).write_inputs(args.seed,
                                                                 probe_dir)
    return perf_counter() - start


def _child_argv(args, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]
    return argv + (["--smoke"] if args.smoke else [])


def measure_setup(args) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(_child_argv(args, args.workload,
                                          "--setup-probe"),
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    shutil.rmtree(OUT / args.workload / "probe", ignore_errors=True)
    return statistics.median(samples)


def run_rounds(workload, in_dir: Path, out_dir: Path, seconds: float,
               tracer=None, tracing=None):
    """Whole rounds until ``seconds`` have passed; with a tracer, also the
    per-layer metrics of each round."""
    rounds, layers = [], []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        result = workload.run_round(in_dir, out_dir)
        rounds.append(result)
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer, result.artifact_bytes))
        if perf_counter() - start >= seconds:
            return rounds, layers


def run_workload(args) -> dict:
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = measure_setup(args) if not args.trace else None

    workloads = import_workloads()
    import tracing
    workload = workloads.make(args.workload, ROOT, args.smoke)
    in_dir = work / "inputs"
    in_dir.mkdir()
    workload.write_inputs(args.seed, in_dir)
    rounds, _ = run_rounds(workload, in_dir, work / "round", args.seconds)
    wall_s = statistics.median(r.wall_s for r in rounds)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, layers = run_rounds(workload, in_dir, work / "round",
                                        args.seconds, tracer, tracing)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.jsonl")
        rounds += traced
        metrics = {name: {"value": statistics.median(m[name][0]
                                                     for m in layers),
                          "unit": unit}
                   for name, (_, unit) in layers[0].items()}
        overhead = statistics.median(r.wall_s for r in traced) - wall_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # Later rounds' figures include the high-water mark of the checks.
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mib": {"value": rounds[0].peak_rss_mib,
                                    "unit": "MiB"}}

    leftover = tracing.installed_wrappers()
    ops = [op for r in rounds for op in r.operations]
    for op in ops:
        if op.failed:
            print(f"{args.workload}: {op.name} failed: "
                  f"{op.error or '; '.join(op.problems)}", file=sys.stderr)
    for name in leftover:
        print(f"{args.workload}: wrapper left installed on {name}",
              file=sys.stderr)
    # An output that was never written is not a correct one: a command that
    # raised or exited non-zero makes the run incorrect, as a rejected
    # output does.
    return {"correct": not leftover and not any(op.failed for op in ops),
            "attempted": len(ops),
            "failed": sum(op.failed for op in ops),
            "metrics": metrics}


def print_result(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own process; a table, then all results."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(_child_argv(args, workload),
                              capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exited {done.returncode} without a result")
            results[workload] = None
            continue
        results[workload] = json.loads(lines[-1])
        print_result(workload, results[workload])
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results))
    ok = all(r is not None and r["correct"] and r["failed"] == 0
             for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"error: {problem}; run the benchmark from a source checkout "
              "of bottleneck-lab", file=sys.stderr)
        return 2
    pin_threads()
    if args.setup_probe:
        print(repr(setup_probe(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
