"""One-off reference: microseconds per iteration of the full-table dual
solver and of the reduced solver on the reduced-large model.

    python3 perfbench/table_vs_reduced.py [--seed 1]

Both solvers start from the same 8-cluster encoder at beta = 2 (the top of
the reduced-large grid) and run ITERATIONS iterations with the stopping
rule disabled; each figure is the median of REPEATS timings.  This is not
a workload; its figures are quoted in perfbench/README.md to show where
the reduced solver pays off.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

import run  # pins threads and imports the package from this checkout

ITERATIONS = 200
REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problem = run.checkout_problem()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    run.pin_threads()
    workloads = run.import_workloads()
    from bottleneck_lab.cli import load_problem
    from bottleneck_lab.expfamily import exp_solve
    from bottleneck_lab.solvers import default_encoder, solve

    in_dir = run.OUT / "table_vs_reduced"
    in_dir.mkdir(parents=True, exist_ok=True)
    workloads.make("reduced-large", run.ROOT, False).write_inputs(args.seed,
                                                                  in_dir)
    model = load_problem(Path(in_dir) / "reduced.json")
    table = model.reconstruct()
    encoder = default_encoder(model.n_x, 8)
    solvers = {
        "table dual": lambda: solve(table, 2.0, "dual", init_encoder=encoder,
                                    tol=1e-300, max_iter=ITERATIONS,
                                    track_functional=False),
        "reduced": lambda: exp_solve(model, 2.0, init_encoder=encoder,
                                     tol=1e-300, max_iter=ITERATIONS,
                                     track_functional=False),
    }
    print(f"n_x={model.n_x} n_y={model.n_y} d={model.d} k=8 beta=2, "
          f"{ITERATIONS} iterations, median of {REPEATS}")
    for name, call in solvers.items():
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            call()
            times.append(perf_counter() - start)
        per_iteration = 1e6 * statistics.median(times) / ITERATIONS
        print(f"  {name}: {per_iteration:.0f} us per iteration")
    return 0


if __name__ == "__main__":
    sys.exit(main())
