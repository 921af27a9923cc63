"""Spans and counters around the public functions of each package layer.

The traced run patches each function under the name its caller looks it up
by (``annealing.solve`` is the ``solve`` that the sweep backend calls,
``stability.solve`` the one bisection calls, and so on), records a span
(name, start, end, parent) per call in memory, and restores every original
on ``uninstall``.  Nothing in the package is edited; untraced runs never
call ``install``.

Span names are ``<layer>.<what>``; a layer's self time is the time its
spans cover minus the time covered by their child spans.
"""
from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import numpy as np

from bottleneck_lab import (
    annealing,
    cli,
    expfamily,
    prediction,
    solvers,
    stability,
)

LAYERS = ("probability", "solvers", "annealing", "stability", "expfamily",
          "prediction", "cli")


# ---------------------------------------------------------------------------
# counters read off arguments and results
# ---------------------------------------------------------------------------

def _count_solve(counts, args, kwargs, result, prefix="solvers"):
    report = result[1]
    counts[f"{prefix}.iterations"] += report.n_iterations
    counts[f"{prefix}.max_point_iterations"] = max(
        counts[f"{prefix}.max_point_iterations"], report.n_iterations)
    counts["solvers.nonconverged"] += not report.converged


def _count_bisection_solve(counts, args, kwargs, result):
    _count_solve(counts, args, kwargs, result)
    counts["stability.bisection_solves"] += 1
    counts["stability.bisection_iterations"] += result[1].n_iterations


def _count_exp_solve(counts, args, kwargs, result):
    _count_solve(counts, args, kwargs, result, prefix="expfamily")


def _count_sweep(counts, args, kwargs, result):
    trace = result[0]
    counts["annealing.grid_points"] += len(trace.records)
    counts["annealing.peak_clusters"] = max(
        counts["annealing.peak_clusters"],
        max(r.effective_clusters for r in trace.records))


def _count_merge(counts, args, kwargs, result):
    counts["annealing.merged_clusters"] += args[0].shape[1] - result.shape[1]


#: (owner, attribute, span name, counter hook or None)
PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "load_problem", "cli.load_problem", None),
    (cli, "trace_to_csv", "cli.write", None),
    (cli, "error_curves_to_csv", "cli.write", None),
    (cli, "_dump_json", "cli.write", None),
    (cli, "find_critical_points", "stability.find_critical_points", None),
    (cli, "run_prediction_experiment", "prediction.run_prediction_experiment",
     None),
    (annealing, "run_sweep", "annealing.run_sweep", _count_sweep),
    (expfamily, "run_sweep", "annealing.run_sweep", _count_sweep),
    (annealing, "split_and_perturb", "annealing.split_merge", None),
    (annealing, "merge_close_clusters", "annealing.split_merge", _count_merge),
    (annealing.TableBackend, "observables", "annealing.observables", None),
    (expfamily.ExpBackend, "observables", "annealing.observables", None),
    (annealing, "solve", "solvers.solve", _count_solve),
    (stability, "solve", "solvers.solve", _count_bisection_solve),
    (solvers, "logsumexp", "solvers.logsumexp", None),
    (stability, "build_matrices", "stability.build_matrices", None),
    (stability.StabilityMatrices, "second_eigenvalue",
     "stability.second_eigenvalue", None),
    (expfamily, "exp_solve", "expfamily.exp_solve", _count_exp_solve),
    (expfamily, "logsumexp", "expfamily.logsumexp", None),
    (expfamily.ExpFamilyModel, "reconstruct", "expfamily.table_rebuild",
     None),
    (expfamily.ExpFamilyModel, "log_normalizers", "expfamily.table_rebuild",
     None),
    (solvers, "mutual_information", "probability.mutual_information", None),
    (annealing, "mutual_information", "probability.mutual_information", None),
    (expfamily, "mutual_information", "probability.mutual_information", None),
    (prediction, "_empirical_counts", "prediction.sampling", None),
    (prediction, "rel_entr", "prediction.divergence", None),
    (prediction, "chernoff_information", "prediction.chernoff_information",
     None),
    (prediction, "logsumexp", "prediction.logsumexp", None),
)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.traced_span = name
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path) -> None:
        """Spans as JSON lines ``[name, start, end, parent]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- aggregation --------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive and self seconds per span name, plus calls per name."""
        spans = self.spans
        child_time = np.zeros(len(spans))
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            inclusive[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        return inclusive, own, calls


def installed_wrappers() -> list[str]:
    """Patched names still in place (empty when nothing is installed)."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in PATCHES
            if hasattr(vars(owner)[attr], "traced_span")]


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """The per-layer metrics of one traced round: ``name -> (value, unit)``."""
    inc, own, calls = tracer.totals()
    c = tracer.counts

    def per_iteration(span, iterations):
        return 1e6 * inc[span] / iterations if iterations else 0.0

    metrics = {
        "solvers.iterations": (c["solvers.iterations"], "count"),
        "solvers.max_point_iterations": (c["solvers.max_point_iterations"],
                                         "count"),
        "solvers.us_per_iteration": (
            per_iteration("solvers.solve", c["solvers.iterations"]), "us"),
        "solvers.solve_s": (inc["solvers.solve"], "s"),
        "solvers.logsumexp_calls": (calls["solvers.logsumexp"], "count"),
        "solvers.logsumexp_s": (inc["solvers.logsumexp"], "s"),
        "solvers.nonconverged": (c["solvers.nonconverged"], "count"),
        "annealing.sweep_s": (inc["annealing.run_sweep"], "s"),
        "annealing.grid_points": (c["annealing.grid_points"], "count"),
        "annealing.split_merge_s": (inc["annealing.split_merge"], "s"),
        "annealing.observables_s": (inc["annealing.observables"], "s"),
        "annealing.merged_clusters": (c["annealing.merged_clusters"],
                                      "count"),
        "annealing.peak_clusters": (c["annealing.peak_clusters"], "count"),
        "stability.refine_s": (inc["stability.find_critical_points"], "s"),
        "stability.bisection_solves": (c["stability.bisection_solves"],
                                       "count"),
        "stability.bisection_iterations": (
            c["stability.bisection_iterations"], "count"),
        "stability.matrix_builds": (calls["stability.build_matrices"],
                                    "count"),
        "stability.matrix_s": (inc["stability.build_matrices"]
                               + inc["stability.second_eigenvalue"], "s"),
        "expfamily.iterations": (c["expfamily.iterations"], "count"),
        "expfamily.us_per_iteration": (
            per_iteration("expfamily.exp_solve", c["expfamily.iterations"]),
            "us"),
        "expfamily.logsumexp_calls": (calls["expfamily.logsumexp"], "count"),
        "expfamily.logsumexp_s": (inc["expfamily.logsumexp"], "s"),
        "expfamily.table_rebuilds": (calls["expfamily.table_rebuild"],
                                     "count"),
        "expfamily.table_rebuild_s": (inc["expfamily.table_rebuild"], "s"),
        "probability.mutual_information_calls": (
            calls["probability.mutual_information"], "count"),
        "probability.mutual_information_s": (
            inc["probability.mutual_information"], "s"),
        "prediction.experiment_s": (
            inc["prediction.run_prediction_experiment"], "s"),
        "prediction.sampling_calls": (calls["prediction.sampling"], "count"),
        "prediction.sampling_s": (inc["prediction.sampling"], "s"),
        "prediction.divergence_s": (inc["prediction.divergence"], "s"),
        "prediction.chernoff_s": (inc["prediction.chernoff_information"],
                                  "s"),
        "prediction.logsumexp_calls": (calls["prediction.logsumexp"],
                                       "count"),
        "cli.load_s": (inc["cli.load_problem"], "s"),
        "cli.write_s": (inc["cli.write"], "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(t for name, t in own.items() if name.startswith(layer + ".")),
            "s")
    return metrics
