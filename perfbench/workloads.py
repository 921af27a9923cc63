"""The four benchmark workloads: their inputs, one round of their
operations, and the checks applied to what each operation wrote.

A round runs the ``bottleneck-lab`` commands in-process through
``cli.main`` (plus, for ``error-exp``, ``prediction.chernoff_information``
on every class pair).  An operation is one command or one Chernoff pair;
it fails when it exits non-zero, raises, or its output fails a check.

Inputs come from the seed and nothing else:

* ``golden-*`` and ``error-exp`` relabel the fixed problem tables under
  ``problems/``: the seed permutes the input symbols (and, for
  ``error-exp``, the classes).
* ``reduced-large`` relabels the inputs and labels of one exponential-family
  model whose features and params were drawn from N(0, 1).

Every check is invariant under the relabelling, while the solvers'
floating-point path (and so their iteration counts) is not.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from bottleneck_lab import cli, prediction

GOLDEN_GRID = "log:0.25:64:400"
GOLDEN_TOL = "1e-12"
REDUCED_GRID = "log:0.25:2:8"
REDUCED_TOL = "1e-9"
REDUCED_SHAPE = (2000, 200, 3)      # n_x, n_y, d
#: One fixed N(0, 1) draw; the seed relabels its inputs and labels.  Fresh
#: draws per seed are not steady: some put a grid point next to a
#: transition, where critical slowing down multiplies the sweep's
#: iterations several times over.
REDUCED_MODEL_SEED = 1
ERROR_TRIALS = 10_000
ERROR_TOP_BETA = 64.0

#: Small sizes for ``--smoke``: same commands and checks, a few seconds each.
SMOKE = {
    "golden_grid": "log:0.25:64:60",
    "reduced_grid": "log:0.25:2:4",
    "reduced_shape": (200, 20, 3),
    "error_trials": 2000,
}


@dataclass
class Operation:
    name: str
    exit_code: int = 0
    error: str = ""                      # exception text, if it raised
    problems: list[str] = field(default_factory=list)  # failed checks

    @property
    def failed(self) -> bool:
        return bool(self.exit_code or self.error or self.problems)


@dataclass
class Round:
    wall_s: float
    #: Peak resident memory of the process when the round's operations
    #: end, before its checks run (the checks' arrays are not the program's).
    peak_rss_mib: float
    operations: list[Operation]
    artifact_bytes: int


def _run_cli(argv: list[str], out_dir: Path) -> Operation:
    """One command through ``cli.main``.  Its console output stays off the
    benchmark's stdout; the last line becomes the error of a failed run."""
    op = Operation(name=argv[0])
    console = io.StringIO()
    try:
        with contextlib.redirect_stdout(console), \
                contextlib.redirect_stderr(console):
            op.exit_code = cli.main(argv + ["--output-dir", str(out_dir)])
    except Exception as exc:  # an operation that raises is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
    if op.exit_code:
        op.error = (console.getvalue().strip().splitlines() or [""])[-1]
    return op


def _permutation(seed: int, n: int, stream: int) -> np.ndarray:
    return np.random.default_rng([seed, stream]).permutation(n)


def _dump(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload) + "\n")


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class Workload:
    """Base: ``write_inputs`` once, then any number of ``run_round``."""

    def __init__(self, root: Path, smoke: bool):
        self.root = root
        self.smoke = smoke

    def write_inputs(self, seed: int, in_dir: Path) -> None:
        raise NotImplementedError

    def commands(self, in_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def extra_operations(self, in_dir: Path, out_dir: Path) -> list[Operation]:
        """Operations beyond the commands, timed with them (none here)."""
        return []

    def check(self, op: Operation, in_dir: Path, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def run_round(self, in_dir: Path, out_dir: Path) -> Round:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        start = perf_counter()
        ops = [_run_cli(argv, out_dir) for argv in self.commands(in_dir)]
        ops += self.extra_operations(in_dir, out_dir)
        wall = perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:
            if not op.failed:
                try:
                    op.problems = self.check(op, in_dir, out_dir)
                except Exception as exc:  # unreadable artifact
                    op.problems = [f"check raised {type(exc).__name__}: "
                                   f"{exc}"]
        return Round(wall_s=wall, peak_rss_mib=peak, operations=ops,
                     artifact_bytes=_tree_bytes(out_dir))


class Golden(Workload):
    """``sweep`` over the 400-point golden grid on the five-input table."""

    def __init__(self, root: Path, smoke: bool, framework: str):
        super().__init__(root, smoke)
        self.framework = framework

    def write_inputs(self, seed: int, in_dir: Path) -> None:
        raw = json.loads((self.root / "problems"
                          / "binary_overlap5.json").read_text())
        rows = np.asarray(raw["p_y_given_x"])
        order = _permutation(seed, rows.shape[0], 0)
        _dump({"p_y_given_x": rows[order].tolist(),
               "smoothing_epsilon": raw.get("smoothing_epsilon", 0.0)},
              in_dir / "golden.json")

    def commands(self, in_dir: Path) -> list[list[str]]:
        grid = SMOKE["golden_grid"] if self.smoke else GOLDEN_GRID
        return [["sweep", "--problem", str(in_dir / "golden.json"),
                 "--framework", self.framework, "--beta-grid", grid,
                 "--tol", GOLDEN_TOL]]

    def check(self, op, in_dir, out_dir):
        raw = json.loads((in_dir / "golden.json").read_text())
        rule = np.asarray(raw["p_y_given_x"], dtype=float)
        rule /= rule.sum(axis=1, keepdims=True)
        p_x = np.full(rule.shape[0], 1.0 / rule.shape[0])
        return checks.check_golden(
            out_dir / f"golden_{self.framework}_trace.csv",
            out_dir / "golden_critical_points.json", rule, p_x,
            self.framework)


class ReducedLarge(Workload):
    """``expfam`` sweep of a large seeded log-linear model."""

    def write_inputs(self, seed: int, in_dir: Path) -> None:
        n_x, n_y, d = SMOKE["reduced_shape"] if self.smoke else REDUCED_SHAPE
        rng = np.random.default_rng(REDUCED_MODEL_SEED)
        features = rng.standard_normal((n_x, d))
        params = rng.standard_normal((n_y, d))
        features = features[_permutation(seed, n_x, 1)]
        params = params[_permutation(seed, n_y, 4)]
        _dump({"exp_family": {"features": features.tolist(),
                              "params": params.tolist()}},
              in_dir / "reduced.json")

    def commands(self, in_dir: Path) -> list[list[str]]:
        grid = SMOKE["reduced_grid"] if self.smoke else REDUCED_GRID
        return [["expfam", "--problem", str(in_dir / "reduced.json"),
                 "--beta-grid", grid, "--tol", REDUCED_TOL]]

    def check(self, op, in_dir, out_dir):
        model = json.loads((in_dir / "reduced.json").read_text())["exp_family"]
        features = np.asarray(model["features"])
        params = np.asarray(model["params"])
        p_x = np.full(features.shape[0], 1.0 / features.shape[0])
        return checks.check_reduced(out_dir / "reduced_expfam_trace.csv",
                                    features, params, p_x)


class ErrorExp(Workload):
    """``error-exp`` in both frameworks plus Chernoff information of every
    class pair."""

    def write_inputs(self, seed: int, in_dir: Path) -> None:
        raw = json.loads((self.root / "problems"
                          / "class_mixture8.json").read_text())
        cond = np.asarray(raw["class_conditionals"])
        classes = _permutation(seed, cond.shape[0], 2)
        symbols = _permutation(seed, cond.shape[1], 3)
        _dump({"class_conditionals": cond[classes][:, symbols].tolist()},
              in_dir / "classes.json")

    def _trials(self) -> int:
        return SMOKE["error_trials"] if self.smoke else ERROR_TRIALS

    def _conditionals(self, in_dir: Path) -> np.ndarray:
        raw = json.loads((in_dir / "classes.json").read_text())
        cond = np.asarray(raw["class_conditionals"], dtype=float)
        return cond / cond.sum(axis=1, keepdims=True)

    def commands(self, in_dir: Path) -> list[list[str]]:
        return [["error-exp", "--classes", str(in_dir / "classes.json"),
                 "--framework", "both", "--trials", str(self._trials())]]

    def extra_operations(self, in_dir, out_dir):
        cond = self._conditionals(in_dir)
        ops, results = [], []
        for i, j in itertools.combinations(range(cond.shape[0]), 2):
            op = Operation(name=f"chernoff-{i}-{j}")
            try:
                exponent, lam = prediction.chernoff_information(cond[i],
                                                                cond[j])
                results.append({"pair": [i, j], "exponent": exponent,
                                "lambda": lam})
            except Exception as exc:  # counted as a failed operation
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        _dump({"pairs": results}, out_dir / "chernoff.json")
        return ops

    def check(self, op, in_dir, out_dir):
        if op.name == "error-exp":
            return checks.check_error_curves(
                out_dir / "classes_error_curves.csv", self._trials(),
                ERROR_TOP_BETA)
        i, j = (int(k) for k in op.name.split("-")[1:])
        pairs = json.loads((out_dir / "chernoff.json").read_text())["pairs"]
        exponent = next(p["exponent"] for p in pairs if p["pair"] == [i, j])
        cond = self._conditionals(in_dir)
        return checks.check_chernoff(cond[i], cond[j], exponent)


def make(name: str, root: Path, smoke: bool) -> Workload:
    if name in ("golden-ib", "golden-dual"):
        return Golden(root, smoke, name.split("-")[1])
    if name == "reduced-large":
        return ReducedLarge(root, smoke)
    if name == "error-exp":
        return ErrorExp(root, smoke)
    raise ValueError(f"unknown workload {name!r}")

