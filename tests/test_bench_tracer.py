"""The benchmark tracer (``perfbench/tracing.py``) patches package
functions under the names their callers look them up by, and every
benchmark run resolves those names; each must still exist.  So must
every package name that a ``perfbench`` script imports or reads, and the
call shapes of ``perfbench/table_vs_reduced.py``, which no test runs."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bottleneck_lab import cli, solvers
from bottleneck_lab.annealing import log_grid, sweep
from bottleneck_lab.expfamily import ExpFamilyModel, exp_solve, exp_sweep
from bottleneck_lab.solvers import default_encoder, solve

from oracles import binary_overlap5

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
RULE_FIXTURE = ROOT / "problems" / "binary_overlap5.json"
CLASS_FIXTURE = ROOT / "problems" / "class_mixture8.json"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists():
    tracing = load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.PATCHES
               if attr not in vars(owner)]
    assert missing == []
    assert tracing.installed_wrappers() == []


def package_names(path: Path) -> list[str]:
    """The dotted ``bottleneck_lab`` names that the script ``path`` imports
    (``from bottleneck_lab.m import f``) or reads as an attribute chain of
    an imported package module (``m.f.g`` after ``from bottleneck_lab
    import m`` or ``import bottleneck_lab``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "bottleneck_lab"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.append(dotted)
                modules[alias.asname or alias.name] = dotted
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bottleneck_lab":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.append(".".join([modules[node.id], *chain]))
    return names


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain on the
    longest module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_every_benchmark_package_name_resolves():
    """A benchmark script that loses a package name fails only when it
    runs; every name the scripts import or read must resolve now."""
    read = {path.name: package_names(path)
            for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert "bottleneck_lab.solvers.default_encoder" in read[
        "table_vs_reduced.py"]
    assert "bottleneck_lab.annealing.TableBackend" in read["tracing.py"]
    missing = [(script, name) for script, names in read.items()
               for name in names if not resolves(name)]
    assert missing == []


def test_table_vs_reduced_call_shapes_run():
    """The exact ``solve`` and ``exp_solve`` calls of
    ``perfbench/table_vs_reduced.py``, keywords and all, on the demo
    problem and its model, for three steps."""
    table = binary_overlap5()
    model = ExpFamilyModel.from_conditional(table)
    encoder = default_encoder(model.n_x, 2)
    for run in (
            lambda: solve(table, 2.0, "dual", init_encoder=encoder,
                          tol=1e-300, max_iter=3, track_functional=False),
            lambda: exp_solve(model, 2.0, init_encoder=encoder,
                              tol=1e-300, max_iter=3,
                              track_functional=False)):
        state, report = run()
        assert report.n_iterations == 3
        assert np.isfinite(state.encoder).all()


@pytest.mark.parametrize("solver", ["ib", "dual", "reduced"])
def test_traced_sweeps_count_every_solve(solver):
    """The solve the tracer wraps is the one every sweep runs, so its
    iteration count is the trace's, for the table and reduced sweeps."""
    tracing = load_tracing()
    problem = binary_overlap5()
    betas = log_grid(2.0, 8.0, 6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if solver == "reduced":
            trace, _ = exp_sweep(ExpFamilyModel.from_conditional(problem),
                                 betas)
        else:
            trace, _ = sweep(problem, solver, betas)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert tracer.counts["annealing.grid_points"] == betas.size
    assert (tracer.counts["solvers.iterations"]
            == sum(trace.column("n_iterations")) > 0)


@pytest.mark.parametrize("framework", ["ib", "dual"])
def test_traced_dual_decoder_runs_once_per_iteration_and_state(framework,
                                                               monkeypatch):
    """Under the tracer, a dual sweep runs ``_decode`` once per iteration
    and once per derived state, and an ib sweep only once per derived
    state.  The decoder normalizes through ``probability.softmax``, so
    neither reaches ``solvers.logsumexp``, the name the tracer wraps, and
    ``solvers.logsumexp_calls`` reads 0."""
    counts = {"_decode": 0, "derive": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solvers, "_decode",
                        counted("_decode", solvers._decode))
    monkeypatch.setattr(solvers.TableBackend, "derive",
                        counted("derive", solvers.TableBackend.derive))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trace, _ = sweep(binary_overlap5(), framework, log_grid(2.0, 8.0, 6))
    finally:
        tracer.uninstall()
    assert tracer.totals()[2]["solvers.logsumexp"] == 0
    steps = sum(trace.column("n_iterations")) if framework == "dual" else 0
    assert counts["_decode"] == steps + counts["derive"]
    assert counts["derive"] > 0


@pytest.mark.parametrize("command, n_sweeps, bisects", [
    ("critical", 2, True),    # one sweep per framework, then bisection
    ("expfam", 1, False),     # the reduced sweep
])
def test_traced_cli_commands_count_their_work(command, n_sweeps, bisects,
                                              tmp_path):
    """Commands run through ``cli.main`` reach the sweep, solve,
    bisection and stability-matrix names the tracer wraps, so a traced
    benchmark run counts their grid points, iterations and matrix
    builds."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main([command, "--problem", str(RULE_FIXTURE),
                       "--beta-grid", "log:2:8:6",
                       "--output-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracing.installed_wrappers() == []
    assert tracer.counts["annealing.grid_points"] == n_sweeps * 6
    assert tracer.counts["solvers.iterations"] > 0
    assert (tracer.counts["stability.bisection_solves"] > 0) == bisects
    builds = tracing.layer_metrics(tracer, 0)["stability.matrix_builds"]
    assert (builds[0] > 0) == bisects


def test_traced_error_experiment_samples_once_per_chunk(tmp_path):
    """``error-exp`` draws and bins each chunk of trials in one
    ``prediction._empirical_counts`` call, the name the tracer spans as
    ``prediction.sampling``, so that span times the whole sampling kernel:
    3109 trials at a largest test size of 256 make four chunks of at most
    1024 trials, whatever the number of frameworks and betas."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["error-exp", "--classes", str(CLASS_FIXTURE),
                       "--framework", "both", "--trials", "3109",
                       "--n-values", "1", "4", "256",
                       "--output-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracing.installed_wrappers() == []
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["prediction.sampling_calls"] == (4, "count")
    assert metrics["prediction.sampling_s"][0] > 0.0
