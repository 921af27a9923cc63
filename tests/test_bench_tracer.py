"""The benchmark tracer (``perfbench/tracing.py``) patches package
functions under the names their callers look them up by, and every
benchmark run resolves those names; each must still exist."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from bottleneck_lab import cli, solvers
from bottleneck_lab.annealing import log_grid, sweep
from bottleneck_lab.expfamily import ExpFamilyModel, exp_sweep

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
def test_traced_dual_decoder_calls_the_one_logsumexp(framework,
                                                      monkeypatch):
    """Each dual ``_decode``, one per iteration and one per derived state,
    normalizes its rows through ``solvers.logsumexp``, the name the tracer
    wraps, so ``solvers.logsumexp_calls`` counts them; an ib sweep never
    calls it."""
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
    calls = tracer.totals()[2]["solvers.logsumexp"]
    if framework == "ib":   # an ib step reads log(stats), not _decode
        assert calls == 0
        assert counts["_decode"] == counts["derive"] > 0
    else:
        iterations = sum(trace.column("n_iterations"))
        assert calls == counts["_decode"] == iterations + counts["derive"]
        assert calls > 0


@pytest.mark.parametrize("command, n_sweeps, bisects", [
    ("critical", 2, True),    # one sweep per framework, then bisection
    ("expfam", 1, False),     # the reduced sweep
])
def test_traced_cli_commands_count_their_work(command, n_sweeps, bisects,
                                              tmp_path):
    """Commands run through ``cli.main`` reach the sweep, solve and
    bisection names the tracer wraps, so a traced benchmark run counts
    their grid points and iterations."""
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
