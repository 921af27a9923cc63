"""End-to-end acceptance gate for the whole package.

Each numbered check below is one test that prints a single
``[criterion N] label: PASS/FAIL (details)`` line (visible with ``-s``,
or in the failure report otherwise) and then asserts.  Run the gate on
its own with::

    pytest tests/test_acceptance.py -v -s

The checks, with their run-time budgets on the reference machine:

1.  Benchmark reproduction (< 60 s): annealed 400-point sweeps of the
    five-input benchmark table over beta in [0.25, 64], both frameworks.
    (a) cluster count grows 1 -> 5; (b) the final ib decoder rows
    reproduce the table rows within 1e-3; (c) every dual transition sits
    strictly below its ib partner and the two sequences interleave.
2.  Distortion identities (< 5 s): 50 seeded random problems
    (n_x <= 8, n_y <= 4) solved from random initializations in both
    frameworks; the mean-cost identities hold within 1e-9.
3.  Eigenstructure (< 10 s): every alive cluster of every converged
    suite-2 state has a structural zero eigenvalue within 1e-8, matching
    input/label spectra within 1e-8, and (two-label dual states) the
    rank-factor closed forms within 1e-10.
4.  Transition cross-validation (< 60 s): each refined transition has
    residual <= 1e-6, an iteration-count spike >= 3x the sweep median at
    the nearest grid point, and different cluster counts 2% either side.
5.  Information plane (< 30 s): monotone information curves (1e-9),
    ib-curve secant concavity (1e-7), dual points on or below the ib
    polyline envelope (1e-9), gap minima aligned with dual transitions
    (one grid step), and a shrinking gap over the top beta decade.
6.  Reduced-solver equivalence (< 30 s): the sufficient-statistic solver
    matches the full-table dual solver within 1e-6 over a 50-point grid
    on the benchmark logistic model plus 20 seeded binary problems, and
    its closed-form information identities hold within 1e-8.
7.  Pairwise exponents (< 5 s): golden-section Chernoff information vs a
    999-point grid within 1e-6, tilted-point equidistance within 1e-5,
    and the symmetric two-point closed form within 1e-9.
8.  Prediction experiment (< 10 min): misclassification curves on the
    eight-class mixture (10 000 common-random-number trials per point):
    dual at or below ib in the beta-mean at every sample size within the
    binomial confidence overlap, coinciding curves at beta = 64, log-
    error linearity R^2 >= 0.9 on the top half of sample sizes, and the
    cluster-averaged exponent bound below the functional within 1e-9 at
    every converged dual state.
9.  Determinism: every CLI command re-run with an identical
    configuration and seed produces byte-identical output files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import entropy

from bottleneck_lab.annealing import log_grid, sweep
from bottleneck_lab.cli import main as cli_main
from bottleneck_lab.datasets import binary_overlap5, make_class_mixture
from bottleneck_lab.expfamily import (
    ExpFamilyModel,
    closed_information,
    exp_sweep,
)
from bottleneck_lab.prediction import (
    DEFAULT_BETAS,
    WARM_LADDER,
    ClassificationProblem,
    chernoff_information,
    mean_exponent_bound,
    run_prediction_experiment,
)
from bottleneck_lab.probability import kl_divergence, mutual_information
from bottleneck_lab.solvers import (
    dual_distortion_split,
    encoder_information,
    solve,
    state_observables,
)
from bottleneck_lab.stability import build_matrices, find_critical_points

from conftest import (direct_distortion, inverse_encoder, random_encoder,
                      random_problem)

GOLDEN_GRID = log_grid(0.25, 64.0, 400)
SWEEP_TOL = 1e-12
FRAMEWORKS = ("ib", "dual")
PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------

@dataclass
class GoldenSweep:
    """Both frameworks swept over the benchmark table on the shared grid."""

    problem: object
    traces: dict
    states: dict
    reports: dict
    sweep_seconds: float
    refine_seconds: float

    def column(self, framework: str, name: str) -> np.ndarray:
        return np.asarray(self.traces[framework].column(name))


@pytest.fixture(scope="module")
def golden() -> GoldenSweep:
    problem = binary_overlap5()
    t0 = perf_counter()
    pairs = {fw: sweep(problem, fw, GOLDEN_GRID, tol=SWEEP_TOL)
             for fw in FRAMEWORKS}
    sweep_seconds = perf_counter() - t0
    t0 = perf_counter()
    reports = {fw: find_critical_points(problem, pairs[fw], tol=SWEEP_TOL)
               for fw in FRAMEWORKS}
    refine_seconds = perf_counter() - t0
    return GoldenSweep(problem=problem,
                       traces={fw: pairs[fw][0] for fw in FRAMEWORKS},
                       states={fw: pairs[fw][1] for fw in FRAMEWORKS},
                       reports=reports, sweep_seconds=sweep_seconds,
                       refine_seconds=refine_seconds)


@dataclass
class IdentitySuite:
    """50 seeded random problems with converged states in both frameworks."""

    cases: list = field(default_factory=list)   # (problem, {fw: (state, rep)})
    solve_seconds: float = 0.0


@pytest.fixture(scope="module")
def identity_suite() -> IdentitySuite:
    rng = np.random.default_rng(20260814)
    suite = IdentitySuite()
    t0 = perf_counter()
    for _ in range(50):
        problem = random_problem(rng)
        beta = float(2.0 ** rng.uniform(-1.0, 5.0))
        init = random_encoder(rng, problem.p_x.size, problem.p_x.size)
        states = {}
        for fw in FRAMEWORKS:
            state, report = solve(problem, beta, fw, init_encoder=init,
                                  tol=1e-12, track_functional=False)
            states[fw] = (state, report)
        suite.cases.append((problem, states))
    suite.solve_seconds = perf_counter() - t0
    return suite


# ---------------------------------------------------------------------------
# criterion 1: benchmark reproduction
# ---------------------------------------------------------------------------

def test_criterion_1a_cluster_growth_on_benchmark_sweep(golden):
    details = []
    ok = golden.sweep_seconds < 60.0
    for fw in FRAMEWORKS:
        counts = golden.column(fw, "effective_clusters")
        fw_ok = (counts[0] == 1 and counts[-1] == 5
                 and bool(np.all(np.diff(counts) >= 0))
                 and set(counts.tolist()) == {1, 2, 3, 4, 5})
        ok = ok and fw_ok
        details.append(f"{fw} {counts[0]}->{counts[-1]}")
    _report("criterion 1a", ok,
            f"{', '.join(details)}, sweep {golden.sweep_seconds:.1f}s")


def test_criterion_1b_ib_decoder_rows_match_table(golden):
    state = golden.states["ib"][-1]
    decoder = state.decoder[state.alive()]
    rule = golden.problem.rule
    cost = np.max(np.abs(decoder[:, None, :] - rule[None, :, :]), axis=-1)
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    _report("criterion 1b", worst <= 1e-3,
            f"max matched row deviation {worst:.3e} vs 1e-3 at beta "
            f"{GOLDEN_GRID[-1]:g}")


def test_criterion_1c_dual_transitions_precede_ib(golden):
    ib = np.array([p.beta for p in golden.reports["ib"]])
    dual = np.array([p.beta for p in golden.reports["dual"]])
    ok = ib.size == dual.size and ib.size > 0
    if ok:
        below = dual < ib
        # interleaving: dual_1 < ib_1 < dual_2 < ib_2 < ...
        interleaved = bool(np.all(ib[:-1] < dual[1:]))
        ok = bool(np.all(below)) and interleaved
    _report("criterion 1c", ok,
            f"dual {np.round(dual, 6).tolist()} vs ib "
            f"{np.round(ib, 6).tolist()}")


# ---------------------------------------------------------------------------
# criterion 2: distortion identities on random converged states
# ---------------------------------------------------------------------------

def test_criterion_2_distortion_identities_on_random_states(identity_suite):
    t0 = perf_counter()
    worst_ib = worst_split = worst_logz = 0.0
    min_term_b = np.inf
    n_converged = 0
    for problem, states in identity_suite.cases:
        state, report = states["ib"]
        n_converged += report.converged
        i_y = state_observables(problem, state)[1]
        d_ib = direct_distortion(problem, state)
        worst_ib = max(worst_ib, abs(
            d_ib - (mutual_information(problem.joint) - i_y)))
        state, report = states["dual"]
        n_converged += report.converged
        d_dual = direct_distortion(problem, state)
        split = dual_distortion_split(problem, state)
        worst_split = max(worst_split, abs(
            d_dual - (split.label_info_shift + split.prediction_mismatch)))
        min_term_b = min(min_term_b, split.prediction_mismatch)
        worst_logz = max(worst_logz, abs(
            d_dual - (-float(state.marginal @ state.log_z))))
    elapsed = identity_suite.solve_seconds + perf_counter() - t0
    ok = (n_converged == 100 and worst_ib <= 1e-9 and worst_split <= 1e-9
          and min_term_b >= -1e-12 and worst_logz <= 1e-9
          and elapsed < 5.0)
    _report("criterion 2", ok,
            f"converged {n_converged}/100, ib identity {worst_ib:.1e}, "
            f"split {worst_split:.1e}, min mismatch {min_term_b:.1e}, "
            f"log-normalizer {worst_logz:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: per-cluster eigenstructure
# ---------------------------------------------------------------------------

def _spectra_gap(first: np.ndarray, second: np.ndarray) -> float:
    """Optimal-assignment distance between two eigenvalue multisets,
    zero-padded to a common size."""
    size = max(first.size, second.size)
    a = np.concatenate([first, np.zeros(size - first.size)])
    b = np.concatenate([second, np.zeros(size - second.size)])
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _binary_dual_closed_forms(problem, q):
    """Two-label rank-factor closed forms (see TestBinaryClosedForms)."""
    log_rule = problem.log_rule
    delta = log_rule[:, 1] - log_rule[:, 0]
    c = q @ log_rule
    dec = np.exp(c - c.max())
    dec /= dec.sum()
    d0, d1 = dec
    c_xx = d0 * d1 * np.outer(delta - q @ delta, q * delta)
    a0 = (log_rule[:, 0] - c[0]) * d0
    a1 = (log_rule[:, 1] - c[1]) * d1
    b0 = -d1 * delta * q
    b1 = d0 * delta * q
    c_yy = np.array([[b0 @ a0, b0 @ a1], [b1 @ a0, b1 @ a1]])
    return c_xx, c_yy


def test_criterion_3_stability_eigenstructure(identity_suite):
    t0 = perf_counter()
    worst_zero = worst_spectra = worst_closed = 0.0
    n_clusters = n_binary = 0
    for problem, states in identity_suite.cases:
        for fw in FRAMEWORKS:
            state, report = states[fw]
            if not report.converged:
                continue
            weights = inverse_encoder(state.encoder, problem.p_x)[1]
            for cluster in np.flatnonzero(state.alive()):
                mats = build_matrices(problem, fw, weights[cluster])
                eig_xx = np.linalg.eigvals(mats.c_xx)
                eig_yy = np.linalg.eigvals(mats.c_yy)
                worst_zero = max(worst_zero, mats.lambda_min,
                                 float(np.min(np.abs(eig_xx))))
                worst_spectra = max(worst_spectra,
                                    _spectra_gap(eig_xx, eig_yy))
                n_clusters += 1
                if fw == "dual" and problem.rule.shape[1] == 2:
                    n_binary += 1
                    c_xx, c_yy = _binary_dual_closed_forms(
                        problem, weights[cluster])
                    worst_closed = max(
                        worst_closed,
                        float(np.max(np.abs(mats.c_xx - c_xx))),
                        float(np.max(np.abs(mats.c_yy - c_yy))))
    elapsed = perf_counter() - t0
    ok = (n_clusters > 0 and n_binary > 0 and worst_zero <= 1e-8
          and worst_spectra <= 1e-8 and worst_closed <= 1e-10
          and elapsed < 10.0)
    _report("criterion 3", ok,
            f"{n_clusters} clusters ({n_binary} two-label), zero eig "
            f"{worst_zero:.1e}, spectra {worst_spectra:.1e}, closed forms "
            f"{worst_closed:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: transition cross-validation on the benchmark sweep
# ---------------------------------------------------------------------------

def test_criterion_4_critical_point_cross_validation(golden):
    t0 = perf_counter()
    ok = True
    details = []
    for fw in FRAMEWORKS:
        points = golden.reports[fw]
        iters = golden.column(fw, "n_iterations").astype(float)
        counts = golden.column(fw, "effective_clusters")
        median = float(np.median(iters))
        worst_residual = max(p.residual for p in points)
        min_spike = np.inf
        counts_ok = True
        for p in points:
            nearest = int(np.argmin(np.abs(GOLDEN_GRID - p.beta)))
            min_spike = min(min_spike, iters[nearest] / median)
            lo = int(np.searchsorted(GOLDEN_GRID, 0.98 * p.beta,
                                     side="right")) - 1
            hi = int(np.searchsorted(GOLDEN_GRID, 1.02 * p.beta,
                                     side="left"))
            counts_ok = counts_ok and counts[lo] != counts[hi]
        fw_ok = (len(points) == 4 and worst_residual <= 1e-6
                 and min_spike >= 3.0 and counts_ok)
        ok = ok and fw_ok
        details.append(f"{fw}: residual {worst_residual:.1e}, spike "
                       f"{min_spike:.0f}x, counts split {counts_ok}")
    elapsed = golden.refine_seconds + perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report("criterion 4", ok, f"{'; '.join(details)}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: information plane
# ---------------------------------------------------------------------------

def _deduped_curve(i_x: np.ndarray, i_y: np.ndarray,
                   floor: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Drop points that do not advance ``i_x`` by more than ``floor``
    over the last kept point, so secants have a well-defined run."""
    keep = [0]
    for i in range(1, i_x.size):
        if i_x[i] - i_x[keep[-1]] > floor:
            keep.append(i)
    return i_x[keep], i_y[keep]


def test_criterion_5a_information_curves_monotone(golden):
    worst = np.inf
    for fw in FRAMEWORKS:
        for name in ("i_x", "i_y"):
            worst = min(worst, float(np.min(np.diff(golden.column(fw,
                                                                  name)))))
    _report("criterion 5a", worst >= -1e-9,
            f"min curve increment {worst:.1e} vs -1e-9")


def test_criterion_5b_ib_curve_concavity(golden):
    xs, ys = _deduped_curve(golden.column("ib", "i_x"),
                            golden.column("ib", "i_y"))
    cross = ((ys[1:-1] - ys[:-2]) * (xs[2:] - xs[1:-1])
             - (ys[2:] - ys[1:-1]) * (xs[1:-1] - xs[:-2]))
    worst = float(cross.min())
    _report("criterion 5b", worst >= -1e-7,
            f"{xs.size} deduped points, min secant cross {worst:.2e} "
            f"vs -1e-7")


def test_criterion_5c_dual_points_below_ib_envelope(golden):
    xs, ys = _deduped_curve(golden.column("ib", "i_x"),
                            golden.column("ib", "i_y"))
    excess = golden.column("dual", "i_y") - np.interp(
        golden.column("dual", "i_x"), xs, ys)
    worst = float(excess.max())
    _report("criterion 5c", worst <= 1e-9,
            f"max height above ib envelope {worst:.2e} vs 1e-9")


def _label_gap(golden) -> np.ndarray:
    return np.abs(golden.column("ib", "i_y") - golden.column("dual", "i_y"))


def test_criterion_5d_gap_minima_align_with_dual_transitions(golden):
    gap = _label_gap(golden)
    minima = [i for i in range(1, gap.size - 1)
              if gap[i] < gap[i - 1] - 1e-9 and gap[i] < gap[i + 1] - 1e-9]
    transition_idx = [int(np.argmin(np.abs(GOLDEN_GRID - p.beta)))
                      for p in golden.reports["dual"]]
    steps = [min(abs(i - j) for j in transition_idx) for i in minima]
    ok = len(minima) > 0 and all(s <= 1 for s in steps)
    where = [f"beta {GOLDEN_GRID[i]:.2f}: {s} steps"
             for i, s in zip(minima, steps)]
    _report("criterion 5d", ok, "; ".join(where) or "no minima found")


def test_criterion_5e_gap_shrinks_over_top_decade(golden):
    gap = _label_gap(golden)[GOLDEN_GRID >= GOLDEN_GRID[-1] / 10.0]
    increases = np.diff(gap)
    worst = float(increases.max())
    n_bad = int(np.sum(increases > 1e-9))
    _report("criterion 5e", worst <= 1e-9,
            f"{n_bad}/{increases.size} increases over beta >= "
            f"{GOLDEN_GRID[-1] / 10.0:.1f}, max {worst:.2e} vs 1e-9")


# ---------------------------------------------------------------------------
# criterion 6: reduced-solver equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_reduced_solver_equivalence():
    t0 = perf_counter()
    grid = log_grid(0.25, 64.0, 50)
    problems = [binary_overlap5()]
    rng = np.random.default_rng(61)
    for _ in range(20):
        n_x = int(rng.integers(2, 7))
        problems.append(random_problem(rng, n_x=n_x, n_y=2))
    solve_gap = closed_gap = 0.0
    n_nonconverged = 0
    for problem in problems:
        model = ExpFamilyModel.from_conditional(problem)
        exp_trace, exp_states = exp_sweep(model, grid, tol=1e-9)
        dual_trace, _ = sweep(problem, "dual", grid, tol=1e-9)
        n_nonconverged += sum(not c for c in exp_trace.column("converged"))
        n_nonconverged += sum(not c for c in dual_trace.column("converged"))
        for name in ("i_x", "i_y"):
            solve_gap = max(solve_gap, float(np.max(np.abs(
                np.asarray(exp_trace.column(name))
                - np.asarray(dual_trace.column(name))))))
        for state in exp_states[::10]:
            closed = closed_information(model, state)
            i_x = encoder_information(model.p_x, state.encoder,
                                      state.marginal)
            decoder = state.decoder
            i_y = entropy(problem.p_y) - float(
                state.marginal @ np.array([entropy(row) for row in decoder]))
            mean_d = sum(
                model.p_x[x] * state.encoder[x, c]
                * kl_divergence(decoder[c], problem.rule[x])
                for x in range(model.n_x) for c in range(state.n_clusters)
                if state.encoder[x, c] > 0.0)
            closed_gap = max(closed_gap, abs(closed.i_x - i_x),
                             abs(closed.i_y - i_y),
                             abs(closed.mean_distortion - mean_d))
    elapsed = perf_counter() - t0
    ok = (n_nonconverged == 0 and solve_gap <= 1e-6 and closed_gap <= 1e-8
          and elapsed < 30.0)
    _report("criterion 6", ok,
            f"{len(problems)} models x {grid.size} betas, solver gap "
            f"{solve_gap:.1e} vs 1e-6, closed forms {closed_gap:.1e} vs "
            f"1e-8, non-converged {n_nonconverged}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: pairwise exponents
# ---------------------------------------------------------------------------

def test_criterion_7_chernoff_golden_section():
    t0 = perf_counter()
    rng = np.random.default_rng(7)
    lambdas = np.linspace(0.0, 1.0, 999)
    worst_grid = worst_equi = worst_sym = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = 0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n
        q = 0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n
        exponent, lam = chernoff_information(p, q)
        logs = np.array([float(np.log(np.sum(p ** l * q ** (1.0 - l))))
                         for l in lambdas])
        worst_grid = max(worst_grid, abs(exponent - float(-logs.min())))
        tilt = p ** lam * q ** (1.0 - lam)
        tilt /= tilt.sum()
        worst_equi = max(worst_equi, abs(kl_divergence(tilt, p)
                                         - kl_divergence(tilt, q)))
        a = float(rng.uniform(0.02, 0.48))
        pair = np.array([a, 1.0 - a])
        e_sym, _ = chernoff_information(pair, pair[::-1])
        worst_sym = max(worst_sym,
                        abs(e_sym + np.log(2.0 * np.sqrt(a * (1.0 - a)))))
    elapsed = perf_counter() - t0
    ok = (worst_grid <= 1e-6 and worst_equi <= 1e-5 and worst_sym <= 1e-9
          and elapsed < 5.0)
    _report("criterion 7", ok,
            f"100 pairs, grid gap {worst_grid:.1e} vs 1e-6, equidistance "
            f"{worst_equi:.1e} vs 1e-5, symmetric {worst_sym:.1e} vs 1e-9, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: prediction-error experiment
# ---------------------------------------------------------------------------

def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(x, y, 1)
    residuals = y - np.polyval(coeffs, x)
    return 1.0 - float(np.sum(residuals ** 2)
                       / np.sum((y - y.mean()) ** 2))


def test_criterion_8_prediction_error_experiment():
    t0 = perf_counter()
    problem = ClassificationProblem(make_class_mixture())
    curves = {fw: run_prediction_experiment(problem, fw, trials=10_000,
                                            seed=11) for fw in FRAMEWORKS}
    p_err = {fw: np.array([c.p_err for c in curves[fw]])
             for fw in FRAMEWORKS}
    ci = {fw: np.array([c.ci_halfwidth for c in curves[fw]])
          for fw in FRAMEWORKS}
    n_betas = p_err["ib"].shape[0]
    mean = {fw: p_err[fw].mean(axis=0) for fw in FRAMEWORKS}
    mean_ci = {fw: np.sqrt(np.sum(ci[fw] ** 2, axis=0)) / n_betas
               for fw in FRAMEWORKS}
    combined = np.sqrt(mean_ci["ib"] ** 2 + mean_ci["dual"] ** 2)
    ordering_margin = float(np.min(mean["ib"] + combined - mean["dual"]))

    top_beta_gap = np.abs(p_err["ib"][-1] - p_err["dual"][-1])
    top_beta_slack = float(np.min(ci["ib"][-1] + ci["dual"][-1]
                                  - top_beta_gap))

    n_values = np.asarray(curves["ib"][-1].n_values, dtype=float)
    top = slice(n_values.size // 2, None)
    r2 = {fw: _r_squared(n_values[top], np.log(p_err[fw][-1][top]))
          for fw in FRAMEWORKS}

    joint = problem.joint()
    betas = np.union1d(WARM_LADDER, DEFAULT_BETAS)
    trace, states = sweep(joint, "dual", betas)
    worst_bound_gap = -np.inf
    n_bounded = 0
    for record, state in zip(trace.records, states):
        if not record.converged or record.beta < 1.0:
            continue
        bound = mean_exponent_bound(state, joint)
        worst_bound_gap = max(worst_bound_gap,
                              bound - state_observables(joint, state)[3])
        n_bounded += 1
    elapsed = perf_counter() - t0
    ok = (ordering_margin >= 0.0 and top_beta_slack >= 0.0
          and min(r2.values()) >= 0.9 and worst_bound_gap <= 1e-9
          and n_bounded > 0 and elapsed < 600.0)
    _report("criterion 8", ok,
            f"ordering margin {ordering_margin:.4f}, top-beta overlap "
            f"slack {top_beta_slack:.4f}, R^2 ib {r2['ib']:.3f} / dual "
            f"{r2['dual']:.3f} vs 0.9, bound gap {worst_bound_gap:.1e} vs "
            f"1e-9 over {n_bounded} states, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_9_cli_reruns_byte_identical(tmp_path):
    table = str(PROBLEMS_DIR / "binary_overlap5.json")
    classes = str(PROBLEMS_DIR / "class_mixture8.json")
    scenarios = [
        ("solve", ["solve", "--problem", table, "--framework", "both",
                   "--beta", "2.0", "--seed", "3"]),
        ("sweep", ["sweep", "--problem", table, "--framework", "both",
                   "--beta-grid", "log:2:5:6"]),
        ("critical", ["critical", "--problem", table, "--framework", "ib",
                      "--beta-grid", "log:3:6:6"]),
        ("expfam", ["expfam", "--problem", table,
                    "--beta-grid", "log:1:16:6"]),
        ("error-exp", ["error-exp", "--classes", classes,
                       "--framework", "both", "--betas", "4", "16",
                       "--n-values", "1", "4", "16", "64",
                       "--trials", "400", "--seed", "5"]),
    ]
    details = []
    ok = True
    for name, argv in scenarios:
        out_dir = tmp_path / name
        argv = argv + ["--output-dir", str(out_dir)]
        if cli_main(list(argv)) != 0:
            ok = False
            details.append(f"{name}: first run failed")
            continue
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        if cli_main(list(argv)) != 0:
            ok = False
            details.append(f"{name}: second run failed")
            continue
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        changed = (sorted(first) != sorted(second)
                   or any(first[f] != second[f] for f in first))
        ok = ok and not changed
        details.append(f"{name}: {'changed' if changed else 'identical'} "
                       f"({len(first)} files)")
    _report("criterion 9", ok, ", ".join(details))
