"""Stability matrices and critical-point detection.

The constructions are checked three independent ways:

* structural identities of the matrix formulas (row-stochasticity of the
  raw forms, exact left null vectors, factor-rank facts);
* closed forms for two-label problems, derived by hand from the factor
  definitions (rank-one ``c_xx``, scalar ``c_yy`` entries, lambda2 equal
  to a weighted variance of the log-likelihood ratio);
* a finite-difference Jacobian of the full alternating update around a
  duplicated fixed point, whose exchange-mode eigenvalue must equal
  ``beta * lambda2``.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from bottleneck_lab import solvers
from bottleneck_lab.annealing import log_grid, sweep
from bottleneck_lab.datasets import binary_overlap5
from bottleneck_lab.probability import JointDistribution
from bottleneck_lab.solvers import (
    TableBackend,
    encoder_update,
    solve,
)
from bottleneck_lab.stability import (
    ComplexEigenvalueWarning,
    StabilityMatrices,
    build_matrices,
    cluster_factors,
    find_critical_points,
    stability_gaps,
)

from conftest import (PROPERTY_SETTINGS, distortion_matrix, inverse_encoder,
                      random_encoder, random_problem)

# First transition of the demo problem per framework, refined to
# |beta * lambda2 - 1| <= 1e-9 on a 400-point sweep; pinned here as
# regression values for the coarse-grid refinement below.
FIRST_CRITICAL = {"ib": 4.443238126, "dual": 3.336990631}


def converged_state(problem, framework, beta, k, seed):
    state, report = solve(problem, beta, framework,
                          init_encoder=random_encoder(
                              np.random.default_rng(seed), problem.n_x, k),
                          tol=1e-13)
    assert report.converged
    return state


def weights_of(problem, state):
    """The ``(k, n_x)`` rows ``p(x|xhat)`` of a state, by the oracle."""
    return inverse_encoder(state.encoder, problem.p_x)[1]


def assert_spectra_match(first, second, atol):
    """Multisets of eigenvalues agree after padding with zeros."""
    size = max(first.size, second.size)
    a = np.concatenate([first, np.zeros(size - first.size)])
    b = np.concatenate([second, np.zeros(size - second.size)])
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < atol


def second_eigenvalue(matrix):
    """lambda2 of ``matrix``, as the ``c_yy`` of the factors (I, matrix)."""
    matrix = np.asarray(matrix, dtype=float)
    return StabilityMatrices(np.eye(len(matrix)), matrix).second_eigenvalue()


class TestSecondEigenvalue:
    def test_drops_smallest_magnitude(self):
        assert second_eigenvalue(np.diag([0.9, 0.5, 0.0])) == pytest.approx(0.9)
        # the structural zero is removed even when other eigenvalues are
        # negative with larger magnitude
        assert second_eigenvalue(np.diag([0.9, -1.5, 1e-14])) == pytest.approx(0.9)

    def test_single_eigenvalue_matrix(self):
        with pytest.warns(UserWarning, match="structural zero"):
            assert second_eigenvalue(np.array([[0.3]])) == 0.0

    def test_complex_pair_warns(self):
        rotation = np.array([[0.0, 0.0, 0.0],
                             [0.0, 0.0, -1.0],
                             [0.0, 1.0, 0.0]])  # eigenvalues {0, +i, -i}
        with pytest.warns(ComplexEigenvalueWarning):
            lam = second_eigenvalue(rotation)
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_real_case_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second_eigenvalue(np.diag([0.4, 0.1, 0.0]))


class TestIbMatrices:
    def test_raw_forms_are_row_stochastic(self, rng):
        """Adding back the deflation term must give row-stochastic
        matrices with left eigenvectors q and dec — for any normalized
        weights row, converged or not."""
        problem = random_problem(rng)
        q = rng.dirichlet(np.ones(problem.n_x))
        mats = build_matrices(problem, "ib", q)
        dec = q @ problem.rule
        raw_xx = mats.c_xx + q[None, :]
        raw_yy = mats.c_yy + dec[None, :]
        np.testing.assert_allclose(raw_xx.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(raw_yy.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(q @ raw_xx, q, atol=1e-12)
        np.testing.assert_allclose(dec @ raw_yy, dec, atol=1e-12)

    def test_explicit_elementwise_assembly(self, rng):
        problem = random_problem(rng)
        state = converged_state(problem, "ib", 3.0, 2, seed=11)
        for c in np.flatnonzero(state.alive()):
            q = weights_of(problem, state)[c]
            rule = problem.rule
            dec = q @ rule
            c_xx = np.array([[
                sum(rule[x, y] * rule[xp, y] / dec[y]
                    for y in range(problem.n_y)) * q[xp] - q[xp]
                for xp in range(problem.n_x)] for x in range(problem.n_x)])
            c_yy = np.array([[
                sum(rule[x, y] * q[x] * rule[x, yp]
                    for x in range(problem.n_x)) / dec[y] - dec[yp]
                for yp in range(problem.n_y)] for y in range(problem.n_y)])
            mats = build_matrices(problem, "ib", q)
            np.testing.assert_allclose(mats.c_xx, c_xx, atol=1e-13)
            np.testing.assert_allclose(mats.c_yy, c_yy, atol=1e-13)

    def test_deflated_left_null_vectors(self, rng):
        problem = random_problem(rng)
        state = converged_state(problem, "ib", 2.5, 2, seed=4)
        for c in np.flatnonzero(state.alive()):
            q = weights_of(problem, state)[c]
            mats = build_matrices(problem, "ib", q)
            dec = q @ problem.rule
            np.testing.assert_allclose(q @ mats.c_xx, 0.0, atol=1e-12)
            np.testing.assert_allclose(dec @ mats.c_yy, 0.0, atol=1e-12)
            assert mats.lambda_min <= 1e-8

    def test_unnormalized_weights_warn(self, rng):
        # n_x > n_y so the raw label matrix is full rank: the only zero
        # eigenvalue is the one produced by a correctly scaled deflation
        problem = random_problem(rng, n_x=5, n_y=3)
        state = converged_state(problem, "ib", 2.5, 1, seed=2)
        bad = weights_of(problem, state)[0] * 1.31
        with pytest.warns(UserWarning, match="structural zero"):
            build_matrices(problem, "ib", bad)


class TestDualMatrices:
    def test_explicit_elementwise_factors(self, rng):
        problem = random_problem(rng)
        state = converged_state(problem, "dual", 3.0, 2, seed=7)
        log_rule = problem.log_rule
        for ci in np.flatnonzero(state.alive()):
            q = weights_of(problem, state)[ci]
            c = np.array([np.dot(q, log_rule[:, y])
                          for y in range(problem.n_y)])
            dec = np.exp(c - c.max())
            dec /= dec.sum()
            r = np.array([np.dot(dec, log_rule[x])
                          for x in range(problem.n_x)])
            a_loops = np.array([[(log_rule[x, y] - c[y]) * dec[y]
                                 for y in range(problem.n_y)]
                                for x in range(problem.n_x)])
            b_loops = np.array([[(log_rule[x, y] - r[x]) * q[x]
                                 for x in range(problem.n_x)]
                                for y in range(problem.n_y)])
            a, b = cluster_factors(problem, "dual", q)
            np.testing.assert_allclose(a, a_loops, atol=1e-13)
            np.testing.assert_allclose(b, b_loops, atol=1e-13)
            mats = build_matrices(problem, "dual", q)
            np.testing.assert_allclose(mats.c_xx, a @ b, atol=1e-14)
            np.testing.assert_allclose(mats.c_yy, b @ a, atol=1e-14)

    def test_decoder_is_exact_left_null_vector(self, rng):
        """dec @ B = 0 by centering, for any weights row — hence
        lambda1 = 0 for every label arity."""
        for trial in range(5):
            problem = random_problem(rng)
            q = rng.dirichlet(np.ones(problem.n_x))
            mats = build_matrices(problem, "dual", q)
            a, b = cluster_factors(problem, "dual", q)
            log_unnorm = q @ problem.log_rule
            dec = np.exp(log_unnorm - log_unnorm.max())
            dec /= dec.sum()
            np.testing.assert_allclose(dec @ b, 0.0, atol=1e-13)
            np.testing.assert_allclose(dec @ mats.c_yy, 0.0, atol=1e-13)
            assert mats.lambda_min <= 1e-8
            assert abs(np.linalg.det(mats.c_yy)) < 1e-8

    def test_c_xx_rank_bounded_by_n_y(self, rng):
        problem = random_problem(rng, n_x=6, n_y=2)
        state = converged_state(problem, "dual", 2.0, 1, seed=9)
        mats = build_matrices(problem, "dual", weights_of(problem, state)[0])
        eigs = np.sort(np.abs(np.linalg.eigvals(mats.c_xx)))
        assert (eigs[:-2] < 1e-12).all()  # at most n_y nonzero eigenvalues


class TestSpectraAgree:
    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_nonzero_spectra_of_cxx_and_cyy_match(self, framework, rng):
        for seed in range(4):
            problem = random_problem(rng)
            state = converged_state(problem, framework, 2.8, 2, seed=seed)
            for c in np.flatnonzero(state.alive()):
                mats = build_matrices(problem, framework,
                                      weights_of(problem, state)[c])
                assert_spectra_match(np.linalg.eigvals(mats.c_xx),
                                     np.linalg.eigvals(mats.c_yy),
                                     atol=1e-9)


class TestFactorForm:
    @pytest.mark.parametrize("framework", ["ib", "dual"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_factors_give_the_elementwise_matrices(self, framework, seed):
        """On any weights row, converged or not, the factor products are
        the elementwise matrices and carry their structural zeros; the ib
        ``c_yy`` has the spectrum of the row-stochastic matrix with its
        eigenvalue 1 replaced by 0."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng)
        n_x, n_y = problem.n_x, problem.n_y
        q = rng.dirichlet(np.ones(n_x))
        mats = build_matrices(problem, framework, q)
        xs, ys = range(n_x), range(n_y)
        if framework == "ib":
            rule = problem.rule
            dec = q @ rule
            raw_yy = np.array([[
                sum(rule[x, y] * q[x] * rule[x, yp] for x in xs) / dec[y]
                for yp in ys] for y in ys])
            c_yy = raw_yy - dec[None, :]
            c_xx = np.array([[
                sum(rule[x, y] * rule[xp, y] / dec[y] for y in ys) * q[xp]
                - q[xp] for xp in xs] for x in xs])
            np.testing.assert_allclose(mats.c_yy @ np.ones(n_y), 0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(q @ mats.c_xx, 0.0, atol=1e-12)
            raw_eigs = np.linalg.eigvals(raw_yy)
            raw_eigs[np.argmin(np.abs(raw_eigs - 1.0))] = 0.0
            assert_spectra_match(mats.eigenvalues, raw_eigs, atol=1e-12)
        else:
            log_rule = problem.log_rule
            c = q @ log_rule
            dec = np.exp(c - c.max())
            dec /= dec.sum()
            r = log_rule @ dec
            c_yy = np.array([[
                sum((log_rule[x, y] - r[x]) * q[x] * (log_rule[x, yp] - c[yp])
                    for x in xs) * dec[yp] for yp in ys] for y in ys])
            c_xx = np.array([[
                sum((log_rule[x, y] - c[y]) * dec[y]
                    * (log_rule[xp, y] - r[xp]) for y in ys) * q[xp]
                for xp in xs] for x in xs])
            np.testing.assert_allclose(dec @ mats.c_yy, 0.0, atol=1e-12)
        np.testing.assert_allclose(mats.c_yy, c_yy, atol=1e-12)
        np.testing.assert_allclose(mats.c_xx, c_xx, atol=1e-12)


class TestBinaryClosedForms:
    """Two-label closed forms derived by hand from the factor definitions.

    With delta(x) = log rule[x,1] - log rule[x,0], mean_delta = q . delta,
    and d0, d1 the geometric decoder entries:

        c_xx = d0 d1 * outer(delta - mean_delta, q * delta)   (rank one)
        B rows:  -d1 * delta * q   and   d0 * delta * q
        A cols:  (log rule[:,0] - c0) * d0  and  (log rule[:,1] - c1) * d1
        lambda2 = trace(c_yy) = d0 d1 Var_q(delta)
    """

    def binary_state(self, rng, seed):
        problem = random_problem(rng, n_y=2)
        state = converged_state(problem, "dual", 3.0, 2, seed=seed)
        return problem, state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dual_matrices_match_closed_forms(self, seed, rng):
        problem, state = self.binary_state(rng, seed)
        log_rule = problem.log_rule
        for ci in np.flatnonzero(state.alive()):
            q = weights_of(problem, state)[ci]
            delta = log_rule[:, 1] - log_rule[:, 0]
            c = q @ log_rule
            mean_delta = q @ delta
            dec = np.exp(c - c.max())
            dec /= dec.sum()
            d0, d1 = dec
            c_xx_closed = d0 * d1 * np.outer(delta - mean_delta, q * delta)
            a0 = (log_rule[:, 0] - c[0]) * d0
            a1 = (log_rule[:, 1] - c[1]) * d1
            b0 = -d1 * delta * q
            b1 = d0 * delta * q
            c_yy_closed = np.array([[b0 @ a0, b0 @ a1],
                                    [b1 @ a0, b1 @ a1]])
            mats = build_matrices(problem, "dual", q)
            np.testing.assert_allclose(mats.c_xx, c_xx_closed, atol=1e-12)
            np.testing.assert_allclose(mats.c_yy, c_yy_closed, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dual_lambda2_is_variance_of_log_ratio(self, seed, rng):
        problem, state = self.binary_state(rng, seed)
        log_rule = problem.log_rule
        for ci in np.flatnonzero(state.alive()):
            q = weights_of(problem, state)[ci]
            delta = log_rule[:, 1] - log_rule[:, 0]
            c = q @ log_rule
            dec = np.exp(c - c.max())
            dec /= dec.sum()
            var = q @ delta**2 - (q @ delta) ** 2
            mats = build_matrices(problem, "dual", q)
            lam = mats.second_eigenvalue()
            assert lam == pytest.approx(dec[0] * dec[1] * var, abs=1e-12)
            assert lam == pytest.approx(np.trace(mats.c_yy), abs=1e-12)

    def test_ib_lambda2_is_trace_for_two_labels(self, rng):
        # deflated 2x2 with one zero eigenvalue: the other equals the trace
        problem = random_problem(rng, n_y=2)
        state = converged_state(problem, "ib", 3.0, 2, seed=5)
        for ci in np.flatnonzero(state.alive()):
            mats = build_matrices(problem, "ib",
                                  weights_of(problem, state)[ci])
            lam = mats.second_eigenvalue()
            assert lam == pytest.approx(np.trace(mats.c_yy), abs=1e-10)


def alternating_update(problem, framework, beta, encoder):
    """One full update cycle of the solver as a pure map on encoders."""
    state = TableBackend(problem, framework).derive(encoder, beta)
    return encoder_update(state.marginal,
                          distortion_matrix(problem, state), beta)


def update_jacobian(problem, framework, beta, encoder, h=1e-7):
    """Central-difference Jacobian of the update map, with each probe
    renormalized so perturbations stay on the simplex."""
    n_x, k = encoder.shape
    jac = np.zeros((n_x * k, n_x * k))
    for j in range(n_x * k):
        x, c = divmod(j, k)
        plus = encoder.copy()
        plus[x, c] += h
        plus[x] /= plus[x].sum()
        minus = encoder.copy()
        minus[x, c] -= h
        minus[x] /= minus[x].sum()
        fp = alternating_update(problem, framework, beta, plus).ravel()
        fm = alternating_update(problem, framework, beta, minus).ravel()
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


class TestAgainstUpdateJacobian:
    """Independent check of lambda2: duplicate a converged cluster into two
    exact halves — still a fixed point — and differentiate the update map
    numerically.  The mode that exchanges mass between the copies has
    eigenvalue beta * lambda2, so it is the second-largest Jacobian
    eigenvalue below the transition (the largest, 1, is the copies'
    shared normalization freedom)."""

    @pytest.mark.parametrize("framework,beta", [("ib", 4.0), ("dual", 3.0)])
    def test_exchange_mode_eigenvalue(self, framework, beta):
        problem = binary_overlap5()
        state, report = solve(problem, beta, framework, n_clusters=1,
                              tol=1e-14)
        assert report.converged
        doubled = np.repeat(state.encoder, 2, axis=1) / 2.0
        np.testing.assert_allclose(
            alternating_update(problem, framework, beta, doubled), doubled,
            atol=5e-12)
        q = weights_of(problem, state)[0]
        lam2 = build_matrices(problem, framework, q).second_eigenvalue()
        eigs = np.linalg.eigvals(update_jacobian(problem, framework, beta,
                                                 doubled))
        assert np.abs(eigs.imag).max() < 1e-6
        top_two = np.sort(eigs.real)[-2:]
        assert top_two[1] == pytest.approx(1.0, abs=1e-6)
        assert top_two[0] == pytest.approx(beta * lam2, abs=1e-6)


class TestClusterEigenvalues:
    def test_dead_cluster_gives_nan(self):
        problem = binary_overlap5()
        # a zero encoder column stays frozen at zero mass through the solve
        init = np.zeros((problem.n_x, 3))
        init[:, :2] = 0.5
        state, _ = solve(problem, 8.0, "ib", init_encoder=init)
        alive = state.alive()
        np.testing.assert_array_equal(alive, [True, True, False])
        gaps = stability_gaps(problem, state)
        assert np.isnan(gaps[2])
        assert np.isfinite(gaps[:2]).all()


class TestMatrixWork:
    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_one_eigensolve_and_lazy_c_xx(self, framework, rng,
                                          monkeypatch):
        """Building the matrices eigensolves ``c_yy`` once, and that
        spectrum serves ``second_eigenvalue``; ``c_xx`` is formed only
        when read, with the value of the explicit formula."""
        problem = random_problem(rng)
        state = converged_state(problem, framework, 3.0, 2, seed=5)
        q = weights_of(problem, state)[0]
        lam = build_matrices(problem, framework, q).second_eigenvalue()
        calls = []
        eigvals = np.linalg.eigvals

        def counting(matrix):
            calls.append(matrix.shape)
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        mats = build_matrices(problem, framework, q)
        assert mats.second_eigenvalue() == lam
        assert calls == [(problem.n_y, problem.n_y)]
        assert "c_xx" not in vars(mats)
        a, b = cluster_factors(problem, framework, q)
        np.testing.assert_array_equal(mats.c_xx, a @ b)


class TestObservableWork:
    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_once_per_grid_point_and_never_in_bisection(self, framework,
                                                        monkeypatch):
        """A sweep computes the observables of each grid point once, for
        its record, and bisection solves compute none."""
        calls = []
        original = solvers.state_observables

        def counting(*args):
            calls.append(args[1].beta)
            return original(*args)

        monkeypatch.setattr(solvers, "state_observables", counting)
        problem = binary_overlap5()
        betas = log_grid(3.0, 6.0, 8)
        result = sweep(problem, framework, betas)
        assert calls == betas.tolist()
        calls.clear()
        assert find_critical_points(problem, result)
        assert calls == []


class TestCriticalPoints:
    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_first_transition_of_demo_problem(self, framework):
        problem = binary_overlap5()
        result = sweep(problem, framework, log_grid(2.0, 6.0, 25), tol=1e-12)
        points = find_critical_points(problem, result, tol=1e-12)
        assert len(points) == 1
        point = points[0]
        assert point.framework == framework
        assert point.cluster_index == 0
        assert point.residual <= 1e-8
        assert point.bracket[0] < point.beta < point.bracket[1]
        assert point.beta == pytest.approx(FIRST_CRITICAL[framework],
                                           abs=1e-6)
        assert point.beta * point.lambda2 == pytest.approx(1.0, abs=1e-8)

    def test_refines_in_the_sweep_framework(self):
        """A dual sweep refines as dual: the framework is the sweep's own,
        so no caller can refine it as another one."""
        problem = binary_overlap5()
        result = sweep(problem, "dual", log_grid(2.0, 8.0, 12))
        points = find_critical_points(problem, result)
        assert [point.framework for point in points] == ["dual"]
        assert points[0].beta == pytest.approx(
            FIRST_CRITICAL["dual"], abs=1e-6)

    def test_uninformative_labels_never_split(self):
        rule = np.tile([0.3, 0.7], (4, 1))
        problem = JointDistribution.from_conditional(rule,
                                                     smoothing_epsilon=0.0)
        for framework in ("ib", "dual"):
            result = sweep(problem, framework, log_grid(0.5, 8.0, 10))
            assert find_critical_points(problem, result) == []
