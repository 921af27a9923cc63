"""Chernoff exponents, the cluster-averaged exponent bound, and the
sample-complexity experiment.

Oracles: a dense-grid minimizer for the Chernoff search, hand closed
forms for swap-symmetric pairs and point-mass clusters, and an exact
algebraic decomposition of the exponent bound that holds at any
encoder-consistent dual state.
"""
from __future__ import annotations

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from bottleneck_lab import prediction
from bottleneck_lab.datasets import binary_overlap5, make_class_mixture
from bottleneck_lab.prediction import (
    DEFAULT_BETAS,
    DEFAULT_N_VALUES,
    WARM_LADDER,
    ClassificationProblem,
    ErrorCurve,
    _empirical_counts,
    _min_divergence_decisions,
    chernoff_information,
    error_curves_to_csv,
    mean_exponent_bound,
    run_prediction_experiment,
    tilted_mixture,
)
from bottleneck_lab.probability import (
    DistributionError,
    JointDistribution,
    entropy,
    kl_divergence,
    rel_entr,
)
from bottleneck_lab.solvers import (
    TableBackend,
    encoder_information,
    solve,
    state_observables,
)
from conftest import PROPERTY_SETTINGS, random_encoder, random_problem

CHUNK = prediction._SAMPLE_CHUNK


def smoothed_pair(rng, n=6):
    """Two strictly positive vectors with bounded log-likelihood ratios."""
    p0 = 0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n
    p1 = 0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n
    return p0 / p0.sum(), p1 / p1.sum()


class TestChernoffInformation:
    def test_identical_inputs(self):
        p = np.array([0.2, 0.3, 0.5])
        assert chernoff_information(p, p) == (0.0, 0.5)

    def test_symmetric_binary_closed_form(self):
        # For the swapped pair (a, 1-a) vs (1-a, a) the log-partition is
        # symmetric about lam = 1/2, where it equals log(2 sqrt(a(1-a))).
        a = 0.1
        p0 = np.array([a, 1.0 - a])
        p1 = np.array([1.0 - a, a])
        exponent, lam = chernoff_information(p0, p1)
        assert_allclose(exponent, -np.log(2.0 * np.sqrt(a * (1.0 - a))),
                        atol=1e-12)
        assert_allclose(lam, 0.5, atol=1e-8)

    def test_against_dense_grid(self):
        # Oracle: brute-force maximum of -log sum p0^lam p1^(1-lam) over a
        # 999-point grid.  The search can only improve on the grid value,
        # and the grid is fine enough to pin it to 1e-6.
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 999)
        for _ in range(5):
            p0, p1 = smoothed_pair(rng)
            mixes = (grid[:, None] * np.log(p0)
                     + (1.0 - grid)[:, None] * np.log(p1))
            grid_best = float(np.max(-logsumexp(mixes, axis=1)))
            exponent, lam = chernoff_information(p0, p1)
            assert exponent >= grid_best - 1e-12
            assert exponent - grid_best <= 1e-6
            assert 0.0 < lam < 1.0

    def test_tilted_point_is_equidistant(self):
        # At the minimizer the tilted mixture is equidistant from both
        # inputs and the common divergence equals the exponent itself.
        rng = np.random.default_rng(6)
        for _ in range(5):
            p0, p1 = smoothed_pair(rng)
            exponent, lam = chernoff_information(p0, p1)
            mix = tilted_mixture(p0, p1, lam)
            d0 = kl_divergence(mix, p0)
            d1 = kl_divergence(mix, p1)
            assert abs(d0 - d1) <= 1e-7
            assert_allclose(d0, exponent, atol=1e-7)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        p0, p1 = smoothed_pair(rng)
        e01, lam01 = chernoff_information(p0, p1)
        e10, lam10 = chernoff_information(p1, p0)
        assert_allclose(e01, e10, atol=1e-10)
        assert_allclose(lam01 + lam10, 1.0, atol=1e-6)

    def test_tilted_mixture_endpoints(self):
        rng = np.random.default_rng(8)
        p0, p1 = smoothed_pair(rng)
        assert_allclose(tilted_mixture(p0, p1, 1.0), p0, atol=1e-15)
        assert_allclose(tilted_mixture(p0, p1, 0.0), p1, atol=1e-15)
        assert_allclose(tilted_mixture(p0, p1, 0.3).sum(), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="matching"):
            chernoff_information(p, np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError, match="1-D"):
            chernoff_information(np.eye(2), np.eye(2))
        with pytest.raises(DistributionError, match="smooth first"):
            chernoff_information(np.array([1.0, 0.0]), p)


class TestMeanExponentBound:
    def test_independent_labels_give_zero(self):
        # When X and Y are independent every p(x|y) equals p(x), which is
        # also the single cluster's inverse-encoder row.
        rule = np.tile([0.35, 0.65], (4, 1))
        p_x = np.array([0.1, 0.2, 0.3, 0.4])
        joint = JointDistribution.from_conditional(rule, p_x,
                                                   smoothing_epsilon=0.0)
        for framework in ("ib", "dual"):
            state = TableBackend(joint, framework).derive(np.ones((4, 1)), 2.0)
            assert abs(mean_exponent_bound(state, joint)) < 1e-15

    def test_identity_encoder_reduces_to_conditional_entropy(self, rng):
        # With the identity encoder every inverse-encoder row is a point
        # mass and the decoder is the rule row, so the double average
        # collapses to -E[log p(x|y)] = H(X|Y).
        problem = random_problem(rng)
        state = TableBackend(problem, "ib").derive(np.eye(problem.n_x), 3.0)
        h_x_given_y = entropy(problem.p_x) - problem.mutual_information
        assert_allclose(mean_exponent_bound(state, problem), h_x_given_y,
                        atol=1e-12)

    def test_matches_functional_decomposition(self, rng):
        # Exact identity at any encoder-consistent dual state:
        # bound = I_x + E[d] - E_{p(xhat)}[KL(decoder row || p_y)].
        for _ in range(5):
            problem = random_problem(rng)
            enc = random_encoder(rng, problem.n_x, 3)
            state = TableBackend(problem, "dual").derive(enc, 2.0)
            i_x = encoder_information(problem.p_x, state.encoder,
                                      state.marginal)
            mean_d = state_observables(problem, state)[2]
            dec_gap = float(state.marginal @ [
                kl_divergence(row, problem.p_y) for row in state.decoder])
            assert_allclose(mean_exponent_bound(state, problem),
                            i_x + mean_d - dec_gap, atol=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 8.0])
    def test_dominated_by_dual_functional(self, beta):
        problem = binary_overlap5()
        state, report = solve(problem, beta, "dual", n_clusters=5)
        assert report.converged
        assert (mean_exponent_bound(state, problem)
                <= state_observables(problem, state)[3] + 1e-9)

    def test_small_beta_violation_warns(self):
        # A single-cluster state at beta < 1: the bound keeps the full
        # E[d] while the functional only carries beta E[d], so domination
        # genuinely fails there and must warn rather than raise.
        problem = binary_overlap5()
        state = TableBackend(problem, "dual").derive(np.ones((5, 1)), 0.5)
        with pytest.warns(UserWarning, match="beta >= 1"):
            bound = mean_exponent_bound(state, problem)
        assert bound > state_observables(problem, state)[3]


class TestClassificationProblem:
    def test_defaults_and_joint(self):
        cond = np.array([[0.7, 0.2, 0.1],
                         [0.1, 0.3, 0.6]])
        problem = ClassificationProblem(cond)
        assert problem.n_classes == 2
        assert problem.n_x == 3
        assert_allclose(problem.prior, [0.5, 0.5])
        joint = problem.joint()
        p_x = cond.T @ problem.prior
        posterior = (problem.prior[None, :] * cond.T) / p_x[:, None]
        assert_allclose(joint.p_y, problem.prior, atol=1e-8)
        assert_allclose(joint.p_x, p_x, atol=1e-8)
        assert_allclose(joint.rule, posterior, atol=1e-8)

    def test_custom_prior(self):
        cond = np.array([[0.7, 0.3], [0.4, 0.6]])
        prior = np.array([0.25, 0.75])
        problem = ClassificationProblem(cond, prior)
        assert_allclose(problem.joint().p_y, prior, atol=1e-8)

    def test_rejects_bad_inputs(self):
        good = np.array([[0.7, 0.3], [0.4, 0.6]])
        with pytest.raises(ValueError, match="2-D"):
            ClassificationProblem(np.array([0.5, 0.5]))
        with pytest.raises(DistributionError, match="smooth first"):
            ClassificationProblem(np.array([[1.0, 0.0], [0.4, 0.6]]))
        with pytest.raises(DistributionError, match="sum to 1"):
            ClassificationProblem(np.array([[0.7, 0.4], [0.4, 0.6]]))
        with pytest.raises(ValueError, match="length"):
            ClassificationProblem(good, prior=np.array([1.0]))
        with pytest.raises(DistributionError):
            ClassificationProblem(good, prior=np.array([1.2, -0.2]))

    @pytest.mark.parametrize("cond, prior, field", [
        ([[0.7, np.nan], [0.4, 0.6]], None, "class_conditionals"),
        ([[0.7, 0.3], [0.4, 0.6]], [0.5, np.nan], "prior"),
        ([[0.5, 0.5]], None, "class_conditionals"),
        ([[1.0], [1.0]], None, "class_conditionals"),
    ], ids=["nan-conditionals", "nan-prior", "one-class", "one-input"])
    def test_rejects_non_finite_and_degenerate_inputs(self, cond, prior,
                                                      field):
        """NaN slips past the sign and sum checks, and one class or one
        input leaves no joint to build; both are rejected up front."""
        with pytest.raises(DistributionError, match=field):
            ClassificationProblem(np.array(cond), prior)


class TestEmpiricalCounts:
    COND = np.array([[0.6, 0.3, 0.1],
                     [0.1, 0.2, 0.7]])

    def test_streams_are_reused(self):
        problem = ClassificationProblem(self.COND)
        ys_a, phats_a = _empirical_counts(problem, (1, 2, 8), 300, 4)
        ys_b, phats_b = _empirical_counts(problem, (1, 2, 8), 300, 4)
        assert_array_equal(ys_a, ys_b)
        for n in (1, 2, 8):
            assert_array_equal(phats_a[n], phats_b[n])

    def test_counts_are_prefix_consistent(self):
        # phats[n] must be the empirical law of the FIRST n samples, so
        # scaled counts are integers that only grow as n does.
        problem = ClassificationProblem(self.COND)
        ys, phats = _empirical_counts(problem, (1, 2, 8), 300, 4)
        assert ys.shape == (300,)
        assert set(np.unique(ys)) <= {0, 1}
        prev = np.zeros((300, 3))
        for n in (1, 2, 8):
            counts = phats[n] * n
            assert_allclose(phats[n].sum(axis=1), 1.0, atol=1e-12)
            assert_allclose(counts, np.round(counts), atol=1e-9)
            assert np.all(counts >= prev - 1e-9)
            prev = counts

    def test_frequencies_match_conditionals(self):
        trials = 4000
        problem = ClassificationProblem(self.COND)
        ys, phats = _empirical_counts(problem, (64,), trials, 9)
        for c in range(2):
            rows = phats[64][ys == c]
            assert rows.shape[0] > trials / 3
            assert_allclose(rows.mean(axis=0), self.COND[c], atol=0.02)

    @pytest.mark.parametrize("n_values", [(1, 2, 8), (3, 5, 100)])
    @pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, 3 * CHUNK + 37])
    def test_chunks_equal_one_block(self, n_values, trials):
        """Drawing and binning the uniform block in row chunks gives the
        labels and every empirical law of one single block, bit for bit,
        whether the trials fall below, on or past a chunk boundary."""
        problem = ClassificationProblem(make_class_mixture(3, 5, seed=4))
        ys, phats = _empirical_counts(problem, n_values, trials, 7)
        want_ys, want = one_block_counts(problem, n_values, trials, 7)
        assert_array_equal(ys, want_ys)
        assert sorted(phats) == sorted(want)
        for n in n_values:
            assert phats[n].tobytes() == want[n].tobytes()

    def test_peak_memory_at_full_size(self):
        """10 000 trials at the default test sizes peak below 32 MiB: the
        sampler never holds the whole (trials, 256) block."""
        problem = ClassificationProblem(make_class_mixture())
        tracemalloc.start()
        try:
            _empirical_counts(problem, DEFAULT_N_VALUES, 10_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def one_block_counts(problem, n_values, trials, seed):
    """The sampler as one ``(trials, max_n)`` uniform block whose prefix
    counts are accumulated by ``np.add.at``: the oracle of the chunks."""
    rng = np.random.default_rng(seed)
    max_n = int(max(n_values))
    ys = rng.integers(0, problem.n_classes, size=trials)
    us = rng.random((trials, max_n))
    cdfs = np.cumsum(problem.class_conditionals, axis=1)
    cdfs[:, -1] = 1.0
    xs = np.empty((trials, max_n), dtype=np.intp)
    for c in range(problem.n_classes):
        mask = ys == c
        xs[mask] = np.searchsorted(cdfs[c], us[mask], side="right")
    counts = np.zeros((trials, problem.n_x))
    rows = np.arange(trials)
    phats = {}
    prev = 0
    for n in n_values:
        np.add.at(counts, (np.repeat(rows, n - prev), xs[:, prev:n].ravel()),
                  1.0)
        prev = n
        phats[n] = counts / n
    return ys, phats


def exact_decisions(pushed, references):
    """Minimum ``rel_entr`` divergence per row, first class on ties: the
    classifier's defining rule."""
    divergences = np.stack(
        [rel_entr(pushed, references[i][None, :]).sum(axis=1)
         for i in range(references.shape[0])], axis=1)
    return np.argmin(divergences, axis=1)


def sampled_rows(local, cond, n, trials=300):
    """Empirical laws of ``n`` draws from random classes: rows with zero
    cells whenever ``n`` is below the alphabet size."""
    labels = local.integers(0, cond.shape[0], size=trials)
    return np.stack([local.multinomial(n, cond[y]) for y in labels]) / n


def mixed_conditionals(local, n_classes, n_x):
    cond = local.dirichlet(np.ones(n_x), size=n_classes)
    return 0.9 * cond + 0.1 / n_x


class TestMinDivergenceDecisions:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 6),
           n_x=st.integers(2, 8), k=st.integers(1, 4),
           n=st.sampled_from((1, 2, 3, 16)), hard=st.booleans(),
           duplicate=st.booleans(), zero_reference=st.booleans())
    def test_equal_the_exact_argmin(self, seed, n_classes, n_x, k, n, hard,
                                    duplicate, zero_reference):
        """Decisions equal the exact ``rel_entr`` argmin on any class
        problem and encoder: soft and hard encoders, empirical rows with
        zero cells, duplicate references (the lowest index wins), a
        reference with a zero cell, and one-cluster encoders, whose
        references and rows equal 1 within a few ulps."""
        local = np.random.default_rng(seed)
        cond = mixed_conditionals(local, n_classes, n_x)
        if duplicate:
            cond[-1] = cond[0]
        if k == 1:
            encoder = np.ones((n_x, 1))
        elif hard:
            encoder = np.eye(k)[local.integers(0, k, size=n_x)]
        else:
            encoder = random_encoder(local, n_x, k)
        pushed = sampled_rows(local, cond, n) @ encoder
        references = cond @ encoder
        if k == 1:
            pushed += 2.0**-53 * local.integers(-4, 5, size=pushed.shape)
            references += 2.0**-53 * local.integers(-4, 5, size=n_classes)[
                :, None]
        if zero_reference:
            references[-1, 0] = 0.0
        assert_array_equal(_min_divergence_decisions(pushed, references),
                           exact_decisions(pushed, references))

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 6),
           n_x=st.integers(2, 8), k=st.integers(2, 6),
           n=st.sampled_from((1, 2, 3, 16)))
    def test_ties_are_resolved_as_exactly(self, seed, n_classes, n_x, k, n):
        """Class 1 mirrors class 0 and every row is symmetric, so the two
        divergences are equal in exact arithmetic; the decision between
        them is the exact rule's, whichever way rounding tips it."""
        local = np.random.default_rng(seed)
        cond = mixed_conditionals(local, n_classes, n_x)
        pushed = sampled_rows(local, cond, n) @ random_encoder(local, n_x, k)
        pushed = (pushed + pushed[:, ::-1]) / 2.0
        references = cond @ random_encoder(local, n_x, k)
        references[1] = references[0][::-1]
        assert_array_equal(_min_divergence_decisions(pushed, references),
                           exact_decisions(pushed, references))

    def test_one_cluster_rounding_is_reproduced(self):
        """References a few ulps under 1: the exact divergences of rows
        near 1 tie or part by rounding alone, and the decisions follow."""
        pushed = (1.0 + 2.0**-53 * np.arange(-4, 5))[:, None]
        references = np.array([[0.9999999999999996], [0.9999999999999998],
                               [0.9999999999999999]])
        want = exact_decisions(pushed, references)
        assert np.unique(want).size > 1
        assert_array_equal(_min_divergence_decisions(pushed, references),
                           want)

    def test_one_distinct_reference_takes_the_first_class(self):
        references = np.tile([[0.25, 0.75]], (3, 1))
        pushed = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
        assert_array_equal(_min_divergence_decisions(pushed, references),
                           [0, 0, 0])


class TestPredictionExperiment:
    def test_ladder_contains_default_betas(self):
        # the warm-start grid hits the requested betas exactly, so no
        # state is ever interpolated
        assert np.all(np.isin(DEFAULT_BETAS, WARM_LADDER))
        assert DEFAULT_N_VALUES == (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def test_indistinguishable_classes_sit_at_chance(self):
        row = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        problem = ClassificationProblem(np.stack([row, row]))
        curves = {}
        for framework in ("ib", "dual"):
            out = run_prediction_experiment(
                problem, framework, beta_list=[2.0], n_values=(1, 4, 16),
                trials=2000, seed=3)
            assert len(out) == 1
            curves[framework] = out[0]
        for curve in curves.values():
            # every trial ties and resolves to class 0, so the error is
            # the label-1 frequency no matter how many samples are seen
            assert np.all(curve.p_err == curve.p_err[0])
            assert abs(curve.p_err[0] - 0.5) <= curve.ci_halfwidth[0]
        # common random numbers: both frameworks saw identical draws
        assert_array_equal(curves["ib"].p_err, curves["dual"].p_err)

    def test_error_decays_with_sample_size(self):
        cond = make_class_mixture(n_classes=3, n_x=8, seed=2)
        problem = ClassificationProblem(cond)
        (curve,) = run_prediction_experiment(
            problem, "dual", beta_list=[64.0], n_values=(1, 8, 64),
            trials=2000, seed=1)
        assert curve.beta == 64.0
        assert curve.framework == "dual"
        assert np.all((curve.p_err >= 0.0) & (curve.p_err <= 1.0))
        assert np.all(curve.ci_halfwidth >= 0.0)
        assert curve.p_err[0] > curve.p_err[-1] + 0.05
        assert curve.p_err[-1] < 0.25

    def test_runs_are_deterministic(self):
        cond = make_class_mixture(n_classes=3, n_x=8, seed=2)
        problem = ClassificationProblem(cond)
        kwargs = dict(beta_list=[3.0], n_values=(1, 4), trials=500, seed=6)
        first = run_prediction_experiment(problem, "ib", **kwargs)[0]
        second = run_prediction_experiment(problem, "ib", **kwargs)[0]
        assert_array_equal(first.p_err, second.p_err)
        assert_array_equal(first.ci_halfwidth, second.ci_halfwidth)
        assert first.beta == 3.0  # off the warm ladder: grid must absorb it
        assert first.framework == "ib"
        assert first.trials == 500
        assert first.seed == 6
        assert_array_equal(first.n_values, [1, 4])

    def test_frameworks_share_one_draw(self, monkeypatch):
        """Several frameworks in one call sample once and give the curves
        of one call per framework."""
        cond = make_class_mixture(n_classes=3, n_x=8, seed=2)
        problem = ClassificationProblem(cond)
        kwargs = dict(beta_list=[2.0, 8.0], n_values=(1, 4), trials=400,
                      seed=3)
        separate = [curve for fw in ("ib", "dual")
                    for curve in run_prediction_experiment(problem, fw,
                                                           **kwargs)]
        draws = []
        sampler = prediction._empirical_counts

        def counting(*args):
            draws.append(args)
            return sampler(*args)

        monkeypatch.setattr(prediction, "_empirical_counts", counting)
        joint = run_prediction_experiment(problem, ("ib", "dual"), **kwargs)
        assert len(draws) == 1
        assert [(c.framework, c.beta) for c in joint] == [
            ("ib", 2.0), ("ib", 8.0), ("dual", 2.0), ("dual", 8.0)]
        for got, want in zip(joint, separate):
            assert (got.framework, got.beta) == (want.framework, want.beta)
            assert_array_equal(got.p_err, want.p_err)
            assert_array_equal(got.ci_halfwidth, want.ci_halfwidth)

    def test_rejects_bad_arguments(self):
        problem = ClassificationProblem(np.array([[0.3, 0.7], [0.6, 0.4]]))
        with pytest.raises(ValueError, match="increasing"):
            run_prediction_experiment(problem, "ib", beta_list=[2.0],
                                      n_values=(4, 2), trials=10)
        with pytest.raises(ValueError, match="increasing"):
            run_prediction_experiment(problem, "ib", beta_list=[2.0],
                                      n_values=(0, 2), trials=10)
        with pytest.raises(ValueError, match="positive"):
            run_prediction_experiment(problem, "ib", beta_list=[2.0],
                                      n_values=(1, 2), trials=0)


class TestErrorCurveCsv:
    def make_curves(self):
        return [
            ErrorCurve(framework="ib", beta=4.0, n_values=np.array([1, 2]),
                       p_err=np.array([0.5, 0.125]),
                       ci_halfwidth=np.array([0.01, 0.005]),
                       trials=1000, seed=3),
            ErrorCurve(framework="dual", beta=8.0, n_values=np.array([1, 2]),
                       p_err=np.array([1.0 / 3.0, 0.0625]),
                       ci_halfwidth=np.array([0.02, 0.004]),
                       trials=1000, seed=3),
        ]

    def test_round_trip_and_schema(self, tmp_path):
        path = tmp_path / "curves.csv"
        error_curves_to_csv(self.make_curves(), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["framework", "beta", "n", "p_err",
                           "ci_halfwidth", "trials", "seed"]
        assert len(rows) == 1 + 4
        first = rows[1]
        assert first[0] == "ib"
        assert float(first[1]) == 4.0
        assert int(first[2]) == 1
        assert float(first[3]) == 0.5
        assert int(first[5]) == 1000
        assert int(first[6]) == 3
        # repr floats round-trip exactly, even non-terminating ones
        assert float(rows[3][3]) == 1.0 / 3.0

    def test_rewrites_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        curves = self.make_curves()
        error_curves_to_csv(curves, a)
        error_curves_to_csv(curves, b)
        assert a.read_bytes() == b.read_bytes()
