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
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from bottleneck_lab import prediction
from bottleneck_lab.prediction import (
    DEFAULT_BETAS,
    DEFAULT_N_VALUES,
    WARM_LADDER,
    ClassificationProblem,
    ErrorCurve,
    _min_divergence_decisions,
    chernoff_information,
    error_curves_to_csv,
    run_prediction_experiment,
)
from bottleneck_lab.probability import (
    DistributionError,
    JointDistribution,
    NormalizationError,
)
from bottleneck_lab.solvers import (
    TableBackend,
    encoder_information,
    solve,
    state_observables,
)
from conftest import PROPERTY_SETTINGS, random_encoder, random_problem
from oracles import (binary_overlap5, entropy, exact_decisions,
                     kl_divergence, make_class_mixture, mean_exponent_bound,
                     one_block_counts, tilted_mixture, whole_block_experiment)

CELLS = prediction._SAMPLE_CELLS
CHUNK = CELLS // DEFAULT_N_VALUES[-1]  # trials per chunk at the default sizes


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_finite_cells(self, bad, side):
        """A NaN cell passed the positivity test (``nan <= 0`` is False)
        and returned a NaN exponent; an infinite one returned ``-inf``."""
        pair = [np.array([bad, 0.5]), np.array([0.5, 0.5])]
        with pytest.raises(DistributionError, match="positive finite"):
            chernoff_information(*(pair[::-1] if side else pair))

    @pytest.mark.parametrize("far", [[2.0, 1.0], [0.2, 0.2],
                                     [0.5, 0.5 + 2e-6]])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_inputs_that_do_not_sum_to_one(self, far, side):
        """``([2, 1], [1, 2])`` returned the exponent -1.04 and ``([0.2,
        0.2], [0.5, 0.5])`` the pair (0.916, 1.0): a sum farther than
        ``INPUT_SUM_TOL`` from 1 is an error that names the input."""
        pair = [np.array(far), np.array([0.3, 0.7])]
        with pytest.raises(NormalizationError,
                           match=f"p{side} sums to .* within 1e-06"):
            chernoff_information(*(pair[::-1] if side else pair))

    def test_near_sums_are_renormalized(self):
        """Inputs within ``INPUT_SUM_TOL`` of a sum of 1 give the exponent
        of their normalized form."""
        p0, p1 = smoothed_pair(np.random.default_rng(12))
        exponent, lam = chernoff_information(p0, p1)
        scaled, scaled_lam = chernoff_information(p0 * (1.0 + 5e-7),
                                                  p1 * (1.0 - 5e-7))
        assert_allclose(scaled, exponent, rtol=1e-12)
        assert_allclose(scaled_lam, lam, atol=1e-8)


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
            p_y = problem.joint.sum(axis=0)
            dec_gap = float(state.marginal @ [
                kl_divergence(row, p_y) for row in state.decoder])
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
        assert_allclose(joint.joint.sum(axis=0), problem.prior, atol=1e-8)
        assert_allclose(joint.p_x, p_x, atol=1e-8)
        assert_allclose(joint.rule, posterior, atol=1e-8)

    def test_custom_prior(self):
        cond = np.array([[0.7, 0.3], [0.4, 0.6]])
        prior = np.array([0.25, 0.75])
        problem = ClassificationProblem(cond, prior)
        assert_allclose(problem.joint().joint.sum(axis=0), prior, atol=1e-8)

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


#: (test sizes, trials) just below, on and past a chunk boundary, at
#: chunks of 64 rows (max n 4096) and of one row (max n above
#: ``_SAMPLE_CELLS``).
SHRUNK_CHUNK_CASES = [((3, 5, 4096), 63), ((3, 5, 4096), 64),
                      ((3, 5, 4096), 3 * 64 + 37), ((2, CELLS + 1), 1),
                      ((2, CELLS + 1), 3)]


def streamed_counts(problem, n_values, trials, seed):
    """Every chunk of :func:`prediction._sample_stream`, joined: the labels
    and, per test size, the ``(trials, n_x)`` empirical laws."""
    sizes = np.asarray(n_values)
    chunks = list(prediction._sample_stream(problem, sizes, trials, seed))
    ys = np.concatenate([labels for labels, _ in chunks])
    phats = np.concatenate([laws for _, laws in chunks], axis=1)
    return ys, dict(zip(n_values, phats))


class TestEmpiricalCounts:
    COND = np.array([[0.6, 0.3, 0.1],
                     [0.1, 0.2, 0.7]])

    @pytest.mark.parametrize("n_values, trials, rows", [
        ((1, 2, 256), 2 * CHUNK + 1, [CHUNK, CHUNK, 1]),
        ((3, 5, 4096), 150, [64, 64, 22]),
        ((1, 20_000), 30, [13, 13, 4]),
        ((2, CELLS + 1), 2, [1, 1])])
    def test_chunk_is_sized_by_cells(self, n_values, trials, rows):
        """A chunk holds ``_SAMPLE_CELLS`` uniforms at most: 1024 trials
        at the default largest size, fewer as the largest size grows, and
        at least one trial."""
        problem = ClassificationProblem(self.COND)
        stream = prediction._sample_stream(problem, np.array(n_values),
                                           trials, 0)
        assert [labels.size for labels, _ in stream] == rows

    def test_laws_are_sized_by_cells_at_large_n_x(self):
        """At n_x = 1024 the chunk's ``(sizes, trials, n_x)`` laws, not its
        uniforms, fill ``_SAMPLE_CELLS``: 28 trials a chunk at the nine
        default sizes, and no chunk holds more law cells."""
        problem = ClassificationProblem(make_class_mixture(8, 1024))
        stream = prediction._sample_stream(
            problem, np.array(DEFAULT_N_VALUES), 100, 0)
        chunks = [(labels.size, phats.size) for labels, phats in stream]
        assert [rows for rows, _ in chunks] == [28, 28, 28, 16]
        assert max(cells for _, cells in chunks) <= CELLS

    def test_streams_are_reused(self):
        problem = ClassificationProblem(self.COND)
        ys_a, phats_a = streamed_counts(problem, (1, 2, 8), 300, 4)
        ys_b, phats_b = streamed_counts(problem, (1, 2, 8), 300, 4)
        assert_array_equal(ys_a, ys_b)
        for n in (1, 2, 8):
            assert_array_equal(phats_a[n], phats_b[n])

    def test_counts_are_prefix_consistent(self):
        # phats[n] must be the empirical law of the FIRST n samples, so
        # scaled counts are integers that only grow as n does.
        problem = ClassificationProblem(self.COND)
        ys, phats = streamed_counts(problem, (1, 2, 8), 300, 4)
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
        ys, phats = streamed_counts(problem, (64,), trials, 9)
        for c in range(2):
            rows = phats[64][ys == c]
            assert rows.shape[0] > trials / 3
            assert_allclose(rows.mean(axis=0), self.COND[c], atol=0.02)

    @pytest.mark.parametrize("n_values", [(1, 2, 256), (3, 5, 100, 256)])
    @pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, 3 * CHUNK + 37])
    def test_chunks_equal_one_block(self, n_values, trials):
        """Drawing and binning the uniform block in row chunks gives the
        labels and every empirical law of one single block, bit for bit,
        whether the trials fall below, on or past a chunk boundary."""
        self.assert_stream_is_one_block(n_values, trials)

    @pytest.mark.parametrize("n_values, trials", SHRUNK_CHUNK_CASES)
    def test_shrunk_chunks_equal_one_block(self, n_values, trials):
        """The same when a large test size shrinks the chunk, down to one
        trial."""
        self.assert_stream_is_one_block(n_values, trials)

    @staticmethod
    def assert_stream_is_one_block(n_values, trials):
        problem = ClassificationProblem(make_class_mixture(3, 5, seed=4))
        ys, phats = streamed_counts(problem, n_values, trials, 7)
        want_ys, want = one_block_counts(problem, n_values, trials, 7)
        assert_array_equal(ys, want_ys)
        assert sorted(phats) == sorted(want)
        for n in n_values:
            assert phats[n].tobytes() == want[n].tobytes()


class TestBucketTable:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 4),
           n_x=st.integers(2, 300))
    @example(seed=1, n_classes=2, n_x=255)  # the largest uint8 table
    @example(seed=2, n_classes=3, n_x=256)  # the smallest uint16 table
    def test_cells_equal_the_per_class_search(self, seed, n_classes, n_x):
        """The bucket table gives every uniform the cell of its class's
        ``searchsorted(cdf, u, side="right")``.  Cells span 1e-18 to 1, so
        the CDF repeats values where tiny cells add nothing; the uniforms
        include random ones, 0, every bucket edge and every CDF value
        below 1, and the float just below each of those."""
        local = np.random.default_rng(seed)
        cond = 10.0 ** local.uniform(-18.0, 0.0, size=(n_classes, n_x))
        problem = ClassificationProblem(cond / cond.sum(axis=1,
                                                        keepdims=True))
        cdfs = np.cumsum(problem.class_conditionals, axis=1)
        cdfs[:, -1] = 1.0
        table = prediction._bucket_table(cdfs)
        buckets = table.shape[1]
        assert table.dtype == (np.uint8 if n_x < 256 else np.uint16)
        assert buckets & (buckets - 1) == 0
        assert 16 * n_x <= buckets < 32 * n_x
        marks = np.concatenate([[0.0], np.arange(1, buckets) / buckets,
                                cdfs[cdfs < 1.0]])
        pool = np.concatenate([marks, np.nextafter(marks[1:], 0.0),
                               local.random(marks.size)])
        labels = local.integers(0, n_classes, size=8)
        us = local.choice(pool, size=(labels.size, pool.size))
        want = np.stack([np.searchsorted(cdfs[c], row, side="right")
                         for c, row in zip(labels, us)])
        got = prediction._inverse_cdf(table, cdfs, labels, us.copy())
        assert got.dtype == table.dtype
        assert_array_equal(got, want)


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

    def test_one_cluster_equals_the_exact_rule_row_by_row(self):
        """A one-cluster encoder is decided once per distinct pushed value:
        repeated values one ulp apart around 1.0, against references a few
        ulps under 1 whose quotients with them round to ties (and one
        duplicate pair, which always ties), get
        :func:`_divergence_argmin`'s decision row for row."""
        ulp = 2.0**-53  # below 1.0; it doubles above
        values = np.concatenate([1.0 - ulp * np.arange(4, 0, -1),
                                 1.0 + 2.0 * ulp * np.arange(5)])
        pushed = np.random.default_rng(3).choice(values, size=(200, 1))
        references = 1.0 - ulp * np.array([[4.0], [2.0], [1.0], [2.0],
                                           [3.0]])
        want = prediction._divergence_argmin(pushed, references)
        assert np.unique(want).size > 1
        assert 3 not in want  # the duplicate of class 1 never wins
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
        """Several frameworks in one call sample each chunk once and give
        the curves of one call per framework."""
        cond = make_class_mixture(n_classes=3, n_x=8, seed=2)
        problem = ClassificationProblem(cond)
        kwargs = dict(beta_list=[2.0, 8.0], n_values=(1, 4096), trials=400,
                      seed=3)
        chunks = 7  # 64 trials a chunk at n = 4096
        draws = []
        sampler = prediction._empirical_counts

        def counting(*args):
            draws.append(args)
            return sampler(*args)

        monkeypatch.setattr(prediction, "_empirical_counts", counting)
        separate = []
        for fw in ("ib", "dual"):
            separate += run_prediction_experiment(problem, fw, **kwargs)
            assert len(draws) == chunks
            draws.clear()
        joint = run_prediction_experiment(problem, ("ib", "dual"), **kwargs)
        assert len(draws) == chunks
        assert [(c.framework, c.beta) for c in joint] == [
            ("ib", 2.0), ("ib", 8.0), ("dual", 2.0), ("dual", 8.0)]
        for got, want in zip(joint, separate):
            assert (got.framework, got.beta) == (want.framework, want.beta)
            assert_array_equal(got.p_err, want.p_err)
            assert_array_equal(got.ci_halfwidth, want.ci_halfwidth)

    def test_no_chunk_outlives_the_next_draw(self, monkeypatch):
        """Each chunk's laws are freed before the next chunk is drawn, so
        the experiment holds one chunk of samples at a time."""
        problem = ClassificationProblem(make_class_mixture(3, 8, seed=2))
        chunks, alive = [], []
        sampler = prediction._empirical_counts

        def tracking(*args):
            alive.append(sum(chunk() is not None for chunk in chunks))
            phats = sampler(*args)
            chunks.append(weakref.ref(phats))
            return phats

        monkeypatch.setattr(prediction, "_empirical_counts", tracking)
        run_prediction_experiment(problem, "ib", beta_list=[2.0],
                                  n_values=(1, 4096), trials=192, seed=3)
        assert alive == [0, 0, 0]  # 64 trials a chunk at n = 4096

    @pytest.mark.parametrize("n_values, trials", [
        ((1, 2, 256), CHUNK - 1), ((1, 2, 256), CHUNK),
        ((3, 5, 100, 256), 3 * CHUNK + 37)] + SHRUNK_CHUNK_CASES[:3])
    def test_equals_the_whole_block_experiment(self, n_values, trials):
        """Streaming chunk by chunk gives the curves of the experiment that
        holds every sample at once and decides every trial by the exact
        divergences, bit for bit: both frameworks, one-cluster betas (2
        and 4 on this problem) and a split encoder, trials below, on and
        past a chunk boundary."""
        problem = ClassificationProblem(make_class_mixture())
        betas = [2.0, 4.0, 64.0]
        got = run_prediction_experiment(problem, ("ib", "dual"), betas,
                                         n_values, trials, seed=13)
        want = whole_block_experiment(problem, ("ib", "dual"), betas,
                                      n_values, trials, seed=13)
        assert len(got) == len(want) == 6
        for curve, oracle in zip(got, want):
            assert (curve.framework, curve.beta) == (oracle.framework,
                                                     oracle.beta)
            assert_array_equal(curve.n_values, n_values)
            assert curve.p_err.tobytes() == oracle.p_err.tobytes()
            assert (curve.ci_halfwidth.tobytes()
                    == oracle.ci_halfwidth.tobytes())

    def test_curves_do_not_depend_on_the_chunk_size(self, monkeypatch):
        """Every chunk reads the next rows of one uniform stream, so two
        chunk sizes give the same curves, bit for bit."""
        problem = ClassificationProblem(make_class_mixture())
        curves = []
        for cells in (2**10, 2**18):
            monkeypatch.setattr(prediction, "_SAMPLE_CELLS", cells)
            curves.append(run_prediction_experiment(
                problem, ("ib", "dual"), [2.0, 64.0], trials=700, seed=11))
        for small, large in zip(*curves):
            assert (small.framework, small.beta) == (large.framework,
                                                     large.beta)
            assert small.p_err.tobytes() == large.p_err.tobytes()

    def test_rejects_bad_arguments(self):
        problem = ClassificationProblem(np.array([[0.3, 0.7], [0.6, 0.4]]))
        for n_values in ((4, 2), (0, 2), (1.5, 3.9), (2, 2.5), ()):
            with pytest.raises(ValueError, match="increasing positive "
                                                 "integers"):
                run_prediction_experiment(problem, "ib", beta_list=[2.0],
                                          n_values=n_values, trials=10)
        for trials in (0, 2.5, 10.0):
            with pytest.raises(ValueError, match="positive integer"):
                run_prediction_experiment(problem, "ib", beta_list=[2.0],
                                          n_values=(1, 2), trials=trials)
        for beta_list in ([], [[2.0, 4.0]], [-1.0], [0.0], [np.inf],
                          [2.0, np.nan]):
            with pytest.raises(ValueError, match="beta_list must be one or "
                                                 "more finite positive"):
                run_prediction_experiment(problem, "ib", beta_list=beta_list,
                                          n_values=(1, 2), trials=10)
        for frameworks in ((), [], ("ib", "classic")):
            with pytest.raises(ValueError, match="framework"):
                run_prediction_experiment(problem, frameworks,
                                          beta_list=[2.0], n_values=(1, 2),
                                          trials=10)

    def test_keeps_unordered_and_repeated_betas(self):
        """The CLI accepts betas in any order and repeated; each gives its
        curve, in the order asked."""
        problem = ClassificationProblem(make_class_mixture(3, 5, seed=4))
        kwargs = dict(n_values=(1, 4), trials=200, seed=2)
        curves = run_prediction_experiment(problem, "dual", [8.0, 2.0, 8.0],
                                           **kwargs)
        assert [curve.beta for curve in curves] == [8.0, 2.0, 8.0]
        (alone,) = run_prediction_experiment(problem, "dual", [8.0],
                                             **kwargs)
        for curve in (curves[0], curves[2]):
            assert_array_equal(curve.p_err, alone.p_err)

    @staticmethod
    def peak_traced_mib(trials, n_values=None):
        """tracemalloc peak of one experiment on the eight-class mixture,
        both frameworks at the default betas."""
        problem = ClassificationProblem(make_class_mixture())
        tracemalloc.start()
        try:
            run_prediction_experiment(problem, ("ib", "dual"),
                                      n_values=n_values, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def test_peak_memory_at_full_size(self):
        """10 000 trials at the default test sizes peak below 12 MiB: the
        experiment holds one chunk of samples at a time (the whole-block
        laws alone took 10.5 MiB)."""
        assert self.peak_traced_mib(10_000) < 12.0

    def test_peak_memory_does_not_grow_with_trials(self):
        """25 times the trials add the labels (8 bytes a trial) and
        nothing else that scales."""
        assert (self.peak_traced_mib(50_000)
                < self.peak_traced_mib(2_000) + 1.0)

    def test_peak_memory_at_a_large_test_size(self):
        """A test size of 20 000 shrinks the chunk to 13 trials: one chunk
        of 1024 trials would hold 156 MiB of uniforms."""
        assert self.peak_traced_mib(1024, (1, 20_000)) < 12.0


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
