"""Reduced-dimension solver: model fitting, state invariants, and
equivalence with the full-table prediction-side solver."""
from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bottleneck_lab import cli, expfamily
from bottleneck_lab.annealing import SplitConfig, log_grid, sweep
from bottleneck_lab.expfamily import (
    ExpFamilyModel,
    ExpBackend,
    exp_solve,
    exp_sweep,
)
from bottleneck_lab.probability import (
    DistributionError,
    mutual_information,
    softmax,
)
from bottleneck_lab.solvers import TableBackend, solve, state_observables

from conftest import PROPERTY_SETTINGS, random_encoder, random_problem
from oracles import (binary_overlap5, closed_information, direct_distortion,
                     distortion_matrix, encoder_update, entropy,
                     family_residual, inverse_encoder)


def binary_problem(rng):
    return random_problem(rng, n_y=2)


def generic_model(rng, n_x=4, n_y=3, d=2):
    features = rng.normal(0.0, 1.0, size=(n_x, d))
    params = rng.normal(0.0, 1.0, size=(n_y, d))
    p_x = rng.dirichlet(np.full(n_x, 2.0))
    return ExpFamilyModel(features=features, params=params, p_x=p_x)


def full_matrix_rule(model):
    """The rule rows and log-normalizers from one :func:`softmax` of the
    whole ``(n_x, n_y)`` interaction matrix: the construction the model's
    row blocks replace."""
    return softmax(-model.features @ model.params.T, 1, log=True)


#: Rows in one block at n_y = 200.
BLOCK_ROWS = expfamily.BLOCK_CELLS // 200

#: ``(n_x, n_y)`` at the block boundaries: n_x below one block, at a
#: multiple of the block, off a multiple and one row past it (the last row
#: joins the block before it), and n_y above the cell budget (blocks of the
#: two-row minimum).
BLOCK_SHAPES = [(BLOCK_ROWS // 3, 200), (2 * BLOCK_ROWS, 200),
                (2 * BLOCK_ROWS + BLOCK_ROWS // 2, 200),
                (2 * BLOCK_ROWS + 1, 200), (5, expfamily.BLOCK_CELLS + 7)]


def large_model(n_x=3000, n_y=1000, d=2):
    """A model whose rule table (24 MB at the defaults) dwarfs every array
    the reduced path needs."""
    local = np.random.default_rng(11)
    return ExpFamilyModel(features=local.normal(0.0, 1.0, size=(n_x, d)),
                          params=local.normal(0.0, 1.0, size=(n_y, d)))


def traced_peak(operation):
    """``(result, peak)``: what ``operation()`` returns and the peak of the
    memory it allocates, as tracemalloc (which numpy reports to) sees it."""
    tracemalloc.start()
    try:
        result = operation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def table_bytes(model):
    return model.n_x * model.n_y * np.dtype(float).itemsize


def traced_peak_below_bound(model, operation):
    """Run ``operation`` and assert that its allocations peak below a
    quarter of the model's rule table; return its result."""
    result, peak = traced_peak(operation)
    assert peak < table_bytes(model) / 4
    return result


def cluster_features_of(model, state):
    """The expected features ``E_{p(x|c)} features[x]`` the reduced step
    reads off its statistics table."""
    stats = state.encoder.T @ ExpBackend(model).table
    return stats[:, :-1] / stats[:, -1:]


def reduced_step(model, encoder, beta):
    """The encoder after one step of the reduced solver's loop."""
    state, _ = exp_solve(model, beta, init_encoder=encoder, max_iter=1,
                         track_functional=False)
    return state.encoder


class TestModelConstruction:
    def test_two_label_rules_fit_exactly(self, rng):
        for _ in range(10):
            problem = binary_problem(rng)
            model = ExpFamilyModel.from_conditional(problem)
            assert model.d == 1
            np.testing.assert_array_equal(model.params, [[0.0], [1.0]])
            residual = np.max(np.abs(model.reconstruct().rule - problem.rule))
            assert residual < 1e-10

    def test_demo_problem_fits_exactly(self):
        problem = binary_overlap5()
        model = ExpFamilyModel.from_conditional(problem)
        np.testing.assert_allclose(model.reconstruct().rule, problem.rule,
                                   atol=1e-12)
        np.testing.assert_array_equal(model.p_x, problem.p_x)

    def test_zero_dimensional_model_is_uniform(self):
        model = ExpFamilyModel(features=np.zeros((4, 0)),
                               params=np.zeros((3, 0)),
                               p_x=np.full(4, 0.25))
        np.testing.assert_allclose(model.log_normalizers(), np.log(3.0),
                                   atol=1e-15)
        np.testing.assert_allclose(model.reconstruct().rule, 1.0 / 3.0,
                                   atol=1e-15)

    def test_automatic_construction_needs_two_labels(self, rng):
        problem = random_problem(rng, n_x=4, n_y=3)
        with pytest.raises(ValueError, match="two labels"):
            ExpFamilyModel.from_conditional(problem)

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ExpFamilyModel(features=np.zeros((3, 2)),
                           params=np.zeros((2, 1)), p_x=np.full(3, 1 / 3))
        with pytest.raises(DistributionError):
            ExpFamilyModel(features=np.zeros((2, 1)),
                           params=np.zeros((2, 1)), p_x=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("field", ["features", "params", "p_x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, field, bad):
        """NaN slips past the sign and sum checks of ``p_x``; every field
        is checked for finiteness and named."""
        arrays = {"features": np.zeros((2, 1)), "params": np.zeros((2, 1)),
                  "p_x": np.array([0.5, 0.5])}
        arrays[field][0] = bad
        with pytest.raises(DistributionError, match=field):
            ExpFamilyModel(**arrays)

    def test_overflowing_interactions_rejected(self):
        """Finite features and params whose products overflow are named
        in the constructor, before any solve runs on inf or NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DistributionError,
                               match=r"features\[0\] @ params\[0\]"):
                ExpFamilyModel(features=[[1e308], [1.0]],
                               params=[[1e308], [0.0]])


class TestRowBlocks:
    """Every reader of the rule streams over it in row blocks of about
    ``BLOCK_CELLS`` cells; the blocks change no bit of the rule."""

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(BLOCK_SHAPES),
           d=st.integers(0, 3))
    def test_blocks_are_the_full_matrix_rows(self, seed, shape, d):
        model = generic_model(np.random.default_rng(seed), *shape, d=d)
        rule, log_normalizers = full_matrix_rule(model)
        assert model.log_normalizers().tobytes() == log_normalizers.tobytes()
        assert model.rule.tobytes() == rule.tobytes()

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(BLOCK_SHAPES),
           d=st.integers(0, 3), k=st.integers(1, 4),
           beta=st.floats(0.0, 16.0))
    def test_label_information_matches_the_table(self, seed, shape, d, k,
                                                 beta):
        """I(Y;Xhat) summed over row blocks equals the one product on the
        reconstructed table within rounding."""
        local = np.random.default_rng(seed)
        model = generic_model(local, *shape, d=d)
        state = ExpBackend(model).derive(
            random_encoder(local, model.n_x, k), beta)
        i_y = ExpBackend(model).observables(state)[1]
        want = mutual_information(
            model.reconstruct().label_joint(state.encoder))
        assert abs(i_y - want) <= 1e-13

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           negative=st.booleans())
    def test_overflow_in_a_later_block_is_named(self, seed, d, negative):
        local = np.random.default_rng(seed)
        n_x, n_y = BLOCK_SHAPES[2]
        features = local.uniform(-1.0, 1.0, size=(n_x, d))
        params = local.uniform(-1.0, 1.0, size=(n_y, d))
        x = int(local.integers(BLOCK_ROWS, n_x))
        y = int(local.integers(n_y))
        features[x, 0] = 1e308
        params[y, 0] = -1e308 if negative else 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DistributionError) as caught:
                ExpFamilyModel(features=features, params=params)
        assert str(caught.value) == (
            f"features[{x}] @ params[{y}] is not finite")


class TestLabelJoint:
    """``label_joint(encoder)`` reads ``p(xhat, y)`` off the encoder, on a
    table in one product and on a model over its row blocks."""

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(BLOCK_SHAPES),
           d=st.integers(0, 3), k=st.integers(1, 4), n_dead=st.integers(0, 2))
    def test_matches_the_inverse_encoder(self, seed, shape, d, k, n_dead):
        """Both agree with ``p(xhat) p(y|xhat)`` through the inverse encoder
        within 1e-15, a model agrees with its reconstructed table, and a
        dead cluster's row is exactly zero."""
        local = np.random.default_rng(seed)
        model = generic_model(local, *shape, d=d)
        for problem in (random_problem(local), model):
            encoder = random_encoder(local, problem.n_x, k + n_dead)
            dead = local.permutation(k + n_dead)[:n_dead]
            encoder[:, dead] = 0.0
            encoder /= encoder.sum(axis=1, keepdims=True)
            joint = problem.label_joint(encoder)
            marginal, weights = inverse_encoder(encoder, problem.p_x)
            oracle = marginal[:, None] * (weights @ problem.rule)
            assert np.abs(joint - oracle).max() <= 1e-15
            assert np.all(joint[dead] == 0.0)
        rebuilt = model.reconstruct().label_joint(encoder)
        assert np.abs(joint - rebuilt).max() <= 1e-15


class TestMemory:
    """The reduced path allocates no array of n_x * n_y cells: each step
    below peaks below a quarter of the model's rule table, which
    :meth:`ExpFamilyModel.reconstruct` exceeds."""

    def test_construction(self):
        """Construction checks every cell and the normalizers are built."""
        model = large_model()
        traced_peak_below_bound(model, lambda: ExpFamilyModel(
            model.features, model.params).log_normalizers())

    def test_sweep(self):
        model = large_model()
        trace, _ = traced_peak_below_bound(
            model, lambda: exp_sweep(model, log_grid(0.5, 4.0, 3), tol=1e-8,
                                     max_iter=2000))
        assert len(trace.records) == 3

    def test_observables(self):
        model = large_model()
        state, _ = exp_solve(model, 3.0, n_clusters=4, max_iter=50)
        traced_peak_below_bound(model,
                                lambda: ExpBackend(model).observables(state))

    def test_cli_sweep(self, tmp_path, capsys):
        model = large_model()
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"exp_family": {
            "features": model.features.tolist(),
            "params": model.params.tolist()}}))
        rc = traced_peak_below_bound(model, lambda: cli.main([
            "expfam", "--problem", str(path), "--beta-grid", "log:0.5:4:3",
            "--tol", "1e-8", "--max-iter", "2000",
            "--output-dir", str(tmp_path)]))
        capsys.readouterr()
        assert rc == 0

    def test_reconstruct_exceeds_the_bound(self):
        model = large_model()
        _, peak = traced_peak(model.reconstruct)
        assert peak > table_bytes(model) / 4


class TestStateInvariants:
    @pytest.fixture()
    def model_and_state(self, rng):
        problem = binary_problem(rng)
        model = ExpFamilyModel.from_conditional(problem)
        encoder = rng.dirichlet(np.ones(3), size=model.n_x)
        return model, ExpBackend(model).derive(encoder, beta=2.5)

    def test_expectation_consistency(self, model_and_state):
        model, state = model_and_state
        cluster_features = cluster_features_of(model, state)
        weights = inverse_encoder(state.encoder, model.p_x)[1]
        np.testing.assert_allclose(cluster_features,
                                   weights @ model.features,
                                   atol=1e-10)
        from scipy.special import logsumexp
        np.testing.assert_allclose(
            state.log_z,
            logsumexp(-cluster_features @ model.params.T, axis=1),
            atol=1e-10)

    def test_decoder_rows_normalized(self, model_and_state):
        _, state = model_and_state
        np.testing.assert_allclose(state.decoder.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_decoder_family_closure(self, model_and_state):
        """Rows rebuilt from (params, cluster features, normalizer) equal
        the decoder bit for bit — the family is closed under clustering."""
        model, state = model_and_state
        rebuilt = np.exp(-cluster_features_of(model, state) @ model.params.T
                         - state.log_z[:, None])
        np.testing.assert_array_equal(state.decoder, rebuilt)

    def test_point_mass_cluster_recovers_rule_row(self, rng):
        problem = binary_problem(rng)
        model = ExpFamilyModel.from_conditional(problem)
        # encoder sending x* alone to cluster 0 makes p(x|0) a point mass
        encoder = np.zeros((model.n_x, 2))
        encoder[0, 0] = 1.0
        encoder[1:, 1] = 1.0
        state = ExpBackend(model).derive(encoder, beta=3.0)
        np.testing.assert_allclose(state.decoder[0], problem.rule[0],
                                   atol=1e-12)

    def test_matches_geometric_decoder(self):
        """A half-and-half mixture cluster reproduces the log-space
        geometric mean of the two rule rows."""
        problem = binary_overlap5()
        model = ExpFamilyModel.from_conditional(problem)
        encoder = np.zeros((5, 2))
        encoder[:2, 0] = 1.0  # cluster 0 weighs inputs 0 and 1 by half
        encoder[2:, 1] = 1.0
        reduced = ExpBackend(model).derive(encoder, beta=1.0)
        np.testing.assert_array_equal(
            inverse_encoder(reduced.encoder, model.p_x)[1][0],
            [0.5, 0.5, 0, 0, 0])
        direct = TableBackend(problem, "dual").derive(encoder, 1.0).decoder
        np.testing.assert_allclose(reduced.decoder[0], direct[0], atol=1e-10)


class TestEncoder:
    def test_beta_zero_returns_marginal(self, rng):
        problem = binary_problem(rng)
        model = ExpFamilyModel.from_conditional(problem)
        encoder = rng.dirichlet(np.ones(3), size=model.n_x)
        state = ExpBackend(model).derive(encoder, beta=0.0)
        out = reduced_step(model, encoder, 0.0)
        np.testing.assert_allclose(out, np.tile(state.marginal,
                                                (model.n_x, 1)), atol=1e-12)

    def test_zero_dimensional_model_never_moves_off_marginal(self, rng):
        model = ExpFamilyModel(features=np.zeros((4, 0)),
                               params=np.zeros((2, 0)),
                               p_x=np.full(4, 0.25))
        encoder = rng.dirichlet(np.ones(2), size=4)
        for beta in (0.0, 1.0, 17.0):
            state = ExpBackend(model).derive(encoder, beta)
            np.testing.assert_allclose(
                reduced_step(model, encoder, beta),
                np.tile(state.marginal, (4, 1)), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_full_table_update(self, seed):
        local = np.random.default_rng(seed)
        problem = binary_problem(local)
        model = ExpFamilyModel.from_conditional(problem)
        encoder = local.dirichlet(np.ones(3), size=model.n_x)
        beta = float(local.uniform(0.5, 8.0))
        exp_state = ExpBackend(model).derive(encoder, beta)
        table_state = TableBackend(problem, "dual").derive(encoder, beta)
        expected = encoder_update(table_state.marginal,
                                  distortion_matrix(problem, table_state),
                                  beta)
        np.testing.assert_allclose(reduced_step(model, encoder, beta),
                                   expected, atol=1e-9)
        np.testing.assert_allclose(exp_state.decoder,
                                   table_state.decoder, atol=1e-10)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(2, 8),
           n_y=st.integers(2, 5), d=st.integers(0, 3), k=st.integers(1, 5),
           n_dead=st.integers(0, 2), beta=st.floats(0.0, 16.0))
    def test_step_matches_table_dual_step(self, seed, n_x, n_y, d, k, n_dead,
                                          beta):
        """One step of the reduced loop equals one step of the table dual
        loop on the model's table, for any model, encoder and beta; dead
        (all-zero) encoder columns stay exactly zero in both."""
        local = np.random.default_rng(seed)
        model = generic_model(local, n_x=n_x, n_y=n_y, d=d)
        encoder = np.zeros((n_x, k + n_dead))
        alive = np.sort(local.permutation(k + n_dead)[:k])
        encoder[:, alive] = local.dirichlet(np.ones(k), size=n_x)
        dead = np.setdiff1d(np.arange(k + n_dead), alive)
        table_state, _ = solve(model.reconstruct(), beta, "dual",
                               init_encoder=encoder, max_iter=1,
                               track_functional=False)
        exp_state, _ = exp_solve(model, beta, init_encoder=encoder,
                                 max_iter=1, track_functional=False)
        assert not exp_state.encoder[:, dead].any()
        assert not table_state.encoder[:, dead].any()
        np.testing.assert_allclose(exp_state.encoder, table_state.encoder,
                                   atol=1e-9)
        np.testing.assert_allclose(exp_state.decoder, table_state.decoder,
                                   atol=1e-10)

    def test_reduced_backend_is_the_table_dual_step(self):
        """The reduced solver has no step, derivation or observables of its
        own: it runs the table backend's on the factored log-rule.  Its one
        own attribute besides ``__init__`` is the inherited ``observables``,
        named for the benchmark tracer."""
        assert ExpBackend.stepper is TableBackend.stepper
        assert ExpBackend.derive is TableBackend.derive
        assert vars(ExpBackend)["observables"] is TableBackend.observables
        own = {name for name in vars(ExpBackend)
               if name == "__init__" or not name.startswith("__")}
        assert own == {"__init__", "observables"}


class TestSolve:
    def test_beta_zero_collapses(self):
        model = ExpFamilyModel.from_conditional(binary_overlap5())
        state, report = exp_solve(model, 0.0, n_clusters=3)
        i_x = ExpBackend(model).observables(state)[0]
        assert i_x == pytest.approx(0.0, abs=1e-12)
        assert report.converged

    @pytest.mark.parametrize("beta", [1.0, 5.0, 20.0])
    def test_matches_full_table_solver(self, beta):
        model = ExpFamilyModel.from_conditional(binary_overlap5())
        problem = binary_overlap5()
        exp_state, _ = exp_solve(model, beta, init_encoder=random_encoder(
            np.random.default_rng(7), model.n_x, 3), tol=1e-12)
        dual_state, _ = solve(problem, beta, "dual",
                              init_encoder=random_encoder(
                                  np.random.default_rng(7), problem.n_x, 3),
                              tol=1e-12)
        exp_i_x, exp_i_y, _, exp_functional = (
            ExpBackend(model).observables(exp_state))
        dual_i_x, dual_i_y, _, dual_functional = state_observables(
            problem, dual_state)
        assert exp_i_x == pytest.approx(dual_i_x, abs=1e-6)
        assert exp_i_y == pytest.approx(dual_i_y, abs=1e-6)
        assert exp_functional == pytest.approx(dual_functional, abs=1e-6)

    @pytest.mark.parametrize("beta", [2.0, 5.0, 10.0])
    def test_closed_forms_match_direct_computation(self, beta, rng):
        problem = binary_problem(rng)
        model = ExpFamilyModel.from_conditional(problem)
        state, _ = exp_solve(model, beta, init_encoder=random_encoder(
            np.random.default_rng(1), model.n_x, 3), tol=1e-12)
        i_x, _, mean_d, _ = ExpBackend(model).observables(state)
        closed = closed_information(model, state)
        assert closed.i_x == pytest.approx(i_x, abs=1e-8)
        dec = state.decoder
        i_y_direct = entropy(problem.joint.sum(axis=0)) - float(
            state.marginal @ np.array([entropy(row) for row in dec]))
        assert closed.i_y == pytest.approx(i_y_direct, abs=1e-8)
        d_direct = direct_distortion(problem, state)
        assert closed.mean_distortion == pytest.approx(d_direct, abs=1e-8)
        assert mean_d == pytest.approx(d_direct, abs=1e-8)

    def test_functional_trace_non_increasing(self):
        model = ExpFamilyModel.from_conditional(binary_overlap5())
        _, report = exp_solve(model, 6.0, init_encoder=random_encoder(
            np.random.default_rng(2), model.n_x, 2), track_functional=True)
        trace = report.functional_trace
        slack = 1e-9 * max(1.0, abs(trace[0]))
        assert np.all(np.diff(trace) <= slack)

    def test_iteration_is_table_free(self, monkeypatch):
        """The loop consumes d-dimensional aggregates only and a solve
        computes no observables: no solve assembles the validated table or
        allocates an array of a quarter of the model's n_x * n_y cells."""
        model = large_model()
        calls = []
        original = ExpFamilyModel.reconstruct

        def counting_reconstruct(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ExpFamilyModel, "reconstruct",
                            counting_reconstruct)
        for _ in range(2):
            report = traced_peak_below_bound(
                model, lambda: exp_solve(model, 5.0, tol=1e-12, max_iter=200,
                                         init_encoder=random_encoder(
                                             np.random.default_rng(3),
                                             model.n_x, 2))[1])
            assert report.n_iterations > 30
            assert calls == []

    @pytest.mark.parametrize("solver", ["ib", "dual", "reduced"])
    def test_derive_allocates_nothing_input_sized(self, solver):
        """A derived state holds the encoder and ``(k, *)`` arrays only:
        deriving one peaks below half of an ``(n_x, k)`` array.  Few labels
        keep the ``(k, n_y)`` decoder arrays far below that bound."""
        model = large_model(n_y=10)
        backend = (ExpBackend(model) if solver == "reduced"
                   else TableBackend(model.reconstruct(), solver))
        encoder = random_encoder(np.random.default_rng(3), model.n_x, 4)
        _, peak = traced_peak(lambda: backend.derive(encoder, 2.0))
        assert peak < encoder.nbytes / 2

    def test_deterministic(self):
        model = ExpFamilyModel.from_conditional(binary_overlap5())
        s1, _ = exp_solve(model, 4.0, init_encoder=random_encoder(
            np.random.default_rng(5), model.n_x, 2))
        s2, _ = exp_solve(model, 4.0, init_encoder=random_encoder(
            np.random.default_rng(5), model.n_x, 2))
        i_x1, _, _, functional1 = ExpBackend(model).observables(s1)
        i_x2, _, _, functional2 = ExpBackend(model).observables(s2)
        assert i_x1 == i_x2 and functional1 == functional2

    def test_negative_beta_rejected(self):
        model = ExpFamilyModel.from_conditional(binary_overlap5())
        with pytest.raises(ValueError):
            exp_solve(model, -1.0)


class TestSweepEquivalence:
    def test_observables_once_per_grid_point(self, monkeypatch):
        """A reduced sweep computes each grid point's observables once,
        for its record, not also in the solve."""
        calls = []
        original = ExpBackend.observables

        def counting(backend, state):
            calls.append(state.beta)
            return original(backend, state)

        monkeypatch.setattr(ExpBackend, "observables", counting)
        betas = log_grid(0.5, 16.0, 6)
        exp_sweep(ExpFamilyModel.from_conditional(binary_overlap5()), betas)
        assert calls == betas.tolist()

    def test_branches_match_full_table_sweep(self):
        problem = binary_overlap5()
        model = ExpFamilyModel.from_conditional(problem)
        betas = log_grid(0.5, 16.0, 25)
        reduced, _ = exp_sweep(model, betas, split=SplitConfig(seed=0))
        table, _ = sweep(problem, "dual", betas, split=SplitConfig(seed=0))
        for a, b in zip(reduced.records, table.records):
            assert a.effective_clusters == b.effective_clusters
            assert a.i_x == pytest.approx(b.i_x, abs=1e-9)
            assert a.i_y == pytest.approx(b.i_y, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_keeps_the_family_and_ib_leaves_it(seed):
    """Claim (iii) as a contrast.  With d = 2 < n_y - 1 the family is a
    proper subset of the label simplex.  Every converged dual state of a
    sweep of the model's table decodes inside it, and the ib leaves it,
    which is why only the dual has a reduced solver."""
    rng = np.random.default_rng(seed)
    model = ExpFamilyModel(features=rng.normal(0.0, 1.0, size=(30, 2)),
                           params=rng.normal(0.0, 1.0, size=(8, 2)))
    problem = model.reconstruct()
    betas = log_grid(0.5, 64.0, 16)
    worst = {}
    for framework in ("ib", "dual"):
        trace, states = sweep(problem, framework, betas, tol=1e-10)
        worst[framework] = max(
            family_residual(model, state.decoder[state.alive()])
            for record, state in zip(trace.records, states)
            if record.converged)
    assert worst["dual"] <= 1e-12
    assert worst["ib"] > 1e-3
