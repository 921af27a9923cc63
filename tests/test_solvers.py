"""Solver-level tests: update formulas, exact identities, optimality."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import softmax as scipy_softmax

from bottleneck_lab import solvers
from bottleneck_lab.annealing import (
    SplitConfig,
    TableBackend,
    log_grid,
    run_sweep,
    sweep,
)
from bottleneck_lab.datasets import binary_overlap5
from bottleneck_lab.expfamily import (ExpBackend, ExpFamilyModel, exp_solve,
                                     exp_sweep)
from bottleneck_lab.probability import (JointDistribution, kl_divergence,
                                        logsumexp)
from bottleneck_lab.solvers import (
    Framework,
    as_framework,
    default_encoder,
    dual_distortion_split,
    encoder_update,
    prepare_encoder,
    solve,
    state_observables,
)

from conftest import (PROPERTY_SETTINGS, direct_distortion, distortion_matrix,
                      inverse_encoder, random_encoder, random_problem)


class TestElementarySteps:
    def test_encoder_update_golden(self):
        """Frozen from the hand formula p(c|x) ∝ m_c * exp(-beta*d[x,c])."""
        enc = encoder_update(np.array([0.6, 0.4]),
                             np.array([[0.5, 1.0], [2.0, 0.1]]), 2.0)
        np.testing.assert_allclose(
            enc,
            [[0.803049686686028, 0.19695031331397192],
             [0.03246670007383685, 0.9675332999261631]], atol=1e-15)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           n_y=st.integers(1, 5), dead=st.integers(0, 5),
           level=st.sampled_from([0.0, 800.0]),
           spread=st.sampled_from([0.0, 30.0, 1000.0]))
    def test_dual_decode_matches_log_sum_exp(self, seed, k, n_y, dead,
                                             level, spread):
        """The dual decoder, a max-shifted row softmax, is the
        ``logsumexp`` formula ``exp(ratio - log_z)`` within 1e-13, without
        warnings, on statistics tables with one cluster, with dead clusters
        (the table's column sums), with every ``exp(ratio)`` underflowing
        (``level``) and with rows spread wider than ``exp``'s range
        (``spread``), whose far cells are exact zeros with finite logs."""
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(1, 7))
        log_rule = -5.0 * rng.random((n_x, n_y)) - level
        log_rule[:, 0] -= spread
        p_x = rng.dirichlet(np.ones(n_x))
        table = np.column_stack([p_x[:, None] * log_rule, p_x])
        enc = random_encoder(rng, n_x, k)
        enc[:, :min(dead, k - 1)] = 0.0
        _, stats, _ = solvers._cluster_statistics(
            enc / enc.sum(axis=1, keepdims=True), table)
        ratio = stats[:, :-1] / stats[:, -1:]
        log_z = logsumexp(ratio, axis=1)
        log_decoder = ratio - log_z[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solvers._decode(Framework.DUAL, stats)
        for value, want in zip(got, (np.exp(log_decoder), log_decoder,
                                     log_z)):
            np.testing.assert_allclose(value, want, rtol=1e-13, atol=1e-13)
        assert np.isfinite(got[1]).all()
        if spread > 745.0 and n_y > 1:
            assert not got[0][:, 0].any()

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           n=st.integers(1, 600), dead=st.integers(0, 11),
           scale=st.sampled_from([1.0, 30.0, 1e3, 1e6]))
    def test_column_softmax_matches_scipy(self, seed, k, n, dead, scale):
        """The step's softmax normalizes cluster-major logits down each
        column: ``-inf`` rows (dead clusters) give exact zeros, columns sum
        to one within ``1e-15 * k``, logits up to ``±1e6`` raise no
        floating-point warning, and the result is scipy's
        ``softmax(axis=0)`` within 1e-15."""
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-scale, scale, size=(k, n))
        dead_rows = rng.permutation(k)[:min(dead, k - 1)]
        logits[dead_rows] = -np.inf
        want = scipy_softmax(logits, axis=0)
        with warnings.catch_warnings(), np.errstate(all="raise",
                                                    under="ignore"):
            warnings.simplefilter("error")
            got = solvers._column_softmax(logits.copy())
        assert not got[dead_rows].any()
        assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-15 * k
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_distortion_rows_are_kls(self, rng):
        """Each distortion cell equals the corresponding KL divergence."""
        problem = random_problem(rng)
        enc = random_encoder(rng, problem.n_x, 3)
        for fw in (Framework.IB, Framework.DUAL):
            state = TableBackend(problem, fw).derive(enc, beta=2.0)
            d = distortion_matrix(problem, state)
            for x in range(problem.n_x):
                for c in range(3):
                    if fw is Framework.IB:
                        want = kl_divergence(problem.rule[x], state.decoder[c])
                    else:
                        want = kl_divergence(state.decoder[c], problem.rule[x])
                    assert d[x, c] == pytest.approx(want, abs=1e-12)

    def test_derive_consistency(self, rng):
        problem = random_problem(rng)
        enc = random_encoder(rng, problem.n_x, 4)
        state = TableBackend(problem, "ib").derive(enc, beta=1.5)
        np.testing.assert_allclose(state.marginal, enc.T @ problem.p_x,
                                   atol=1e-15)
        weights = inverse_encoder(state.encoder, problem.p_x)[1]
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(state.decoder.sum(axis=1), 1.0, atol=1e-12)
        # Bayes rule both ways round: m_c * w[c,x] == p_x * enc[x,c]
        np.testing.assert_allclose(weights * state.marginal[:, None],
                                   (enc * problem.p_x[:, None]).T, atol=1e-15)

    def test_dead_cluster_stays_dead(self, rng):
        problem = random_problem(rng, n_x=4, n_y=3)
        enc = np.zeros((4, 3))
        enc[:, 0] = [1.0, 1.0, 0.2, 0.0]
        enc[:, 1] = [0.0, 0.0, 0.8, 1.0]
        state, report = solve(problem, 3.0, "ib", init_encoder=enc)
        # cluster 2 started empty and must still be exactly empty, in place
        assert state.encoder.shape[1] == 3
        np.testing.assert_array_equal(state.encoder[:, 2], 0.0)
        assert state.marginal[2] == 0.0
        assert state.effective_clusters() <= 2
        assert report.converged

    def test_framework_coercion(self):
        assert as_framework("IB") is Framework.IB
        assert as_framework("dual") is Framework.DUAL
        assert as_framework(Framework.DUAL) is Framework.DUAL
        with pytest.raises(ValueError):
            as_framework("classic")


class TestExactIdentities:
    """Identities that hold at *any* chain-consistent state, converged or
    not; tolerances are set at accumulation noise, not convergence error."""

    def test_ib_mean_distortion_identity(self, rng):
        """E[d_ib] == I(X;Y) - I(Y;Xhat) whenever the decoder is the
        Bayes decoder of the state's own encoder."""
        for _ in range(25):
            problem = random_problem(rng)
            k = int(rng.integers(1, problem.n_x + 2))
            state = TableBackend(problem, "ib").derive(
                random_encoder(rng, problem.n_x, k), 2.0)
            i_y = state_observables(problem, state)[1]
            assert direct_distortion(problem, state) == pytest.approx(
                problem.mutual_information - i_y, abs=1e-12)

    def test_dual_mean_distortion_equals_minus_log_z(self, rng):
        """E[d_dual] == -E_{p(xhat)}[log Z] for geometric decoders."""
        for _ in range(25):
            problem = random_problem(rng)
            k = int(rng.integers(1, problem.n_x + 2))
            state = TableBackend(problem, "dual").derive(
                random_encoder(rng, problem.n_x, k), 2.0)
            assert direct_distortion(problem, state) == pytest.approx(
                -float(state.marginal @ state.log_z), abs=1e-12)

    def test_dual_distortion_split(self, rng):
        for _ in range(25):
            problem = random_problem(rng)
            k = int(rng.integers(1, problem.n_x + 2))
            state = TableBackend(problem, "dual").derive(
                random_encoder(rng, problem.n_x, k), 2.0)
            split = dual_distortion_split(problem, state)
            assert split.total == pytest.approx(
                direct_distortion(problem, state), abs=1e-11)
            assert split.prediction_mismatch >= -1e-12
            assert split.total == pytest.approx(
                split.label_info_shift + split.prediction_mismatch,
                abs=1e-13)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1),
           solver=st.sampled_from(["ib", "dual", "reduced"]),
           k=st.integers(1, 6), dead=st.booleans())
    def test_mean_distortion_is_the_direct_sum(self, seed, solver, k, dead):
        """The closed-form ``E[d]`` of ``state_observables`` is the direct
        expectation ``sum_x p(x) sum_c p(c|x) d(x, c)`` within 1e-12 at
        any derived state: on random tables in both frameworks, and on
        random exponential-family models, whose direct sum takes the dual
        cost on the reconstructed table.  With ``dead``, one of ``k >= 2``
        encoder columns is all zero."""
        rng = np.random.default_rng(seed)
        if solver == "reduced":
            n_x, n_y = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            d = int(rng.integers(0, 4))
            problem = ExpFamilyModel(features=rng.normal(size=(n_x, d)),
                                     params=rng.normal(size=(n_y, d)),
                                     p_x=rng.dirichlet(np.full(n_x, 2.0)))
            table, backend = problem.reconstruct(), ExpBackend(problem)
        else:
            problem = table = random_problem(rng)
            backend = TableBackend(problem, solver)
        enc = random_encoder(rng, problem.n_x, k)
        if dead and k > 1:
            enc[:, int(rng.integers(k))] = 0.0
        state = backend.derive(prepare_encoder(problem.n_x, None, enc), 2.0)
        assert abs(state_observables(problem, state)[2]
                   - direct_distortion(table, state)) <= 1e-12

    def test_functional_matches_definition(self, rng):
        problem = random_problem(rng)
        enc = random_encoder(rng, problem.n_x, 3)
        for fw in ("ib", "dual"):
            state = TableBackend(problem, fw).derive(enc, beta=4.0)
            i_x, i_y, mean_d, functional = state_observables(problem, state)
            want = i_x - 4.0 * i_y if fw == "ib" else i_x + 4.0 * mean_d
            assert functional == pytest.approx(want, abs=1e-12)


class TestSolve:
    def test_beta_zero_collapses(self, rng):
        problem = random_problem(rng)
        state, report = solve(problem, 0.0, "ib")
        i_x, i_y, _, _ = state_observables(problem, state)
        assert report.converged
        assert i_x == pytest.approx(0.0, abs=1e-9)
        assert i_y == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           beta=st.floats(0.5, 16.0))
    def test_functional_trace_non_increasing(self, framework, seed, k,
                                             beta):
        """Every alternating cycle of the shared loop decreases the
        framework functional, for the table solvers and the reduced one."""
        rng = np.random.default_rng(seed)
        if framework == "reduced":
            n_x, n_y, d = rng.integers(2, 9), rng.integers(2, 5), 2
            model = ExpFamilyModel(features=rng.normal(size=(n_x, d)),
                                   params=rng.normal(size=(n_y, d)),
                                   p_x=rng.dirichlet(np.full(n_x, 2.0)))
            _, report = exp_solve(model, beta,
                                  init_encoder=random_encoder(rng, n_x, k),
                                  tol=1e-9, max_iter=20_000,
                                  track_functional=True)
        else:
            problem = random_problem(rng)
            _, report = solve(problem, beta, framework,
                              init_encoder=random_encoder(rng, problem.n_x,
                                                          k),
                              tol=1e-9, max_iter=20_000,
                              track_functional=True)
        trace = report.functional_trace
        assert trace is not None and len(trace) >= 2
        slack = 1e-9 * max(1.0, abs(trace[0]))
        assert np.all(np.diff(trace) <= slack)

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           beta=st.floats(0.0, 16.0), dead=st.integers(0, 11))
    def test_step_matches_derived_state_update(self, framework, seed, k,
                                               beta, dead):
        """One step of ``solve`` (the statistics-table step), or of
        ``exp_solve`` on a tall model (``n_x >= 512``, ``d = 3``), is the
        cost-based update of the state ``TableBackend.derive`` builds on the
        (reconstructed) table within rounding, keeps dead (all-zero) encoder
        columns at exactly zero, and raises no floating-point warning.
        Widths reach 8 and more, where numpy's row sums turn pairwise."""
        rng = np.random.default_rng(seed)
        if framework == "reduced":
            n_x, n_y = int(rng.integers(512, 1025)), int(rng.integers(2, 6))
            model = ExpFamilyModel(features=rng.normal(size=(n_x, 3)),
                                   params=rng.normal(size=(n_y, 3)),
                                   p_x=rng.dirichlet(np.full(n_x, 2.0)))
            problem = model.reconstruct()
        else:
            problem = random_problem(rng)
        enc = random_encoder(rng, problem.n_x, k)
        n_dead = min(dead, k - 1)
        enc[:, :n_dead] = 0.0
        start = prepare_encoder(problem.n_x, None, enc)
        state = TableBackend(
            problem, "dual" if framework == "reduced" else framework
        ).derive(start, beta)
        expected = encoder_update(state.marginal,
                                  distortion_matrix(problem, state), beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if framework == "reduced":
                stepped, report = exp_solve(model, beta, init_encoder=enc,
                                            tol=-1.0, max_iter=1)
            else:
                stepped, report = solve(problem, beta, framework,
                                        init_encoder=enc, tol=-1.0,
                                        max_iter=1, track_functional=False)
        assert report.n_iterations == 1
        assert np.max(np.abs(stepped.encoder - expected)) <= 1e-13
        assert not stepped.encoder[:, :n_dead].any()

    @pytest.mark.parametrize("beta", [0.0, 3.0, 16.0])
    def test_ib_step_does_not_assume_normalized_rows(self, beta, rng):
        """The ib logits drop only the per-row constant
        ``beta * sum_y r log r`` of the cost, whatever the rule rows sum to
        (stored rows sum to one only up to rounding): on rows scaled off
        normalization the step still equals the cost-based update."""
        base = random_problem(rng)
        rule = base.rule * rng.uniform(0.5, 2.0, size=(base.n_x, 1))
        joint = base.p_x[:, None] * rule
        problem = JointDistribution(p_x=base.p_x, rule=rule,
                                    log_rule=np.log(rule), joint=joint,
                                    p_y=joint.sum(axis=0))
        enc = random_encoder(rng, problem.n_x, 4)
        state = TableBackend(problem, "ib").derive(enc, beta)
        expected = encoder_update(state.marginal,
                                  distortion_matrix(problem, state), beta)
        stepped, _ = solvers.fixed_point(TableBackend(problem, "ib"), beta,
                                         init_encoder=enc, tol=-1.0,
                                         max_iter=1)
        assert np.max(np.abs(stepped.encoder - expected)) <= 1e-13

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_sweep_matches_reference_step(self, framework):
        """A golden-table sweep with the statistics-table step follows the
        branch of one whose step is the cost-based update of
        ``derive`` / ``distortion_matrix`` / ``encoder_update``, run
        through the same loop."""
        problem = binary_overlap5()

        class ReferenceBackend(TableBackend):
            def stepper(self, beta):
                def step(encoder):
                    now = self.derive(encoder, beta)
                    d = distortion_matrix(problem, now)
                    return encoder_update(now.marginal, d, beta)

                return step

        betas = log_grid(0.25, 64.0, 60)
        new, _ = sweep(problem, framework, betas, tol=1e-12)
        reference, _ = run_sweep(ReferenceBackend(problem, framework),
                                 betas, SplitConfig(), 1e-12,
                                 solvers.DEFAULT_MAX_ITER)
        assert (new.column("effective_clusters").tolist()
                == reference.column("effective_clusters").tolist())
        assert new.column("converged").all()
        for name in ("i_x", "i_y"):
            np.testing.assert_allclose(new.column(name),
                                       reference.column(name), rtol=0,
                                       atol=1e-10)

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    def test_functional_trace_matches_state_path(self, framework, rng):
        """The traced functional is the one the backend's ``observables``
        gives on each state its ``derive`` builds along the solver's own
        path, value for value, for the table backends and the reduced
        one."""
        problem = random_problem(rng)
        enc = random_encoder(rng, problem.n_x, 4)
        enc[:, 0] = 0.0  # one dead cluster
        options = dict(init_encoder=enc, tol=1e-12, max_iter=60,
                       track_functional=True)
        if framework == "reduced":
            model = ExpFamilyModel(
                features=rng.normal(size=(problem.n_x, 2)),
                params=rng.normal(size=(problem.n_y, 2)), p_x=problem.p_x)
            backend = ExpBackend(model)
            _, report = exp_solve(model, 3.0, **options)
        else:
            backend = TableBackend(problem, framework)
            _, report = solve(problem, 3.0, framework, **options)
        expected = []
        for n in range(report.n_iterations + 1):
            # The state derived after n steps of the same (deterministic)
            # loop.
            state, _ = solvers.fixed_point(backend, 3.0, init_encoder=enc,
                                           tol=-1.0, max_iter=n)
            expected.append(backend.observables(state)[3])
        assert np.array_equal(report.functional_trace, expected)

    @pytest.mark.parametrize("solver, track", [
        pytest.param("dual", False, id="False"),
        pytest.param("dual", True, id="True"),
        pytest.param("reduced", False, id="reduced-False"),
        pytest.param("reduced", True, id="reduced-True")])
    def test_dual_solve_decodes_once_per_derivation(
            self, track, solver, rng, monkeypatch):
        """Each dual step, on the table or on the reduced model, normalizes
        its decoder once and the final state once more, through the one
        module-level ``_decode``; a traced step also derives the state it
        evaluates, one more decode per step."""
        calls = []
        original = solvers._decode

        def counting(framework, stats, v=None):
            calls.append(framework)
            return original(framework, stats, v)

        monkeypatch.setattr(solvers, "_decode", counting)
        problem = random_problem(rng)
        backend = TableBackend(problem, "dual")
        if solver == "reduced":
            backend = ExpBackend(ExpFamilyModel(
                features=rng.normal(size=(problem.n_x, 2)),
                params=rng.normal(size=(problem.n_y, 2)), p_x=problem.p_x))
        _, report = solvers.fixed_point(
            backend, 3.0, init_encoder=random_encoder(rng, problem.n_x, 3),
            track_functional=track)
        assert report.n_iterations > 1
        assert len(calls) == (1 + track) * report.n_iterations + 1

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_converged_state_is_fixed_point(self, framework, rng):
        problem = random_problem(rng)
        state, report = solve(problem, 3.0, framework,
                              init_encoder=random_encoder(rng, problem.n_x,
                                                          problem.n_x),
                              tol=1e-12, max_iter=100_000)
        assert report.converged
        again = encoder_update(state.marginal,
                               distortion_matrix(problem, state), state.beta)
        assert np.max(np.abs(again - state.encoder)) <= 1e-11

    def test_bounds_and_report_fields(self, rng):
        problem = random_problem(rng)
        state, report = solve(problem, 2.5, "ib",
                              init_encoder=random_encoder(rng, problem.n_x,
                                                          problem.n_x))
        i_x, i_y, mean_d, _ = state_observables(problem, state)
        assert -1e-12 <= i_x <= math.log(problem.n_x) + 1e-12
        assert -1e-12 <= i_y <= problem.mutual_information + 1e-9
        assert report.n_iterations >= 1
        assert mean_d >= -1e-12

    @pytest.mark.parametrize("solver", ["ib", "dual", "reduced"])
    def test_states_hold_c_contiguous_encoders(self, solver, rng):
        """Whatever layout the step works in, every state that ``solve``,
        ``exp_solve`` and a sweep hand out holds a C-contiguous
        ``(n_x, k)`` encoder, traced or not."""
        problem = random_problem(rng)
        enc = random_encoder(rng, problem.n_x, 3)
        betas = log_grid(0.5, 8.0, 6)
        if solver == "reduced":
            model = ExpFamilyModel(
                features=rng.normal(size=(problem.n_x, 2)),
                params=rng.normal(size=(problem.n_y, 2)), p_x=problem.p_x)
            states = [exp_solve(model, 3.0, init_encoder=enc,
                                track_functional=track)[0]
                      for track in (False, True)]
            states += exp_sweep(model, betas)[1]
        else:
            states = [solve(problem, 3.0, solver, init_encoder=enc,
                            track_functional=track)[0]
                      for track in (False, True)]
            states += sweep(problem, solver, betas)[1]
        for state in states:
            assert state.encoder.shape == (problem.n_x, state.n_clusters)
            assert state.encoder.flags.c_contiguous

    def test_track_functional_off(self, rng):
        problem = random_problem(rng)
        state, report = solve(problem, 2.0, "dual", track_functional=False)
        assert report.functional_trace is None
        assert np.isfinite(state_observables(problem, state)[3])

    def test_deterministic_given_seed(self, rng):
        problem = random_problem(rng)
        s1, _ = solve(problem, 3.0, "dual", init_encoder=random_encoder(
            np.random.default_rng(7), problem.n_x, problem.n_x))
        s2, _ = solve(problem, 3.0, "dual", init_encoder=random_encoder(
            np.random.default_rng(7), problem.n_x, problem.n_x))
        np.testing.assert_array_equal(s1.encoder, s2.encoder)

    def test_init_validation(self, rng):
        problem = random_problem(rng, n_x=3)
        with pytest.raises(ValueError):
            solve(problem, 1.0, "ib", init_encoder=np.ones((4, 2)))
        with pytest.raises(ValueError):
            solve(problem, 1.0, "ib", init_encoder=-np.ones((3, 2)))
        with pytest.raises(ValueError):
            solve(problem, -1.0, "ib")
        for beta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="beta must be finite"):
                solve(problem, beta, "ib", max_iter=5)
        with pytest.raises(ValueError):
            solve(problem, 1.0, "ib", n_clusters=0)

    def test_non_finite_init_rejected_before_iterating(self):
        """A NaN cell is refused up front, not after ``max_iter`` steps by
        the report's validated mutual information."""
        enc = np.full((5, 2), 0.5)
        enc[2, 1] = np.nan
        with pytest.raises(ValueError, match="init_encoder must be finite"):
            solve(binary_overlap5(), 2.0, "ib", init_encoder=enc, max_iter=50)

    def test_default_encoder_rows_normalized(self):
        enc = default_encoder(5, 3)
        np.testing.assert_allclose(enc.sum(axis=1), 1.0, atol=1e-15)

    def test_unconverged_flag(self, rng):
        problem = random_problem(rng)
        _, report = solve(problem, 8.0, "ib",
                          init_encoder=random_encoder(rng, problem.n_x,
                                                      problem.n_x),
                          max_iter=2)
        assert not report.converged
        assert report.n_iterations == 2


class TestAgainstDirectMinimization:
    """Best-of-multistart solver runs vs scipy minimizing a pure-numpy
    re-implementation of each functional over softmax-parametrized encoders.
    On a 3x2 problem both should locate the global optimum."""

    @staticmethod
    def _oracle_functional(problem, framework, beta):
        p_x, rule = problem.p_x, problem.rule
        log_rule = np.log(rule)

        def value(flat):
            logits = flat.reshape(problem.n_x, 2)
            enc = np.exp(logits - logits.max(axis=1, keepdims=True))
            enc /= enc.sum(axis=1, keepdims=True)
            m = enc.T @ p_x
            w = (enc * p_x[:, None]).T / m[:, None]
            i_x = 0.0
            for x in range(problem.n_x):
                for c in range(2):
                    if enc[x, c] > 0:
                        i_x += p_x[x] * enc[x, c] * math.log(enc[x, c] / m[c])
            if framework == "ib":
                dec = w @ rule
                total = i_x
                for x in range(problem.n_x):
                    for c in range(2):
                        total += beta * p_x[x] * enc[x, c] * sum(
                            rule[x, y] * math.log(rule[x, y] / dec[c, y])
                            for y in range(problem.n_y))
                # ib functional is I_x - beta*I_y = I_x + beta*E[d] - beta*I(X;Y)
                return total - beta * problem.mutual_information
            log_unnorm = w @ log_rule
            dec = np.exp(log_unnorm - log_unnorm.max(axis=1, keepdims=True))
            dec /= dec.sum(axis=1, keepdims=True)
            total = i_x
            for x in range(problem.n_x):
                for c in range(2):
                    total += beta * p_x[x] * enc[x, c] * sum(
                        dec[c, y] * math.log(dec[c, y] / rule[x, y])
                        for y in range(problem.n_y))
            return total

        return value

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_global_optimum(self, framework):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, n_x=3, n_y=2)
        beta = 3.0
        best_solver = min(
            state_observables(problem, solve(
                problem, beta, framework,
                init_encoder=random_encoder(rng, problem.n_x, 2),
                tol=1e-13)[0])[3]
            for _ in range(20))
        value = self._oracle_functional(problem, framework, beta)
        best_direct = min(
            minimize(value, rng.normal(size=6), method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12,
                              "maxiter": 20_000}).fun
            for _ in range(20))
        assert best_solver == pytest.approx(best_direct, abs=1e-6)
