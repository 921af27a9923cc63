"""Solver-level tests: update formulas, exact identities, optimality."""
from __future__ import annotations

import contextlib
import itertools
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
from bottleneck_lab.expfamily import (ExpBackend, ExpFamilyModel, exp_solve,
                                     exp_sweep)
from bottleneck_lab.prediction import (ClassificationProblem,
                                       run_prediction_experiment)
from bottleneck_lab.probability import (DistributionError, JointDistribution,
                                       logsumexp)
from bottleneck_lab.solvers import (
    as_framework,
    default_encoder,
    prepare_encoder,
    solve,
    state_observables,
)
from bottleneck_lab.stability import find_critical_points

from conftest import PROPERTY_SETTINGS, random_encoder, random_problem
from oracles import (binary_overlap5, direct_distortion, distortion_matrix,
                     dual_distortion_split, encoder_update,
                     full_test_fixed_point, inverse_encoder, kl_divergence,
                     statistics_table, two_branch_stepper)


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
            got = solvers._decode("dual", stats)
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
        for fw in ("ib", "dual"):
            state = TableBackend(problem, fw).derive(enc, beta=2.0)
            d = distortion_matrix(problem, state)
            for x in range(problem.n_x):
                for c in range(3):
                    if fw == "ib":
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
        assert as_framework("IB") == "ib"
        assert as_framework("dual") == "dual"
        assert as_framework("DUAL") == "dual"
        assert type(as_framework("IB")) is str
        with pytest.raises(ValueError, match="unknown framework 'classic'"):
            as_framework("classic")

    @pytest.mark.parametrize("framework", ["IB", "dual"])
    def test_frameworks_are_plain_strings(self, framework):
        """A framework is its lower-case name, a plain ``str``, on every
        object that carries one: the backends, states, traces, critical
        points and error curves of both frameworks and of the reduced
        solver."""
        problem = binary_overlap5()
        grid = log_grid(2.0, 8.0, 12)
        trace, states = sweep(problem, framework, grid)
        points = find_critical_points(problem, (trace, states))
        assert points
        (curve,) = run_prediction_experiment(
            ClassificationProblem(np.array([[0.3, 0.7], [0.6, 0.4]])),
            framework, beta_list=[2.0], n_values=(1,), trials=10)
        carried = [TableBackend(problem, framework).framework,
                   states[-1].framework, trace.framework,
                   points[0].framework, curve.framework]
        if framework == "dual":
            model = ExpFamilyModel.from_conditional(problem)
            exp_trace, exp_states = exp_sweep(model, grid)
            carried += [ExpBackend(model).framework, exp_trace.framework,
                        exp_states[-1].framework]
        assert [type(value) for value in carried] == [str] * len(carried)
        assert carried == [framework.lower()] * len(carried)


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
        problem = JointDistribution(p_x=base.p_x, rule=rule)
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

    @pytest.mark.parametrize("solver", ["ib", "dual", "reduced"])
    def test_encoder_delta_is_the_final_step(self, solver):
        """``encoder_delta`` is the sup-norm move of the last step: from
        the encoder the same solve reaches one iteration earlier (the
        start, for one iteration).  ``converged`` is ``encoder_delta <=
        tol``."""
        if solver == "reduced":
            rng = np.random.default_rng(3)
            backend = ExpBackend(ExpFamilyModel(
                features=rng.normal(size=(300, 3)),
                params=rng.normal(size=(20, 3))))
        else:
            backend = TableBackend(binary_overlap5(), solver)
        beta, k = 4.0, 4
        step = backend.stepper(beta)
        for n in (1, 2, 7, 50):
            before = (prepare_encoder(backend.n_x, k, None) if n == 1
                      else solvers.fixed_point(backend, beta, n_clusters=k,
                                               tol=0.0,
                                               max_iter=n - 1)[0].encoder)
            _, report = solvers.fixed_point(backend, beta, n_clusters=k,
                                            tol=0.0, max_iter=n)
            assert report.n_iterations == n
            assert abs(report.encoder_delta
                       - np.abs(step(before) - before).max()) <= 1e-13
            assert not report.converged
        _, report = solvers.fixed_point(backend, beta, n_clusters=k,
                                        tol=1e-10)
        assert report.converged
        assert report.encoder_delta <= 1e-10


def random_backend(framework: str, rng: np.random.Generator,
                   n_x: int | None = None, n_y: int | None = None,
                   d: int = 2):
    """A table backend on a random problem, or a reduced backend on a
    random ``d``-feature model, of ``n_x`` inputs and ``n_y`` labels (both
    drawn when not given)."""
    if framework != "reduced":
        return TableBackend(random_problem(rng, n_x, n_y), framework)
    if n_x is None:
        n_x, n_y = int(rng.integers(2, 9)), int(rng.integers(2, 5))
    return ExpBackend(ExpFamilyModel(features=rng.normal(size=(n_x, d)),
                                     params=rng.normal(size=(n_y, d)),
                                     p_x=rng.dirichlet(np.full(n_x, 2.0))))


class TestOneLogitsProduct:
    """Every backend's step forms its logits as one product ``rows @ C``,
    with the same bits as the per-framework formulas it replaced, on the
    table ``[p(x) W | p(x)]`` that the backend alone forms."""

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(2, 60),
           n_y=st.integers(2, 12), d=st.integers(0, 4))
    def test_table_equals_the_written_out_table(self, framework, seed, n_x,
                                                n_y, d):
        """Random tables in both frameworks and random models with
        d = 0..4: the backend's table is the written-out one, bit for bit,
        and its rows ``w`` are the rule, the log-rule or the features."""
        backend = random_backend(framework, np.random.default_rng(seed),
                                 n_x, n_y, d)
        problem = backend.problem
        assert np.array_equal(backend.table,
                              statistics_table(problem, framework))
        rows = {"ib": "rule", "dual": "log_rule", "reduced": "features"}
        assert backend.w is getattr(problem, rows[framework])

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(2, 60),
           n_y=st.integers(2, 12), d=st.integers(0, 4), k=st.integers(1, 8),
           dead=st.integers(0, 7), beta=st.floats(0.0, 64.0))
    def test_step_equals_two_branch_logits(self, framework, seed, n_x, n_y,
                                           d, k, dead, beta):
        """Three steps from a random encoder with dead columns, on random
        tables in both frameworks and random models with d = 0..4, equal
        the two-branch step bit for bit."""
        rng = np.random.default_rng(seed)
        backend = random_backend(framework, rng, n_x, n_y, d)
        step = backend.stepper(beta)
        reference = two_branch_stepper(backend, beta)
        enc = random_encoder(rng, n_x, k)
        enc[:, :min(dead, k - 1)] = 0.0
        for _ in range(3):
            new = step(enc)
            assert np.array_equal(new, reference(enc))
            enc = new


def bounded_table(framework: str, rng: np.random.Generator):
    """``(backend, beta)``: a table backend on a random rule whose smallest
    cell is about ``10**u`` for ``u`` uniform in [-9, -1], and a ``beta``
    drawn uniformly below the shift-free bound of that cell."""
    n_x, n_y = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    rows = rng.dirichlet(np.full(n_y, 0.5), size=n_x) + 10.0 ** rng.uniform(
        -9.0, -1.0)
    problem = JointDistribution.from_conditional(
        rows / rows.sum(axis=1, keepdims=True),
        p_x=rng.dirichlet(np.full(n_x, 2.0)), smoothing_epsilon=0.0)
    backend = TableBackend(problem, framework)
    return backend, rng.uniform() * solvers.SHIFT_FREE_LOGIT_BOUND / -math.log(
        backend.rule_floor)


def live_encoder(rng: np.random.Generator, n_x: int, k: int, dead: int):
    """A random row-stochastic encoder with its first ``dead`` columns
    (at most ``k - 1``) at zero."""
    enc = random_encoder(rng, n_x, k)
    enc[:, :min(dead, k - 1)] = 0.0
    return enc / enc.sum(axis=1, keepdims=True)


@contextlib.contextmanager
def softmax_inputs():
    """Record ``(logits, shift)`` of every softmax a step runs."""
    seen = []
    column_softmax = solvers._column_softmax

    def recording(logits, shift=True):
        seen.append((logits.copy(), shift))
        return column_softmax(logits, shift)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_column_softmax", recording)
        yield seen


class TestShiftFreeSoftmax:
    """A table step's logits are ``log p(xhat) - beta * d`` with ``0 <= d
    <= -log min p(y|x)``, so its softmax skips the max shift while ``beta *
    -log min p(y|x) <= SHIFT_FREE_LOGIT_BOUND``; past the bound, with a zero
    rule cell and on the reduced backend it keeps the shift."""

    @staticmethod
    def assert_shifted_steps(backend, beta, k, n_steps=20):
        """Steps from the broad ``k``-cluster encoder take the shifted
        softmax, bit for bit, and stay finite."""
        column_softmax = solvers._column_softmax
        step = backend.stepper(beta)
        enc = prepare_encoder(backend.n_x, k, None)
        with softmax_inputs() as seen:
            for _ in range(n_steps):
                new = step(enc)
                logits, shift = seen[-1]
                assert shift
                assert np.array_equal(new,
                                      column_softmax(logits.copy(), True).T)
                assert np.isfinite(new).all()
                enc = new
        return seen

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           dead=st.integers(0, 7))
    def test_step_equals_the_shifted_softmax(self, framework, seed, k,
                                             dead):
        """Three shift-free steps from a random encoder with dead columns,
        on random tables in both frameworks with beta inside the bound,
        equal their logits through the shifted softmax within 1e-15 per
        cell, raise no floating-point error and keep dead columns at
        exactly zero."""
        rng = np.random.default_rng(seed)
        backend, beta = bounded_table(framework, rng)
        assert not backend.softmax_shift(beta)
        column_softmax = solvers._column_softmax
        step = backend.stepper(beta)
        enc = live_encoder(rng, backend.n_x, k, dead)
        with softmax_inputs() as seen, warnings.catch_warnings(), \
                np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            for _ in range(3):
                new = step(enc)
                logits, shift = seen[-1]
                assert not shift
                want = column_softmax(logits.copy(), True).T
                assert np.max(np.abs(new - want)) <= 1e-15
                assert not new[:, :min(dead, k - 1)].any()
                enc = new

    def test_table_logits_lie_in_the_bound(self):
        """Over 3000 draws of a table, a framework, k = 1..8 clusters with
        dead columns and beta inside the bound, every logit of a step is at
        most 0, and each column's max is at least ``-log k + beta * log min
        p(y|x)``."""
        rng = np.random.default_rng(35)
        with softmax_inputs() as seen:
            for draw in range(3000):
                backend, beta = bounded_table(("ib", "dual")[draw % 2], rng)
                k = int(rng.integers(1, 9))
                backend.stepper(beta)(live_encoder(
                    rng, backend.n_x, k, int(rng.integers(0, k))))
                logits, shift = seen[-1]
                assert not shift
                alive = logits[np.isfinite(logits[:, 0])]
                assert (alive <= 0.0).all()
                assert (alive.max(axis=0) >= -math.log(k) + beta * math.log(
                    backend.rule_floor)).all()

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_golden_table_past_the_bound_keeps_the_shift(self, framework):
        """At beta = 1e4 the golden table (min p(y|x) = 0.12) is far past
        the bound: its steps take the shifted softmax and stay finite,
        where the shift-free softmax of the same logits is not finite."""
        backend = TableBackend(binary_overlap5(), framework)
        assert backend.softmax_shift(1e4)
        seen = self.assert_shifted_steps(backend, 1e4, 4)
        with np.errstate(all="ignore"):
            assert not all(np.isfinite(solvers._column_softmax(logits, False))
                           .all() for logits, _ in seen)

    def test_zero_rule_cell_keeps_the_shift(self):
        """A rule with a zero cell bounds no logit: an ib backend on it
        shifts at every beta, bit for bit, and stays finite while its
        clusters stay soft.  (A dual table needs the log-rule, so a
        positive rule.)"""
        problem = JointDistribution(
            p_x=np.array([0.2, 0.3, 0.5]),
            rule=np.array([[0.0, 1.0], [0.5, 0.5], [0.9, 0.1]]))
        backend = TableBackend(problem, "ib")
        assert backend.rule_floor == 0.0
        for beta in (0.0, 1.0, 2.0):
            assert backend.softmax_shift(beta)
            self.assert_shifted_steps(backend, beta, 3)

    def test_reduced_backend_keeps_the_shift(self):
        """The reduced logits carry ``beta * log Z(x)``, which has no bound
        known before the step: a reduced backend shifts at every beta."""
        backend = random_backend("reduced", np.random.default_rng(5))
        for beta in (0.0, 2.0, 20.0):
            assert backend.softmax_shift(beta)
            self.assert_shifted_steps(backend, beta, 3)

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_sweep_across_the_bound_matches_the_shifted_sweep(
            self, framework, monkeypatch):
        """A golden sweep over log_grid(64, 8192, 29) crosses the bound at
        beta = 600 / -log 0.12 = 283: it converges at every point, with the
        cluster counts of a sweep forced onto the shift and its values and
        decoders within 1e-12."""
        problem, betas = binary_overlap5(), log_grid(64.0, 8192.0, 29)
        shifts = [TableBackend(problem, framework).softmax_shift(beta)
                  for beta in betas]
        assert not shifts[0] and shifts[-1] and shifts == sorted(shifts)
        trace, _ = sweep(problem, framework, betas, tol=1e-12)
        monkeypatch.setattr(solvers, "SHIFT_FREE_LOGIT_BOUND", -1.0)
        shifted, _ = sweep(problem, framework, betas, tol=1e-12)
        assert trace.column("converged").all()
        assert np.array_equal(trace.column("effective_clusters"),
                              shifted.column("effective_clusters"))
        for name in ("i_x", "i_y", "functional"):
            np.testing.assert_allclose(trace.column(name),
                                       shifted.column(name),
                                       rtol=0, atol=1e-12)
        for got, want in zip(trace.records, shifted.records):
            np.testing.assert_allclose(got.decoder, want.decoder, rtol=0,
                                       atol=1e-12)


class TestStoppingTest:
    """``fixed_point`` forms the sup-norm move of a step only when its
    probe cell cannot show that the step is still above ``tol``; it must
    stop exactly where a full test on every step stops."""

    @staticmethod
    def assert_same_stop(backend, beta, **options):
        want = full_test_fixed_point(backend, beta, **options)
        state, report = solvers.fixed_point(backend, beta, **options)
        assert state.encoder.tobytes() == want[0].tobytes()
        assert (report.n_iterations, report.converged,
                report.encoder_delta) == want[1:]

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           dead=st.integers(0, 5), beta=st.floats(0.0, 30.0),
           tol=st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]), data=st.data())
    def test_probe_stops_where_the_full_test_stops(
            self, framework, seed, k, dead, beta, tol, data):
        """Encoder bits, ``n_iterations``, ``converged`` and
        ``encoder_delta`` equal the full-test loop's, on random tables in
        both frameworks and random reduced models, with dead columns, for
        any ``max_iter`` from one step up to convergence."""
        rng = np.random.default_rng(seed)
        backend = random_backend(framework, rng)
        enc = random_encoder(rng, backend.n_x, k)
        enc[:, :min(dead, k - 1)] = 0.0
        _, n_converged, _, _ = full_test_fixed_point(
            backend, beta, init_encoder=enc, tol=tol, max_iter=1000)
        max_iter = data.draw(st.integers(1, n_converged), label="max_iter")
        self.assert_same_stop(backend, beta, init_encoder=enc, tol=tol,
                              max_iter=max_iter)

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    def test_exact_fixed_point_at_tol_zero(self, framework, rng):
        """A step that moves no cell at all: a probe that moved by exactly
        ``tol = 0`` must run the full test, which converges.  At ``beta =
        0`` every row of a reduced step is the marginal, and within a few
        steps its rounding settles.  A table step without the max shift
        need not settle there, so the table cases start from one alive
        column plus dead ones, where a step returns exact ones and zeros
        (``x / x = 1``) at any ``beta``, shifted or not."""
        for _ in range(5):
            backend = random_backend(framework, rng)
            enc = random_encoder(rng, backend.n_x, 4)
            enc[:, 0] = 0.0
            if framework != "reduced":
                enc[:, 2:] = 0.0
            _, report = solvers.fixed_point(backend, 0.0, init_encoder=enc,
                                            tol=0.0, max_iter=50)
            assert report.converged and report.encoder_delta == 0.0
            self.assert_same_stop(backend, 0.0, init_encoder=enc, tol=0.0,
                                  max_iter=50)

    @pytest.mark.parametrize("framework", ["ib", "dual"])
    def test_full_test_runs_on_few_golden_steps(self, framework,
                                                monkeypatch):
        """On a golden sweep the probe rules out all but a few steps: the
        full sup-norm test runs on at most 2% of them, and at least on the
        last step of every solve."""
        calls = []
        original = solvers._sup_norm_move

        def counting(new, old):
            calls.append(None)
            return original(new, old)

        monkeypatch.setattr(solvers, "_sup_norm_move", counting)
        trace, _ = sweep(binary_overlap5(), framework,
                         log_grid(0.25, 64.0, 60), tol=1e-12)
        assert trace.column("converged").all()
        assert len(trace.records) <= len(calls)
        assert len(calls) <= 0.02 * trace.column("n_iterations").sum()

    @pytest.mark.parametrize("framework", ["ib", "dual", "reduced"])
    def test_non_finite_step_raises_naming_beta(self, framework):
        """At beta = 1e308 the logits overflow and the encoder turns NaN;
        the loop raises naming beta before a fourth step, rather than
        running ``max_iter`` steps on a NaN encoder."""
        problem = binary_overlap5()
        backend = (ExpBackend(ExpFamilyModel.from_conditional(problem))
                   if framework == "reduced"
                   else TableBackend(problem, framework))
        with np.errstate(all="ignore"), \
                pytest.raises(DistributionError, match="beta = 1e"):
            solvers.fixed_point(backend, 1e308, max_iter=3)

    def test_finite_hard_partition_at_huge_beta_returns(self):
        """Three ib clusters on the five inputs stay finite at beta =
        1e308: a hard partition, which the NaN test must not reject."""
        with np.errstate(all="ignore"):
            state, report = solvers.fixed_point(
                TableBackend(binary_overlap5(), "ib"), 1e308, n_clusters=3)
        assert report.converged and np.isfinite(state.encoder).all()
        assert set(np.unique(state.encoder)) <= {0.0, 1.0}

    def test_dead_mask_matches_counting_nonzeros(self):
        """``_cluster_statistics`` finds dead clusters exactly where
        counting nonzero masses would: -0.0 is a zero, NaN and subnormal
        masses are not, and a dead mask marks what is not positive."""

        class Product:
            """An encoder whose product with any table is ``stats``."""

            def __init__(self, stats):
                self.T, self.stats = self, stats

            def __matmul__(self, table):
                return self.stats.copy()

        table = np.array([[0.25, 0.5], [0.75, 0.5]])
        values = [0.0, -0.0, np.nan, 5e-324, -5e-324, 0.5, 1.0]
        for marginal in itertools.product(values, repeat=3):
            marginal = np.array(marginal)
            stats = np.column_stack([np.ones(3), marginal])
            got, got_stats, dead = solvers._cluster_statistics(
                Product(stats), table)
            assert (dead is None) == (np.count_nonzero(marginal)
                                      == marginal.size)
            assert got.tobytes() == marginal.tobytes()
            if dead is not None:
                assert np.array_equal(dead, ~(marginal > 0.0))
                assert np.array_equal(got_stats[dead],
                                      np.broadcast_to(table.sum(axis=0),
                                                      (dead.sum(), 2)))


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
