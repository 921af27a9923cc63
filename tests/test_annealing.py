"""Annealed sweep machinery: split/merge, traces, serialization."""
from __future__ import annotations

import numpy as np
import pytest

from bottleneck_lab import annealing, solvers
from bottleneck_lab.annealing import (
    AnnealTrace,
    SplitConfig,
    log_grid,
    merge_close_clusters,
    run_sweep,
    split_and_perturb,
    sweep,
    trace_to_csv,
)
from bottleneck_lab.expfamily import ExpBackend, ExpFamilyModel
from bottleneck_lab.solvers import DEFAULT_MAX_ITER, TableBackend, solve

from conftest import random_encoder, random_problem
from oracles import binary_overlap5, trace_from_csv

# First phase transition of the demo problem per framework (refined by the
# stability module and pinned by its tests); used here only to pick betas
# clearly on either side.
FIRST_SPLIT_IB = 4.443238126


class TestGrid:
    def test_log_grid_endpoints(self):
        g = log_grid(0.25, 64.0, 400)
        assert g[0] == pytest.approx(0.25, abs=1e-15)
        assert g[-1] == pytest.approx(64.0, abs=1e-12)
        assert len(g) == 400
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_log_grid_validation(self):
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_grid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_grid(1.0, 2.0, 1)
        for lo, hi in [(0.25, np.inf), (np.nan, 2.0), (0.25, np.nan)]:
            with pytest.raises(ValueError, match="beta grid needs finite"):
                log_grid(lo, hi, 4)


class TestSplitAndPerturb:
    def test_zero_eps_gives_exact_halves(self, rng):
        enc = rng.dirichlet(np.ones(3), size=4)
        children = split_and_perturb(enc, 0.0, rng)
        assert children.shape == (4, 6)
        np.testing.assert_array_equal(children[:, 0::2], enc / 2.0)
        np.testing.assert_array_equal(children[:, 1::2], enc / 2.0)

    def test_rows_stay_normalized(self, rng):
        enc = rng.dirichlet(np.ones(2), size=5)
        children = split_and_perturb(enc, 1e-3, rng)
        np.testing.assert_allclose(children.sum(axis=1), 1.0, atol=1e-14)
        # noise is multiplicative and small
        np.testing.assert_allclose(children[:, 0::2], enc / 2.0, rtol=3e-3)

    def test_deterministic_given_stream(self, rng):
        enc = rng.dirichlet(np.ones(2), size=5)
        a = split_and_perturb(enc, 1e-3, np.random.default_rng([7, 3]))
        b = split_and_perturb(enc, 1e-3, np.random.default_rng([7, 3]))
        np.testing.assert_array_equal(a, b)

    def test_negative_eps_rejected(self, rng):
        with pytest.raises(ValueError):
            split_and_perturb(np.ones((2, 1)), -0.1, rng)

    @pytest.mark.parametrize("eps", [1.0, 1.01, 5.0, np.nan])
    def test_eps_of_one_or_more_rejected(self, eps, rng):
        """Cells are scaled by ``1 + eps * u`` with ``u`` in [-1, 1): from
        ``eps = 1`` on, a factor can reach zero or go negative, so the
        split refuses such an ``eps`` (and NaN) instead of handing the
        solver an encoder it rejects; just below one every cell stays
        positive."""
        with pytest.raises(ValueError, match="eps must be >= 0 and < 1"):
            split_and_perturb(np.ones((2, 1)), eps, rng)
        enc = rng.dirichlet(np.ones(3), size=50)
        assert split_and_perturb(enc, 0.999, rng).min() > 0.0


class TestMerge:
    def test_exact_split_merges_back(self, rng):
        # beta past the first transition so the two clusters are distinct
        problem = binary_overlap5()
        state, _ = solve(problem, 8.0, "ib",
                         init_encoder=random_encoder(rng, problem.n_x, 2))
        assert np.max(np.abs(state.decoder[0] - state.decoder[1])) > 1e-2
        children = split_and_perturb(state.encoder, 0.0, rng)
        dup = np.repeat(state.decoder, 2, axis=0)
        merged = merge_close_clusters(children, dup,
                                      np.repeat(state.marginal, 2) / 2.0,
                                      merge_tol=1e-4)
        np.testing.assert_allclose(merged, state.encoder, atol=1e-15)

    def test_distinct_rows_kept_and_mass_conserved(self, rng):
        enc = rng.dirichlet(np.ones(3), size=4)
        decoder = np.array([[0.9, 0.1], [0.5, 0.5], [0.100001, 0.899999]])
        marginal = np.full(3, 1 / 3)
        merged = merge_close_clusters(enc, decoder, marginal, merge_tol=1e-4)
        assert merged.shape == (4, 3)
        np.testing.assert_allclose(merged.sum(axis=1), enc.sum(axis=1),
                                   atol=1e-15)

    def test_close_rows_combine(self):
        enc = np.array([[0.6, 0.4], [0.2, 0.8]])
        decoder = np.array([[0.30, 0.70], [0.30 + 1e-6, 0.70 - 1e-6]])
        merged = merge_close_clusters(enc, decoder, np.array([0.4, 0.6]),
                                      merge_tol=1e-4)
        np.testing.assert_allclose(merged, [[1.0], [1.0]])

    def test_zero_mass_groups_dropped(self):
        enc = np.array([[1.0, 0.0], [1.0, 0.0]])
        decoder = np.array([[0.3, 0.7], [0.9, 0.1]])
        merged = merge_close_clusters(enc, decoder, np.array([1.0, 0.0]),
                                      merge_tol=1e-4)
        assert merged.shape == (2, 1)


@pytest.fixture(scope="module")
def demo_sweep():
    problem = binary_overlap5()
    betas = log_grid(0.5, 8.0, 40)
    trace, states = sweep(problem, "ib", betas, split=SplitConfig(seed=0))
    return problem, betas, trace, states


@pytest.fixture(scope="module")
def small_trace():
    problem = binary_overlap5()
    trace, _ = sweep(problem, "ib", log_grid(2.0, 6.0, 8),
                     split=SplitConfig(seed=1))
    return trace


class TestSweep:
    def test_record_alignment_and_sanity(self, demo_sweep):
        problem, betas, trace, states = demo_sweep
        assert len(trace.records) == len(betas) == len(states)
        np.testing.assert_allclose(trace.betas, betas)
        for record, state in zip(trace.records, states):
            assert record.converged
            assert record.effective_clusters == state.effective_clusters()
            assert record.decoder.shape == state.decoder.shape
            assert -1e-12 <= record.i_y <= problem.mutual_information + 1e-9
            assert record.i_x >= -1e-12

    def test_crosses_first_transition(self, demo_sweep):
        _, betas, trace, _ = demo_sweep
        counts = trace.column("effective_clusters")
        assert counts[0] == 1
        assert counts[-1] >= 2
        # the count increase happens at the grid step containing the known
        # critical beta
        jump = int(np.flatnonzero(np.diff(counts) > 0)[0])
        assert betas[jump] <= FIRST_SPLIT_IB * 1.02
        assert betas[jump + 1] >= FIRST_SPLIT_IB * 0.98

    def test_split_realized_iff_past_critical(self):
        """Perturbed cluster copies separate after solving only above the
        transition; below it they re-merge."""
        problem = binary_overlap5()
        state, _ = solve(problem, 4.0, "ib", n_clusters=1)
        for beta, expect_split in ((4.3, False), (4.6, True)):
            children = split_and_perturb(state.encoder, 1e-3,
                                         np.random.default_rng(3))
            solved, _ = solve(problem, beta, "ib", init_encoder=children,
                              tol=1e-12)
            gap = np.max(np.abs(solved.decoder[0] - solved.decoder[1]))
            assert (gap > 1e-4) == expect_split

    def test_bit_reproducible(self):
        problem = binary_overlap5()
        betas = log_grid(0.5, 6.0, 12)
        t1, _ = sweep(problem, "dual", betas, split=SplitConfig(seed=5))
        t2, _ = sweep(problem, "dual", betas, split=SplitConfig(seed=5))
        for a, b in zip(t1.records, t2.records):
            assert a.beta == b.beta
            assert a.i_x == b.i_x and a.i_y == b.i_y
            assert a.functional == b.functional
            np.testing.assert_array_equal(a.decoder, b.decoder)

    def test_grid_validation(self):
        problem = binary_overlap5()
        with pytest.raises(ValueError):
            sweep(problem, "ib", [2.0, 1.0])
        with pytest.raises(ValueError):
            sweep(problem, "ib", [])
        # NaN passes both the sign and the ordering test
        for betas in ([1.0, np.nan, 3.0], [1.0, 2.0, np.inf], [np.nan, 2.0]):
            with pytest.raises(ValueError, match="betas must be finite"):
                sweep(problem, "ib", betas)

    @pytest.mark.parametrize("merge_tol", [0.0, -1e-4, np.nan])
    def test_merge_tol_must_be_positive(self, merge_tol):
        """At 0 not even identical split children merge, so each grid
        point would double the clusters."""
        backend = TableBackend(binary_overlap5(), "ib")
        with pytest.raises(ValueError, match="merge_tol must be positive"):
            run_sweep(backend, [1.0, 2.0], SplitConfig(merge_tol=merge_tol),
                      1e-10, DEFAULT_MAX_ITER)


@pytest.fixture
def narrowing_merges(monkeypatch):
    """Whether each merge of a sweep narrowed the encoder, in order."""
    narrowed = []

    def counting(encoder, *args):
        merged = merge_close_clusters(encoder, *args)
        narrowed.append(merged.shape[1] != encoder.shape[1])
        return merged

    monkeypatch.setattr(annealing, "merge_close_clusters", counting)
    return narrowed


class TestStateWork:
    """A sweep derives one state per solve, plus one per merge that
    narrows the encoder, and builds no state it does not read."""

    BETAS = log_grid(2.0, 16.0, 12)  # merges narrow below each transition

    @pytest.mark.parametrize("solver", ["ib", "dual", "reduced"])
    def test_derivations(self, solver, narrowing_merges):
        problem = binary_overlap5()
        backend = (ExpBackend(ExpFamilyModel.from_conditional(problem))
                   if solver == "reduced" else TableBackend(problem, solver))
        derived = []
        original = backend.derive

        def counting(encoder, beta):
            derived.append(beta)
            return original(encoder, beta)

        backend.derive = counting
        run_sweep(backend, self.BETAS, SplitConfig(), 1e-10,
                  DEFAULT_MAX_ITER)
        assert len(narrowing_merges) == self.BETAS.size
        assert any(narrowing_merges) and not all(narrowing_merges)
        assert len(derived) == self.BETAS.size + sum(narrowing_merges)

    def test_dual_sweep_decodes_only_used_states(self, monkeypatch,
                                                 narrowing_merges):
        """Each dual step normalizes its decoder once, through the one
        ``_decode``; beyond the steps, only the solved and the narrowed
        states do."""
        calls = []
        original = solvers._decode

        def counting(framework, *args):
            calls.append(framework)
            return original(framework, *args)

        monkeypatch.setattr(solvers, "_decode", counting)
        trace, _ = sweep(binary_overlap5(), "dual", self.BETAS)
        assert len(calls) == (sum(trace.column("n_iterations"))
                              + self.BETAS.size + sum(narrowing_merges))


class TestSerialization:
    def test_csv_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace_to_csv(small_trace, path)
        back = trace_from_csv(path)
        assert back.framework == small_trace.framework
        assert back.n_y == small_trace.n_y
        for a, b in zip(small_trace.records, back.records):
            assert a.beta == b.beta and a.i_x == b.i_x and a.i_y == b.i_y
            assert a.functional == b.functional
            assert a.n_iterations == b.n_iterations
            assert a.effective_clusters == b.effective_clusters
            assert a.converged == b.converged
            np.testing.assert_array_equal(a.decoder, b.decoder)

    def test_csv_export_is_stable(self, small_trace, tmp_path):
        """export -> import -> export reproduces the file byte for byte."""
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace_to_csv(small_trace, p1)
        trace_to_csv(trace_from_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_schema(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace_to_csv(small_trace, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:9] == ["framework", "beta", "i_x", "i_y", "functional",
                              "n_iterations", "effective_clusters",
                              "converged", "units"]
        assert header[9].startswith("dec_xhat0_y")
        width = max(r.decoder.shape[0] for r in small_trace.records)
        assert len(header) == 9 + width * small_trace.n_y
        # units column says nats on every row
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[8] == "nats"

    def test_ragged_decoder_cells(self, tmp_path):
        """Records with fewer clusters than the widest leave empty cells."""
        problem = binary_overlap5()
        trace, _ = sweep(problem, "ib", [4.0, 4.6],
                         split=SplitConfig(seed=0))
        counts = [r.effective_clusters for r in trace.records]
        assert counts == [1, 2]
        path = tmp_path / "t.csv"
        trace_to_csv(trace, path)
        first_row = path.read_text().splitlines()[1].split(",")
        assert first_row[-2:] == ["", ""]
        back = trace_from_csv(path)
        assert [r.decoder.shape[0] for r in back.records] == counts
