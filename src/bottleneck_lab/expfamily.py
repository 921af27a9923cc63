"""Reduced-dimension prediction-side solver for exponential-family rules.

When the rule has the log-linear form

    p(y | x) = exp(-sum_r params[y, r] * features[x, r] - log_normalizer(x))

the geometric decoder stays inside the same family (the paper's claim
(iii)): a cluster is described by the d expected features
``A_beta[c] = E_{p(x|c)} features[x]`` and its decoder row by the d expected
multipliers ``lam_beta[c] = E_{p(y|c)} params[y]`` plus a normalizer.  So
the reduced solver is the dual table step on the factor ``W = features``,
``V = -params`` of the log-rule ``W @ V.T - log_normalizer``, on the table
``[p(x) A(x) | p(x)]`` in place of ``[p(x) log p(y|x) | p(x)]``: it costs
``O(n_x k d + k n_y d)`` and never forms the ``n_x x n_y`` rule table.
What does read the rule (the overflow check, the log-normalizers and
``I(Y;Xhat)``) streams over it in row blocks of about ``BLOCK_CELLS``
cells, so the model and its solves hold no array of ``n_x * n_y`` cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .annealing import AnnealTrace, SplitConfig, run_sweep
from .probability import (
    DistributionError,
    JointDistribution,
    as_finite,
    as_marginal,
    logsumexp,
    mutual_information,  # noqa: F401  (perfbench/tracing.py patches it)
    softmax,
)
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BottleneckState,
    SolveReport,
    TableBackend,
    fixed_point,
)

#: Cells of the ``(n_x, n_y)`` log-rule in one row block: 163 rows at
#: ``n_y = 200``, and the two-row minimum once ``n_y`` exceeds half of it.
BLOCK_CELLS = 2 ** 15


@dataclass
class ExpFamilyModel:
    """A rule in log-linear form plus the input prior.

    ``features`` is ``(n_x, d)`` (the statistics ``A_r(x)``), ``params`` is
    ``(n_y, d)`` (the multipliers ``lam_r(y)``); ``d = 0`` is legal and
    describes the uniform rule.  Row ``x`` of the rule is the softmax of
    ``-features[x] @ params.T``, i.e. the per-``x`` normalizer is

        ``log_normalizer(x) = log sum_y exp(-sum_r params[y,r] features[x,r])``

    ``features``, ``params`` and their products must be finite.  ``p_x``
    defaults to uniform; a given one is checked and renormalized by
    :func:`~bottleneck_lab.probability.as_marginal`.
    """

    features: np.ndarray       # (n_x, d)
    params: np.ndarray         # (n_y, d)
    p_x: np.ndarray | None = None  # (n_x,)

    def __post_init__(self):
        self.features = as_finite(self.features, "features")
        self.params = as_finite(self.params, "params")
        if self.features.shape[1] != self.params.shape[1]:
            raise DistributionError(
                f"feature dimension mismatch: features are "
                f"{self.features.shape[1]}-D, params {self.params.shape[1]}-D")
        self._log_normalizers = np.empty(self.n_x)
        for rows, block in self._log_rule_blocks():
            finite = np.isfinite(block)
            if not finite.all():
                x, y = np.argwhere(~finite)[0]
                raise DistributionError(
                    f"features[{rows.start + x}] @ params[{y}] is not finite")
            self._log_normalizers[rows] = logsumexp(block, axis=1)
        self.p_x = as_marginal(self.p_x, "p_x", self.n_x)

    @property
    def n_x(self) -> int:
        return self.features.shape[0]

    @property
    def n_y(self) -> int:
        return self.params.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def _log_rule_blocks(self):
        """Yield ``(rows, -features[rows] @ params.T)``, the unnormalized
        log rule in row blocks of about :data:`BLOCK_CELLS` cells.

        A block holds at least two rows, and a last lone row joins the
        block before it: numpy hands a one-row product to BLAS's
        matrix-vector kernel, whose last bits differ from those of the
        matrix-matrix kernel that one full product uses.
        """
        n_x = self.n_x
        step = max(2, BLOCK_CELLS // self.n_y)
        start = 0
        while start < n_x:
            stop = start + step
            if stop == n_x - 1:
                stop = n_x
            rows = slice(start, stop)
            with np.errstate(over="ignore", invalid="ignore"):
                block = -self.features[rows] @ self.params.T
            yield rows, block
            start = stop

    def _rule_blocks(self):
        """Yield ``(rows, rule[rows])``: each log-rule block softmaxed in
        place, row by row."""
        for rows, block in self._log_rule_blocks():
            yield rows, softmax(block, 1, out=block)

    def log_normalizers(self) -> np.ndarray:
        """Per-input log-partition values (n_x,), built with the model."""
        return self._log_normalizers

    @cached_property
    def rule(self) -> np.ndarray:
        """The rule rows ``p(y|x)`` (n_x, n_y), assembled from the row
        blocks for :meth:`reconstruct`; no solve or observable reads it.

        Cells that underflow stay zero; only :meth:`reconstruct` rejects
        them.
        """
        rule = np.empty((self.n_x, self.n_y))
        for rows, block in self._rule_blocks():
            rule[rows] = block
        return rule

    def label_joint(self, encoder: np.ndarray) -> np.ndarray:
        """``p(xhat, y) = sum_x p(x) p(xhat|x) p(y|x)`` (k, n_y) of an
        ``(n_x, k)`` encoder, summed over the row blocks, so it holds one
        block of rule rows at a time."""
        joint = np.zeros((encoder.shape[1], self.n_y))
        for rows, block in self._rule_blocks():
            joint += (encoder[rows] * self.p_x[rows, None]).T @ block
        return joint

    @cached_property
    def mean_log_normalizer(self) -> float:
        """``E_{p_x}[log_normalizer(x)]``, built once per model."""
        return float(self.p_x @ self.log_normalizers())

    def reconstruct(self) -> JointDistribution:
        """Assemble the validated full-table problem this model describes."""
        return JointDistribution.from_conditional(self.rule, p_x=self.p_x,
                                                  smoothing_epsilon=0.0)

    @classmethod
    def from_conditional(cls, problem: JointDistribution) -> "ExpFamilyModel":
        """The canonical log-linear form of a two-label problem.

        ``d = 1``, multipliers pinned to ``(0, 1)`` (the parametrization has
        a gauge freedom, fixed here), and
        ``A(x) = log p(y0|x) - log p(y1|x)``, which reproduces any strictly
        positive two-label rule exactly.
        """
        if problem.n_y != 2:
            raise ValueError(
                "the canonical construction handles exactly two labels; "
                f"got {problem.n_y}")
        log_rule = problem.log_rule
        return cls(features=(log_rule[:, 0] - log_rule[:, 1])[:, None],
                   params=np.array([[0.0], [1.0]]), p_x=problem.p_x)


class ExpBackend(TableBackend):
    """The reduced solver of one model: the dual table backend on the
    factor ``W = features``, ``V = -params`` of the model's log-rule, so
    its table is ``[p(x) A(x) | p(x)]`` (see
    :class:`bottleneck_lab.solvers.TableBackend`).

    Its states are dual :class:`~bottleneck_lab.solvers.BottleneckState`
    whose ``log_z`` is the decoder's log-partition over the unnormalized
    log rule ``-features @ params.T``, and its observables are
    ``state_observables(model, state)``.  Sweeps start it from the same
    one-cluster encoder and noise streams as the full-table backend, so
    sweeps of a model and of its reconstructed table stay on matching
    branches.
    """

    def __init__(self, model: ExpFamilyModel):
        self.framework = "dual"
        self._lay_out(model, model.features, -model.params)

    observables = TableBackend.observables  # perfbench/tracing.py patches


def exp_solve(model: ExpFamilyModel, beta: float, **options
              ) -> tuple[BottleneckState, SolveReport]:
    """Fixed-``beta`` alternating updates in the reduced parametrization.

    Same contract as ``solve(..., framework='dual')`` (the options of
    ``solvers.fixed_point``, initialization and stopping rule), but the
    iteration touches only d-dimensional aggregates.  Its information
    values are ``state_observables(model, state)``, as for a table.
    """
    return fixed_point(ExpBackend(model), beta, **options)


def exp_sweep(model: ExpFamilyModel, betas, *,
              split: SplitConfig | None = None, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> tuple[AnnealTrace, list]:
    """Annealed sweep of the reduced solver over an ascending beta grid:
    the trace and the per-grid-point states, as ``run_sweep`` returns."""
    return run_sweep(ExpBackend(model), betas, split or SplitConfig(), tol,
                     max_iter)
