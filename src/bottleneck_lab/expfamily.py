"""Reduced-dimension prediction-side solver for exponential-family rules.

When the rule has the log-linear form

    p(y | x) = exp(-sum_r params[y, r] * features[x, r] - log_normalizer(x))

the geometric decoder stays inside the same family: a cluster is fully
described by the d expected features ``A_beta[c] = E_{p(x|c)} features[x]``
and its decoder row by the d expected multipliers
``lam_beta[c] = E_{p(y|c)} params[y]`` plus a scalar normalizer.  So the
reduced step is the dual table step's shape (cluster statistics, logits,
``-inf`` for dead clusters, one row softmax) on the ``d + 1`` columns of
``[p(x) A(x) | p(x)]`` in place of ``[p(x) log p(y|x) | p(x)]``: it costs
``O(n_x k d + k n_y d)`` and never forms the ``n_x x n_y`` rule table (the
model builds it once, for reporting ``I(Y;Xhat)``).
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
    entropy,
    logsumexp,
    mutual_information,
    smooth_rows,
)
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BottleneckState,
    Framework,
    SolveReport,
    _cluster_statistics,
    _row_softmax,
    cluster_label_joint,
    encoder_information,
    fixed_point,
    inverse_encoder,
)

#: Max absolute error allowed between a model's reconstructed rule and the
#: rule it was fit to.
RECONSTRUCTION_TOL = 1e-10


class ExactFitError(DistributionError):
    """The supplied features/params cannot reproduce the rule exactly."""


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
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.interactions())
        if not finite.all():
            x, y = np.argwhere(~finite)[0]
            raise DistributionError(
                f"features[{x}] @ params[{y}] is not finite")
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

    def interactions(self) -> np.ndarray:
        """``-features @ params.T``: the unnormalized log rule (n_x, n_y)."""
        return -self.features @ self.params.T

    def log_normalizers(self) -> np.ndarray:
        """Per-input log-partition values (n_x,)."""
        return logsumexp(self.interactions(), axis=1)

    @cached_property
    def rule(self) -> np.ndarray:
        """The rule rows ``p(y|x)`` (n_x, n_y), built once per model.

        Cells that underflow stay zero; only :meth:`reconstruct` rejects
        them.
        """
        inter = self.interactions()
        return smooth_rows(np.exp(inter - logsumexp(inter, axis=1)[:, None]),
                           0.0)

    @cached_property
    def table(self) -> np.ndarray:
        """``[p(x) A(x) | p(x)]`` (n_x, d + 1), the reduced step's table."""
        return np.column_stack([self.p_x[:, None] * self.features, self.p_x])

    @cached_property
    def mean_log_normalizer(self) -> float:
        """``E_{p_x}[log_normalizer(x)]``, built once per model."""
        return float(self.p_x @ self.log_normalizers())

    def reconstruct(self) -> JointDistribution:
        """Assemble the validated full-table problem this model describes."""
        return JointDistribution.from_conditional(self.rule, p_x=self.p_x,
                                                  smoothing_epsilon=0.0)

    @classmethod
    def from_conditional(cls, problem: JointDistribution,
                         features: np.ndarray | None = None,
                         params: np.ndarray | None = None
                         ) -> "ExpFamilyModel":
        """Fit (or verify) a log-linear form for an existing problem.

        With ``features``/``params`` omitted the canonical two-label
        construction is used: ``d = 1``, multipliers pinned to ``(0, 1)``
        (the parametrization has a gauge freedom, fixed here), and
        ``A(x) = log p(y0|x) - log p(y1|x)``, which reproduces any strictly
        positive two-label rule exactly.  Explicitly supplied forms are
        accepted only if they reproduce the rule within
        ``RECONSTRUCTION_TOL``; otherwise :class:`ExactFitError` reports
        the residual.
        """
        if (features is None) != (params is None):
            raise ValueError("supply features and params together or "
                             "neither")
        if features is None:
            if problem.n_y != 2:
                raise ValueError(
                    "automatic construction handles exactly two labels; "
                    f"got {problem.n_y} - supply features and params")
            log_rule = problem.log_rule
            features = (log_rule[:, 0] - log_rule[:, 1])[:, None]
            params = np.array([[0.0], [1.0]])
        model = cls(features=features, params=params, p_x=problem.p_x)
        residual = float(np.max(np.abs(model.reconstruct().rule
                                       - problem.rule)))
        if residual > RECONSTRUCTION_TOL:
            raise ExactFitError(
                f"the given {model.d}-D form cannot reproduce the rule: "
                f"max residual {residual:.3e}")
        return model


def _reduced_decode(params: np.ndarray, stats: np.ndarray):
    """``(cluster_features, decoder, log_decoder, log_z)`` from the cluster
    statistics on :attr:`ExpFamilyModel.table`: the expected features
    ``weights @ features``, the decoder rows and their log-partition, the
    normalizer of ``exp(-cluster_features @ params.T)``."""
    cluster_features = stats[:, :-1] / stats[:, -1:]
    unnorm = -cluster_features @ params.T
    log_z = logsumexp(unnorm, axis=1)
    log_decoder = unnorm - log_z[:, None]
    return cluster_features, np.exp(log_decoder), log_decoder, log_z


def _encoder_logits(neg_beta_features, log_marginal, beta, cluster_features,
                    cluster_params, normalizers) -> np.ndarray:
    """``log p(xhat) - beta * d[x, xhat]`` (n_x, k) in reduced form, up to
    the per-``x`` constant ``beta * log_normalizer(x)``."""
    return neg_beta_features @ cluster_params.T + (log_marginal + beta * (
        normalizers + np.sum(cluster_params * cluster_features, axis=1)))


@dataclass
class ClosedFormInformation:
    """Information quantities assembled from reduced aggregates only
    (plus the constants ``H(Y)`` and ``E[log_normalizer(x)]``).

    ``i_y`` here is the label-uncertainty form
    ``H(Y) - E[H(decoder row)]``; it coincides with the mutual information
    through the cluster variable only when the decoder-implied label
    marginal matches ``p_y``.
    """

    i_x: float
    i_y: float
    mean_distortion: float


def closed_information(model: ExpFamilyModel,
                       state: BottleneckState) -> ClosedFormInformation:
    """Evaluate the closed forms

    ``I_x  = beta * E[lam0_beta] - E_{p_x}[log Z_enc]``
    ``I_y  = H(Y) - E[sum_r lam_beta A_beta + lam0_beta]``
    ``E[d] = E_{p_x}[log_normalizer] - E[lam0_beta]``

    which hold exactly at consistent fixed points (the decoder entropy is
    linear in the expected statistics, and the expected-feature matching
    kills the cross term in ``I_x``).  The aggregates are recomputed from
    the state of :class:`ExpBackend`: ``A_beta = weights @ features``,
    ``lam_beta = decoder @ params`` and ``lam0_beta = log_z``.
    """
    m = state.marginal
    cluster_features = state.weights @ model.features
    cluster_params = state.decoder @ model.params
    with np.errstate(divide="ignore"):
        log_m = np.log(m)
    logits = _encoder_logits(-state.beta * model.features, log_m, state.beta,
                             cluster_features, cluster_params, state.log_z)
    log_z_encoder = logsumexp(logits, axis=1)
    mean_cluster_norm = float(m @ state.log_z)
    i_x = state.beta * mean_cluster_norm - float(model.p_x @ log_z_encoder)
    decoder_entropies = (np.sum(cluster_params * cluster_features, axis=1)
                         + state.log_z)
    i_y = entropy(model.p_x @ model.rule) - float(m @ decoder_entropies)
    mean_d = model.mean_log_normalizer - mean_cluster_norm
    return ClosedFormInformation(i_x=i_x, i_y=i_y, mean_distortion=mean_d)


class ExpBackend:
    """The reduced solver of one model, as a solver backend (see
    :class:`bottleneck_lab.solvers.TableBackend`).

    Its states are dual :class:`~bottleneck_lab.solvers.BottleneckState`
    whose ``log_z`` is the decoder's log-partition over the unnormalized
    log rule ``-features @ params.T``.  Sweeps start it from the same
    one-cluster encoder and noise streams as the full-table backend, so
    sweeps of a model and of its reconstructed table stay on matching
    branches.
    """

    framework = Framework.DUAL

    def __init__(self, model: ExpFamilyModel):
        self.model = model
        self.n_x, self.n_y = model.n_x, model.n_y

    def derive(self, encoder: np.ndarray, beta: float) -> BottleneckState:
        """The state implied by an encoder: the step's statistics and
        decode, plus the inverse encoder.

        Dead clusters get the prior as placeholder weights, exactly as in
        the full-table solver, so split/merge bookkeeping behaves
        identically.
        """
        model = self.model
        marginal, stats, _ = _cluster_statistics(encoder, model.table)
        _, decoder, log_decoder, log_z = _reduced_decode(model.params, stats)
        return BottleneckState(
            framework=Framework.DUAL, beta=float(beta), encoder=encoder,
            marginal=marginal,
            weights=inverse_encoder(encoder, model.p_x)[1],
            decoder=decoder, log_decoder=log_decoder, log_z=log_z)

    def stepper(self, beta: float):
        """The map ``step(encoder) -> next encoder`` at ``beta``, shaped as
        the table step: cluster statistics on the model's table, their
        reduced decode, the logits, ``-inf`` for dead clusters and one row
        softmax."""
        model, table = self.model, self.model.table
        neg_beta_features = -beta * model.features

        def step(encoder):
            _, stats, dead = _cluster_statistics(encoder, table)
            cluster_features, decoder, _, log_z = _reduced_decode(
                model.params, stats)
            logits = _encoder_logits(neg_beta_features, np.log(stats[:, -1]),
                                     beta, cluster_features,
                                     decoder @ model.params, log_z)
            if dead is not None:
                logits[:, dead] = -np.inf
            return _row_softmax(logits)

        return step

    def observables(self, state: BottleneckState
                    ) -> tuple[float, float, float, float]:
        """``(I(X;Xhat), I(Y;Xhat), E[d], functional)`` of a reduced state
        from its aggregates; ``I(Y;Xhat)`` is the one value that reads the
        rule rows."""
        model, marginal = self.model, state.marginal
        i_x = encoder_information(model.p_x, state.encoder, marginal)
        # E[d] before I(Y;Xhat): the model's first call frees its n_x x n_y
        # log-partition temporaries before it builds the rule rows.
        mean_d = model.mean_log_normalizer - float(marginal @ state.log_z)
        i_y = mutual_information(cluster_label_joint(model, state))
        return i_x, i_y, mean_d, i_x + state.beta * mean_d


def exp_solve(model: ExpFamilyModel, beta: float, **options
              ) -> tuple[BottleneckState, SolveReport]:
    """Fixed-``beta`` alternating updates in the reduced parametrization.

    Same contract as ``solve(..., framework='dual')`` (the options of
    ``solvers.fixed_point``, initialization and stopping rule), but the
    iteration touches only d-dimensional aggregates.  Its information
    values are ``ExpBackend(model).observables(state)``.
    """
    return fixed_point(ExpBackend(model), beta, **options)


def exp_sweep(model: ExpFamilyModel, betas, *,
              split: SplitConfig | None = None, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> tuple[AnnealTrace, list]:
    """Annealed sweep of the reduced solver over an ascending beta grid:
    the trace and the per-grid-point states, as ``run_sweep`` returns."""
    return run_sweep(ExpBackend(model), betas, split or SplitConfig(), tol,
                     max_iter)
