"""Reduced-dimension prediction-side solver for exponential-family rules.

When the rule has the log-linear form

    p(y | x) = exp(-sum_r params[y, r] * features[x, r] - log_normalizer(x))

the geometric decoder stays inside the same family: a cluster is fully
described by the d expected features ``A_beta[c] = E_{p(x|c)} features[x]``
and its decoder row by the d expected multipliers
``lam_beta[c] = E_{p(y|c)} params[y]`` plus a scalar normalizer.  The
alternating updates therefore close over d-dimensional aggregates: the
iteration here costs ``O(n_x k d + k n_y d)`` per step and never forms the
``n_x x n_y`` rule table (the model builds it once, for reporting
``I(Y;Xhat)``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .annealing import SplitConfig, run_sweep
from .probability import (
    DistributionError,
    JointDistribution,
    entropy,
    logsumexp,
    mutual_information,
    smooth_rows,
)
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ClusterCounts,
    FixedPointRun,
    Framework,
    SolveReport,
    cluster_label_joint,
    encoder_information,
    encoder_update,
    inverse_encoder,
    iterate,
    prepare_encoder,
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
    """

    features: np.ndarray  # (n_x, d)
    params: np.ndarray    # (n_y, d)
    p_x: np.ndarray       # (n_x,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.params = np.asarray(self.params, dtype=float)
        self.p_x = np.asarray(self.p_x, dtype=float)
        if self.features.ndim != 2 or self.params.ndim != 2:
            raise ValueError("features and params must be 2-D arrays")
        if self.features.shape[1] != self.params.shape[1]:
            raise ValueError(
                f"feature dimension mismatch: features are "
                f"{self.features.shape[1]}-D, params {self.params.shape[1]}-D")
        if self.p_x.shape != (self.features.shape[0],):
            raise ValueError("p_x length must match the number of inputs")
        if np.any(self.p_x <= 0.0):
            raise DistributionError("p_x must be strictly positive")
        if abs(self.p_x.sum() - 1.0) > 1e-9:
            raise DistributionError("p_x must sum to 1")

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


@dataclass
class ExpState(ClusterCounts):
    """Reduced snapshot of the prediction-side solver.

    All cluster quantities are derived from ``encoder``:
    ``cluster_features[c] = weights[c] @ features`` (expected statistics),
    ``cluster_params[c] = decoder[c] @ params`` (expected multipliers),
    and ``cluster_normalizers[c]`` the decoder log-partition.
    """

    beta: float
    encoder: np.ndarray              # (n_x, k)
    marginal: np.ndarray             # (k,)
    weights: np.ndarray              # (k, n_x)
    cluster_features: np.ndarray     # (k, d)
    cluster_params: np.ndarray       # (k, d)
    cluster_normalizers: np.ndarray  # (k,)
    log_decoder: np.ndarray          # (k, n_y)

    @property
    def decoder(self) -> np.ndarray:
        return np.exp(self.log_decoder)


def _effective_distortion(model: ExpFamilyModel,
                          state: ExpState) -> np.ndarray:
    """The (n_x, k) encoder-update cost in reduced form.

    Differs from the true per-pair prediction cost only by a per-``x``
    constant (the rule's own log-partition), which the softmax cancels.
    """
    offsets = state.cluster_normalizers + np.sum(
        state.cluster_params * state.cluster_features, axis=1)
    return model.features @ state.cluster_params.T - offsets[None, :]


def derive_exp_state(model: ExpFamilyModel, encoder: np.ndarray,
                     beta: float) -> ExpState:
    """Recompute every reduced quantity implied by an encoder.

    Dead clusters get the prior as placeholder weights, exactly as in the
    full-table solver, so split/merge bookkeeping behaves identically.
    """
    marginal, weights = inverse_encoder(encoder, model.p_x)
    cluster_features = weights @ model.features
    unnorm = -cluster_features @ model.params.T
    normalizers = logsumexp(unnorm, axis=1)
    log_decoder = unnorm - normalizers[:, None]
    return ExpState(beta=float(beta), encoder=encoder, marginal=marginal,
                    weights=weights, cluster_features=cluster_features,
                    cluster_params=np.exp(log_decoder) @ model.params,
                    cluster_normalizers=normalizers,
                    log_decoder=log_decoder)


def _reduced_functional(model: ExpFamilyModel,
                        state: ExpState) -> tuple[float, float, float]:
    """``(I(X;Xhat), E[d], functional)`` from reduced aggregates only."""
    i_x = encoder_information(model.p_x, state.encoder, state.marginal)
    mean_d = model.mean_log_normalizer - float(
        state.marginal @ state.cluster_normalizers)
    return i_x, mean_d, i_x + state.beta * mean_d


def _reduced_observables(model: ExpFamilyModel, state: ExpState
                         ) -> tuple[float, float, float, float]:
    """``(I(X;Xhat), I(Y;Xhat), E[d], functional)`` of a reduced state;
    ``I(Y;Xhat)`` is the one value that reads the rule rows."""
    i_x, mean_d, functional = _reduced_functional(model, state)
    i_y = mutual_information(cluster_label_joint(model, state))
    return i_x, i_y, mean_d, functional


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
                       state: ExpState) -> ClosedFormInformation:
    """Evaluate the closed forms

    ``I_x  = beta * E[lam0_beta] - E_{p_x}[log Z_enc]``
    ``I_y  = H(Y) - E[sum_r lam_beta A_beta + lam0_beta]``
    ``E[d] = E_{p_x}[log_normalizer] - E[lam0_beta]``

    which hold exactly at consistent fixed points (the decoder entropy is
    linear in the expected statistics, and the expected-feature matching
    kills the cross term in ``I_x``).
    """
    m = state.marginal
    with np.errstate(divide="ignore"):
        logits = (np.log(m)[None, :]
                  - state.beta * _effective_distortion(model, state))
    log_z_encoder = logsumexp(logits, axis=1)
    mean_cluster_norm = float(m @ state.cluster_normalizers)
    i_x = state.beta * mean_cluster_norm - float(model.p_x @ log_z_encoder)
    decoder_entropies = (np.sum(state.cluster_params * state.cluster_features,
                                axis=1) + state.cluster_normalizers)
    i_y = entropy(model.p_x @ model.rule) - float(m @ decoder_entropies)
    mean_d = model.mean_log_normalizer - mean_cluster_norm
    return ClosedFormInformation(i_x=i_x, i_y=i_y, mean_distortion=mean_d)


def exp_fixed_point(model: ExpFamilyModel, beta: float, *,
                    n_clusters: int | None = None,
                    init_encoder: np.ndarray | None = None,
                    rng: np.random.Generator | None = None,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    track_functional: bool = False
                    ) -> tuple[ExpState, FixedPointRun]:
    """The updates of :func:`exp_solve` without its report: the state
    rebuilt from the final encoder, and what the loop did."""
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    enc = prepare_encoder(model.n_x, n_clusters, init_encoder, rng)

    def step(encoder, traced):
        state = derive_exp_state(model, encoder, beta)
        functional = (_reduced_functional(model, state)[2] if traced
                      else None)
        return (encoder_update(state.marginal,
                               _effective_distortion(model, state), beta),
                functional)

    enc, run = iterate(step, enc, tol, max_iter, track_functional)
    return derive_exp_state(model, enc, beta), run


def exp_solve(model: ExpFamilyModel, beta: float, *,
              track_functional: bool = True, **options
              ) -> tuple[ExpState, SolveReport]:
    """Fixed-``beta`` alternating updates in the reduced parametrization.

    Same contract as ``solve(..., framework='dual')`` — identical options
    (those of :func:`exp_fixed_point`), initialization precedence, stopping
    rule, and report fields — but the iteration touches only d-dimensional
    aggregates.  The report's ``i_y`` is the mutual information through the
    cluster variable, assembled from the model's rule rows once, after the
    loop.
    """
    state, run = exp_fixed_point(model, beta,
                                 track_functional=track_functional, **options)
    return state, run.report(Framework.DUAL, beta,
                             _reduced_observables(model, state))


class ExpBackend:
    """Sweep backend in the reduced parametrization.

    Plugs into ``annealing.run_sweep`` with the same initial encoder and
    noise-stream shapes as the full-table backend, so sweeps of a model
    and of its reconstructed table stay on matching branches.
    """

    def __init__(self, model: ExpFamilyModel):
        self.model = model
        self.framework = Framework.DUAL
        self.n_y = model.n_y

    def initial_encoder(self) -> np.ndarray:
        return np.ones((self.model.n_x, 1))

    def rebuild(self, encoder: np.ndarray, beta: float) -> ExpState:
        return derive_exp_state(self.model, encoder, beta)

    def solve_from(self, state: ExpState, beta: float, tol: float,
                   max_iter: int):
        new_state, run = exp_fixed_point(self.model, beta,
                                         init_encoder=state.encoder, tol=tol,
                                         max_iter=max_iter)
        return new_state, run.n_iterations, run.converged

    def observables(self, state: ExpState) -> tuple[float, float, float]:
        i_x, i_y, _, functional = _reduced_observables(self.model, state)
        return i_x, i_y, functional


def exp_sweep_with_states(model: ExpFamilyModel, betas, *,
                          split: SplitConfig | None = None,
                          tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER):
    """Annealed sweep of the reduced solver (trace plus per-point states)."""
    return run_sweep(ExpBackend(model), betas, split or SplitConfig(), tol,
                     max_iter)


def exp_sweep(model: ExpFamilyModel, betas, *,
              split: SplitConfig | None = None, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER):
    """Annealed sweep of the reduced solver over an ascending beta grid."""
    trace, _ = exp_sweep_with_states(model, betas, split=split, tol=tol,
                                     max_iter=max_iter)
    return trace
