"""Alternating-minimization solvers for the two bottleneck frameworks.

Both frameworks compress an input ``X`` into a cluster variable ``Xhat``
through a soft encoder ``p(xhat|x)`` and score the compression against the
label ``Y`` of a fixed rule ``p(y|x)``:

* ``ib``   minimizes ``I(X;Xhat) - beta * I(Y;Xhat)``.  Its per-pair cost is
  ``KL(p(y|x) || dec(y|xhat))`` and the optimal decoder is the Bayes mixture
  of rule rows.
* ``dual`` swaps the KL arguments: the cost is ``KL(dec(y|xhat) || p(y|x))``
  and the functional is ``I(X;Xhat) + beta * E[cost]``.  The optimal decoder
  becomes the normalized *geometric* mixture of rule rows, which puts the
  emphasis on predicting the label rather than summarizing it.

Matrix conventions (see :mod:`bottleneck_lab.probability`): encoders are
``(n_x, k)`` row-stochastic, inverse encoders ("weights") are ``(k, n_x)``,
decoders are ``(k, n_y)``.  Clusters whose marginal mass hits exactly zero
freeze: their ``log p(xhat)`` term is ``-inf``, so the softmax encoder update
keeps their column at zero without renormalizing them away — cluster indices
stay stable for the whole run.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import xlogy

from .probability import JointDistribution, logsumexp, mutual_information

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# Clusters with marginal mass below this are reported as dead/frozen.
DEAD_CLUSTER_MASS = 1e-12


class Framework(str, Enum):
    """Which distortion/decoder pair the solver alternates on."""

    IB = "ib"
    DUAL = "dual"


def as_framework(value) -> Framework:
    """Coerce ``'ib'`` / ``'dual'`` / ``Framework`` to a Framework member."""
    if isinstance(value, Framework):
        return value
    try:
        return Framework(str(value).lower())
    except ValueError:
        raise ValueError(
            f"unknown framework {value!r}; expected 'ib' or 'dual'") from None


@dataclass
class BottleneckState:
    """One self-consistent snapshot of a solver.

    ``marginal``, ``weights`` and ``decoder`` are always the ones *derived*
    from ``encoder`` (and the problem), so downstream identities that assume
    chain consistency hold at machine precision, converged or not.

    ``log_z`` is dual-only: the per-cluster log-normalizer of the geometric
    decoder (``None`` for ``ib`` states).
    """

    framework: Framework
    beta: float
    encoder: np.ndarray        # (n_x, k)
    marginal: np.ndarray       # (k,)
    weights: np.ndarray        # (k, n_x) rows p(x | xhat)
    decoder: np.ndarray        # (k, n_y)
    log_decoder: np.ndarray    # (k, n_y)
    log_z: np.ndarray | None = None

    @property
    def n_clusters(self) -> int:
        return self.encoder.shape[1]

    def alive(self) -> np.ndarray:
        """Boolean mask of clusters carrying mass above the dead threshold."""
        return self.marginal > DEAD_CLUSTER_MASS

    def effective_clusters(self) -> int:
        return int(np.count_nonzero(self.alive()))


@dataclass
class SolveReport:
    """Summary of one ``solve`` call.  All information values in nats."""

    framework: Framework
    beta: float
    converged: bool
    n_iterations: int
    i_x: float
    i_y: float
    functional: float
    expected_distortion: float
    encoder_delta: float
    functional_trace: np.ndarray | None = None


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------

def inverse_encoder(encoder: np.ndarray,
                    p_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(marginal, weights)`` implied by an encoder: ``p(xhat)`` and the
    ``(k, n_x)`` rows ``p(x | xhat)``.

    Dead clusters (zero marginal) get the prior ``p_x`` as placeholder
    weights so their decoder rows stay well-defined; they carry no mass, so
    nothing downstream depends on the placeholder.
    """
    marginal = encoder.T @ p_x
    joint = encoder * p_x[:, None]
    # Same arithmetic without the slower masked indexing when every cluster
    # is alive; ``min`` propagates NaN, so this is ``(marginal > 0).all()``.
    if marginal.min() > 0.0:
        joint /= marginal
    else:
        alive = marginal > 0.0
        joint[:, alive] /= marginal[alive]
        joint[:, ~alive] = p_x[:, None]
    return marginal, joint.T


def _bayes_decoder(problem: JointDistribution, weights: np.ndarray):
    """``(decoder, log_decoder, None)`` of the ib update: the mixture
    ``weights @ rule`` of rule rows."""
    decoder = weights @ problem.rule
    return decoder, np.log(decoder), None


def _geometric_decoder(problem: JointDistribution, weights: np.ndarray):
    """``(decoder, log_decoder, log_z)`` of the dual update: the normalized
    geometric mixture ``exp(weights @ log_rule - log_z)`` of rule rows."""
    log_unnorm = weights @ problem.log_rule
    log_z = logsumexp(log_unnorm, axis=1)
    log_decoder = log_unnorm - log_z[:, None]
    return np.exp(log_decoder), log_decoder, log_z


def _ib_cost(problem: JointDistribution, decoder: np.ndarray,
             log_decoder: np.ndarray) -> np.ndarray:
    """``d[x, c] = KL(rule row x || decoder row c)``."""
    return (problem.rule_neg_entropy[:, None]
            - problem.rule @ log_decoder.T)


def _dual_cost(problem: JointDistribution, decoder: np.ndarray,
               log_decoder: np.ndarray) -> np.ndarray:
    """``d[x, c] = KL(decoder row c || rule row x)``."""
    dec_neg_entropy = xlogy(decoder, decoder).sum(axis=1)
    return dec_neg_entropy - problem.log_rule @ decoder.T


#: Per framework, the decoder built from the weights and the per-pair cost
#: built from that decoder.  ``derive_state`` and the solver step share them.
_UPDATES = {Framework.IB: (_bayes_decoder, _ib_cost),
            Framework.DUAL: (_geometric_decoder, _dual_cost)}


def derive_state(problem: JointDistribution, framework,
                 encoder: np.ndarray, beta: float) -> BottleneckState:
    """Recompute marginal / weights / decoder implied by an encoder."""
    framework = as_framework(framework)
    marginal, weights = inverse_encoder(encoder, problem.p_x)
    decode = _UPDATES[framework][0]
    decoder, log_decoder, log_z = decode(problem, weights)
    return BottleneckState(framework=framework, beta=float(beta),
                           encoder=encoder, marginal=marginal,
                           weights=weights, decoder=decoder,
                           log_decoder=log_decoder, log_z=log_z)


def distortion_matrix(problem: JointDistribution,
                      state: BottleneckState) -> np.ndarray:
    """The ``(n_x, k)`` per-pair cost of the state's framework:
    ``KL(rule row x || decoder row c)`` for ``ib``,
    ``KL(decoder row c || rule row x)`` for ``dual``."""
    cost = _UPDATES[state.framework][1]
    return cost(problem, state.decoder, state.log_decoder)


def encoder_update(marginal: np.ndarray, distortion: np.ndarray,
                   beta: float) -> np.ndarray:
    """Softmax re-estimation ``p(xhat|x) ∝ p(xhat) * exp(-beta * d[x, xhat])``.

    Computed in log space with a per-row max shift; zero-mass clusters give
    ``log p(xhat) = -inf`` and therefore stay at exactly zero.
    """
    # Without a zero mass there is no log(0) to silence, and np.errstate
    # would cost about a tenth of a table step.
    if np.count_nonzero(marginal) == marginal.size:
        log_marginal = np.log(marginal)
    else:
        with np.errstate(divide="ignore"):
            log_marginal = np.log(marginal)
    logits = log_marginal - beta * distortion
    logits -= logits.max(axis=1, keepdims=True)
    enc = np.exp(logits)
    enc /= enc.sum(axis=1, keepdims=True)
    return enc


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def encoder_information(p_x: np.ndarray, encoder: np.ndarray,
                        marginal: np.ndarray) -> float:
    """``I(X; Xhat)`` of ``p_x`` with a row-stochastic encoder, in nats."""
    alive = marginal > 0.0
    enc = encoder[:, alive]
    per_cell = xlogy(enc, enc) - enc * np.log(marginal[alive])[None, :]
    return float(p_x @ per_cell.sum(axis=1))


def cluster_label_joint(problem, state) -> np.ndarray:
    """Joint ``p(xhat, y)`` through the Markov chain ``Xhat - X - Y``.

    Built from the inverse encoder and the *rule* (i.e. the Bayes decoder),
    never from the framework decoder, so it is the true label joint for
    either framework, and for the reduced solver (whose model carries
    ``rule`` rows too).
    """
    return state.marginal[:, None] * (state.weights @ problem.rule)


def information_point(problem: JointDistribution,
                      state: BottleneckState) -> tuple[float, float]:
    """``(I(X;Xhat), I(Y;Xhat))`` of a state, in nats."""
    i_x = encoder_information(problem.p_x, state.encoder, state.marginal)
    i_y = mutual_information(cluster_label_joint(problem, state))
    return i_x, i_y


def state_observables(problem: JointDistribution, state: BottleneckState,
                      distortion: np.ndarray | None = None
                      ) -> tuple[float, float, float, float]:
    """``(I(X;Xhat), I(Y;Xhat), E[d], functional)`` of a state, in nats.

    ``E[d]`` is the mean per-pair cost ``E_{p(x) p(xhat|x)}[d(x, xhat)]``
    (``distortion`` is the state's cost matrix, when the caller has it);
    the functional is what each framework minimizes:

    ``ib``:   ``I(X;Xhat) - beta * I(Y;Xhat)``
    ``dual``: ``I(X;Xhat) + beta * E[KL(decoder || rule)]``
    """
    i_x, i_y = information_point(problem, state)
    if distortion is None:
        distortion = distortion_matrix(problem, state)
    mean_d = float(np.sum(problem.p_x[:, None] * state.encoder * distortion))
    if state.framework is Framework.IB:
        return i_x, i_y, mean_d, i_x - state.beta * i_y
    return i_x, i_y, mean_d, i_x + state.beta * mean_d


def expected_distortion(problem: JointDistribution,
                        state: BottleneckState) -> float:
    """Mean per-pair cost ``E_{p(x) p(xhat|x)}[d(x, xhat)]``."""
    return state_observables(problem, state)[2]


def functional_value(problem: JointDistribution,
                     state: BottleneckState) -> float:
    """The quantity each framework minimizes, at this state."""
    return state_observables(problem, state)[3]


@dataclass
class DualDistortionSplit:
    """Exact two-part split of the mean dual cost.

    ``label_info_shift``    = ``I(Xhat;Yhat) - I(X;Yhat)`` where ``Yhat`` is
    the label *predicted* through encoder + decoder.  ``prediction_mismatch``
    = ``E_{p(x)}[KL(predicted row x || rule row x)] >= 0``.  Their sum equals
    ``E[KL(decoder || rule)]`` identically for any consistent state.
    """

    total: float
    label_info_shift: float
    prediction_mismatch: float


def dual_distortion_split(problem: JointDistribution,
                          state: BottleneckState) -> DualDistortionSplit:
    p_x = problem.p_x
    predicted = state.encoder @ state.decoder          # (n_x, n_y) rows
    i_pred_clusters = mutual_information(
        state.marginal[:, None] * state.decoder)
    i_pred_inputs = mutual_information(p_x[:, None] * predicted)
    shift = i_pred_clusters - i_pred_inputs
    mismatch = float(np.sum(
        p_x[:, None] * (xlogy(predicted, predicted)
                        - predicted * problem.log_rule)))
    return DualDistortionSplit(total=shift + mismatch,
                               label_info_shift=shift,
                               prediction_mismatch=mismatch)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def default_encoder(n_x: int, n_clusters: int) -> np.ndarray:
    """Deterministic broad initializer: cycling peaks mixed with uniform."""
    enc = np.full((n_x, n_clusters), 0.5 / n_clusters)
    enc[np.arange(n_x), np.arange(n_x) % n_clusters] += 0.5
    return enc


def prepare_encoder(n_x: int, n_clusters: int | None,
                    init_encoder: np.ndarray | None,
                    rng: np.random.Generator | None) -> np.ndarray:
    """Validated starting encoder under the shared precedence rule:
    ``init_encoder`` if given, else random Dirichlet rows from ``rng`` if
    given, else the deterministic broad mix."""
    if init_encoder is not None:
        enc = np.asarray(init_encoder, dtype=float).copy()
        if enc.ndim != 2 or enc.shape[0] != n_x:
            raise ValueError(
                f"init_encoder must have shape ({n_x}, k); got {enc.shape}")
        row_sums = enc.sum(axis=1, keepdims=True)
        if np.any(row_sums <= 0.0) or enc.min() < 0.0:
            raise ValueError("init_encoder rows must be non-negative "
                             "with positive mass")
        return enc / row_sums
    k = n_clusters if n_clusters is not None else n_x
    if k < 1:
        raise ValueError("n_clusters must be >= 1")
    if rng is not None:
        return rng.dirichlet(np.ones(k), size=n_x)
    return default_encoder(n_x, k)


def iterate(step, encoder: np.ndarray, tol: float, max_iter: int,
            trace: bool):
    """The fixed-point loop shared by every solver.

    ``step(encoder, traced)`` returns the next encoder and, when ``traced``,
    the functional at ``encoder`` (else ``None``).  Stops once a step moves
    the encoder by at most ``tol`` in sup norm, or after ``max_iter`` steps.
    Returns ``(encoder, n_iterations, delta, converged, functionals)``, where
    ``functionals`` lists the traced values (``None`` unless ``trace``).
    """
    functionals: list[float] | None = [] if trace else None
    delta = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_encoder, functional = step(encoder, trace)
        if trace:
            functionals.append(functional)
        delta = float(np.abs(new_encoder - encoder).max())
        encoder = new_encoder
        if delta <= tol:
            converged = True
            break
    return encoder, iterations, delta, converged, functionals


def solve(problem: JointDistribution, beta: float, framework,
          *, n_clusters: int | None = None,
          init_encoder: np.ndarray | None = None,
          rng: np.random.Generator | None = None,
          tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
          track_functional: bool = True
          ) -> tuple[BottleneckState, SolveReport]:
    """Run the alternating updates at a fixed ``beta`` until the encoder
    moves less than ``tol`` in sup norm (or ``max_iter`` is hit).

    Initialization precedence: ``init_encoder`` if given, else random
    Dirichlet rows from ``rng`` if given, else a deterministic broad mix
    over ``n_clusters`` (default ``n_x``) clusters.  The returned state is
    rebuilt from the final encoder, so marginal, weights and decoder are
    exactly consistent with it.
    """
    framework = as_framework(framework)
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    enc = prepare_encoder(problem.n_x, n_clusters, init_encoder, rng)
    decode, cost = _UPDATES[framework]
    p_x = problem.p_x

    # The arithmetic of derive_state + distortion_matrix + encoder_update,
    # fused: a state is assembled only when the functional is traced.
    def step(encoder, traced):
        marginal, weights = inverse_encoder(encoder, p_x)
        decoder, log_decoder, log_z = decode(problem, weights)
        d = cost(problem, decoder, log_decoder)
        functional = None
        if traced:
            state = BottleneckState(
                framework=framework, beta=float(beta), encoder=encoder,
                marginal=marginal, weights=weights, decoder=decoder,
                log_decoder=log_decoder, log_z=log_z)
            functional = state_observables(problem, state, d)[3]
        return encoder_update(marginal, d, beta), functional

    enc, iterations, delta, converged, trace = iterate(
        step, enc, tol, max_iter, track_functional)
    state = derive_state(problem, framework, enc, beta)
    i_x, i_y, mean_d, functional = state_observables(problem, state)
    report = SolveReport(
        framework=framework, beta=float(beta), converged=converged,
        n_iterations=iterations, i_x=i_x, i_y=i_y, functional=functional,
        expected_distortion=mean_d, encoder_delta=delta,
        functional_trace=None if trace is None
        else np.asarray(trace + [functional]))
    return state, report
