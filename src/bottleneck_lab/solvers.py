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
from typing import NamedTuple

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


class ClusterCounts:
    """Cluster bookkeeping of a state with an ``encoder`` (n_x, k) and its
    ``marginal`` (k,); the table and reduced solvers' states share it."""

    @property
    def n_clusters(self) -> int:
        return self.encoder.shape[1]

    def alive(self) -> np.ndarray:
        """Boolean mask of clusters carrying mass above the dead threshold."""
        return self.marginal > DEAD_CLUSTER_MASS

    def effective_clusters(self) -> int:
        return int(np.count_nonzero(self.alive()))


@dataclass
class BottleneckState(ClusterCounts):
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


class FixedPointRun(NamedTuple):
    """What the loop of one solve did; ``functionals`` lists the functional
    before each step when traced, else it is ``None``."""

    converged: bool
    n_iterations: int
    encoder_delta: float
    functionals: list[float] | None

    def report(self, framework: Framework, beta: float,
               observables: tuple[float, float, float, float]
               ) -> SolveReport:
        """The :class:`SolveReport` of this run, given the final state's
        ``(I(X;Xhat), I(Y;Xhat), E[d], functional)``."""
        i_x, i_y, mean_d, functional = observables
        return SolveReport(
            framework=framework, beta=float(beta), converged=self.converged,
            n_iterations=self.n_iterations, i_x=i_x, i_y=i_y,
            functional=functional, expected_distortion=mean_d,
            encoder_delta=self.encoder_delta,
            functional_trace=None if self.functionals is None
            else np.asarray(self.functionals + [functional]))


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


def _cluster_statistics(encoder: np.ndarray, table: np.ndarray):
    """``(marginal, stats, dead)``: ``stats = encoder.T @ table`` is
    ``(k, n_y + 1)``, its last column the marginal ``p(xhat)``; the others
    divided by it give the Bayes decoder (``ib_table``) or
    ``weights @ log_rule`` (``dual_table``).  Dead (zero-mass) clusters get
    the table's column sums, the statistics of the prior placeholder of
    :func:`inverse_encoder`; ``dead`` masks them (``None`` if there are none).
    """
    stats = encoder.T @ table
    marginal = stats[:, -1]
    # Validated encoders give finite masses; counting is the cheapest test.
    if np.count_nonzero(marginal) == marginal.size:
        return marginal, stats, None
    marginal = marginal.copy()
    dead = ~(marginal > 0.0)
    stats[dead] = table.sum(axis=0)
    return marginal, stats, dead


def _decode(framework: Framework, stats: np.ndarray):
    """``(decoder, log_decoder, log_z)`` from cluster statistics: for ib the
    Bayes mixture of rule rows (``log_z`` is ``None``), for dual the
    normalized geometric mixture ``exp(weights @ log_rule - log_z)``."""
    ratio = stats[:, :-1] / stats[:, -1:]
    if framework is Framework.IB:
        return ratio, np.log(ratio), None
    log_z = logsumexp(ratio, axis=1)
    log_decoder = ratio - log_z[:, None]
    return np.exp(log_decoder), log_decoder, log_z


def derive_state(problem: JointDistribution, framework,
                 encoder: np.ndarray, beta: float) -> BottleneckState:
    """Recompute marginal / weights / decoder implied by an encoder."""
    framework = as_framework(framework)
    table = (problem.ib_table if framework is Framework.IB
             else problem.dual_table)
    marginal, stats, _ = _cluster_statistics(encoder, table)
    decoder, log_decoder, log_z = _decode(framework, stats)
    return BottleneckState(framework=framework, beta=float(beta),
                           encoder=encoder, marginal=marginal,
                           weights=inverse_encoder(encoder, problem.p_x)[1],
                           decoder=decoder, log_decoder=log_decoder,
                           log_z=log_z)


def distortion_matrix(problem: JointDistribution,
                      state: BottleneckState) -> np.ndarray:
    """The ``(n_x, k)`` per-pair cost of the state's framework:
    ``KL(rule row x || decoder row c)`` for ``ib``,
    ``KL(decoder row c || rule row x)`` for ``dual``."""
    if state.framework is Framework.IB:
        return (problem.rule_neg_entropy[:, None]
                - problem.rule @ state.log_decoder.T)
    dec_neg_entropy = xlogy(state.decoder, state.decoder).sum(axis=1)
    return dec_neg_entropy - problem.log_rule @ state.decoder.T


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax, in place, with a per-row max shift; ``-inf`` logits
    give exact zeros."""
    logits -= logits.max(axis=1, keepdims=True)
    enc = np.exp(logits, out=logits)
    enc /= enc.sum(axis=1, keepdims=True)
    return enc


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
    return _row_softmax(log_marginal - beta * distortion)


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


def state_observables(problem: JointDistribution, state: BottleneckState
                      ) -> tuple[float, float, float, float]:
    """``(I(X;Xhat), I(Y;Xhat), E[d], functional)`` of a state, in nats.

    ``E[d]`` is the mean per-pair cost ``E_{p(x) p(xhat|x)}[d(x, xhat)]``;
    the functional is what each framework minimizes:

    ``ib``:   ``I(X;Xhat) - beta * I(Y;Xhat)``
    ``dual``: ``I(X;Xhat) + beta * E[KL(decoder || rule)]``
    """
    i_x, i_y = information_point(problem, state)
    mean_d = float(np.sum(problem.p_x[:, None] * state.encoder
                          * distortion_matrix(problem, state)))
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
        if not np.isfinite(enc).all():
            raise ValueError("init_encoder must be finite")
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
            trace: bool) -> tuple[np.ndarray, FixedPointRun]:
    """The fixed-point loop shared by every solver.

    ``step(encoder, traced)`` returns the next encoder and, when ``traced``,
    the functional at ``encoder`` (else ``None``).  Stops once a step moves
    the encoder by at most ``tol`` in sup norm, or after ``max_iter`` steps.
    Returns the final encoder and the :class:`FixedPointRun`.
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
    return encoder, FixedPointRun(converged, iterations, delta, functionals)


def fixed_point(problem: JointDistribution, beta: float, framework,
                *, n_clusters: int | None = None,
                init_encoder: np.ndarray | None = None,
                rng: np.random.Generator | None = None,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                track_functional: bool = False
                ) -> tuple[BottleneckState, FixedPointRun]:
    """The updates of :func:`solve` without its report: the state rebuilt
    from the final encoder, and what the loop did.

    A step takes the cluster statistics of the encoder, forms the logits
    ``log p(xhat) - beta * d[x, xhat]`` up to a per-row constant (which the
    row softmax ignores) and softmaxes them.  For ib the logits are
    ``[beta * rule | 1 - beta * rowsum(rule)] @ log(stats).T``; for dual,
    ``beta * log_rule @ dec.T + log p(xhat) - beta * sum_y dec log dec``.
    Dead clusters get ``-inf`` logits, so they stay at exactly zero.
    """
    framework = as_framework(framework)
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    enc = prepare_encoder(problem.n_x, n_clusters, init_encoder, rng)
    ib = framework is Framework.IB
    table = problem.ib_table if ib else problem.dual_table
    if ib:
        coefficients = np.column_stack(
            [beta * problem.rule, 1.0 - beta * problem.rule.sum(axis=1)])
    else:
        beta_log_rule = beta * problem.log_rule

    def step(encoder, traced):
        marginal, stats, dead = _cluster_statistics(encoder, table)
        decoded = _decode(framework, stats) if traced or not ib else None
        if ib:
            logits = coefficients @ np.log(stats).T
        else:
            decoder, log_decoder, _ = decoded
            logits = beta_log_rule @ decoder.T + (
                np.log(stats[:, -1])
                - beta * (decoder * log_decoder).sum(axis=1))
        if dead is not None:
            logits[:, dead] = -np.inf
        functional = None
        if traced:
            decoder, log_decoder, log_z = decoded
            state = BottleneckState(
                framework=framework, beta=float(beta), encoder=encoder,
                marginal=marginal,
                weights=inverse_encoder(encoder, problem.p_x)[1],
                decoder=decoder, log_decoder=log_decoder, log_z=log_z)
            functional = state_observables(problem, state)[3]
        return _row_softmax(logits), functional

    enc, run = iterate(step, enc, tol, max_iter, track_functional)
    return derive_state(problem, framework, enc, beta), run


def solve(problem: JointDistribution, beta: float, framework, *,
          track_functional: bool = True, **options
          ) -> tuple[BottleneckState, SolveReport]:
    """Run the alternating updates at a fixed ``beta`` until the encoder
    moves less than ``tol`` in sup norm (or ``max_iter`` is hit).

    ``options`` are those of :func:`fixed_point`: ``n_clusters``,
    ``init_encoder``, ``rng``, ``tol`` and ``max_iter``.  Initialization
    precedence: ``init_encoder`` if given, else random Dirichlet rows from
    ``rng`` if given, else a deterministic broad mix over ``n_clusters``
    (default ``n_x``) clusters.  The returned state is rebuilt from the
    final encoder, so marginal, weights and decoder are exactly consistent
    with it.
    """
    state, run = fixed_point(problem, beta, framework,
                             track_functional=track_functional, **options)
    return state, run.report(state.framework, beta,
                             state_observables(problem, state))
