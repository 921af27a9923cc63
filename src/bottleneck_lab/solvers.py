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
``(n_x, k)`` row-stochastic and decoders ``(k, n_y)``, and everything a
state holds is derived from its encoder; the encoder update softmaxes
cluster-major ``(k, n_x)`` logits down their columns, as numpy reduces
``n_x`` rows of length ``k`` an order of magnitude slower.  Clusters
whose marginal mass hits exactly zero freeze: their ``log p(xhat)`` term
is ``-inf``, so the softmax encoder update keeps their column at zero
without renormalizing them away — cluster indices stay stable for the
whole run.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# logsumexp is unused here; perfbench/tracing.py patches it by name.
from .probability import (JointDistribution, logsumexp,  # noqa: F401
                          mutual_information, xlogx)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# Clusters with marginal mass at or below this are dead: reported as
# frozen, and dropped when a sweep merges clusters.
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

    ``marginal`` and ``decoder`` are always the ones *derived* from
    ``encoder`` (and the problem), so downstream identities that assume
    chain consistency hold at machine precision, converged or not.

    ``log_z`` is the per-cluster log-normalizer of a geometric decoder
    (``None`` for ``ib`` states).
    """

    framework: Framework
    beta: float
    encoder: np.ndarray        # (n_x, k)
    marginal: np.ndarray       # (k,)
    decoder: np.ndarray        # (k, n_y)
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
    """What the fixed-point loop of one solve did.  ``functional_trace``
    lists the functional before each step and at the final state when the
    solve tracks it, else it is ``None``."""

    converged: bool
    n_iterations: int
    encoder_delta: float
    functional_trace: np.ndarray | None = None


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------

def _cluster_statistics(encoder: np.ndarray, table: np.ndarray):
    """``(marginal, stats, dead)``: ``stats = encoder.T @ table`` has the
    marginal ``p(xhat)`` as its last column; the others divided by it are
    expectations under ``p(x|xhat)``: the Bayes decoder (``ib_table``), the
    mean log-rule (``dual_table``) or the expected features
    (``ExpFamilyModel.table``).  Dead clusters get the table's column sums,
    the expectations under the prior; ``dead`` masks them (``None`` if there
    are none).
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


def _decode(framework: Framework, stats: np.ndarray,
            v: np.ndarray | None = None):
    """``(decoder, log_decoder, log_z)`` from cluster statistics: for ib the
    Bayes mixture of rule rows (``log_z`` is ``None``), for dual the
    normalized geometric mixture ``exp(E[U | xhat] @ V.T - log_z)`` as a
    max-shifted row softmax, where the log-rule is ``U @ V.T`` up to a
    per-input constant, ``U`` is in the table and ``v`` is ``V`` (``None``,
    the identity, for the table's ``U = log p(y|x)``)."""
    ratio = stats[:, :-1] / stats[:, -1:]
    if framework is Framework.IB:
        return ratio, np.log(ratio), None
    if v is not None:
        ratio = ratio @ v.T
    shift = np.maximum.reduce(ratio, axis=1, keepdims=True)
    ratio -= shift
    decoder = np.exp(ratio)
    total = np.add.reduce(decoder, axis=1, keepdims=True)
    log_total = np.log(total)
    return decoder / total, ratio - log_total, (shift + log_total)[:, 0]


def _column_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax down each column of cluster-major ``(k, n)`` logits, in
    place, with a per-column max shift; ``-inf`` rows (dead clusters) give
    exact zeros."""
    logits -= np.maximum.reduce(logits, axis=0)
    enc = np.exp(logits, out=logits)
    enc /= np.add.reduce(enc, axis=0)
    return enc


def encoder_update(marginal: np.ndarray, distortion: np.ndarray,
                   beta: float) -> np.ndarray:
    """Softmax re-estimation ``p(xhat|x) ∝ p(xhat) * exp(-beta * d[x, xhat])``.

    Computed in log space by :func:`_column_softmax` on the transposed
    logits; zero-mass clusters give ``log p(xhat) = -inf`` and therefore
    stay at exactly zero.
    """
    with np.errstate(divide="ignore"):
        log_marginal = np.log(marginal)
    return _column_softmax(log_marginal[:, None] - beta * distortion.T).T


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def encoder_information(p_x: np.ndarray, encoder: np.ndarray,
                        marginal: np.ndarray) -> float:
    """``I(X; Xhat)`` of ``p_x`` with a row-stochastic encoder, in nats."""
    alive = marginal > 0.0
    enc = encoder[:, alive]
    per_cell = xlogx(enc) - enc * np.log(marginal[alive])[None, :]
    return float(p_x @ per_cell.sum(axis=1))


def state_observables(problem, state: BottleneckState
                      ) -> tuple[float, float, float, float]:
    """``(I(X;Xhat), I(Y;Xhat), E[d], functional)`` of a state on a table
    or a model, in nats: the observables of every backend.

    ``I(Y;Xhat)`` reads the label joint ``p(xhat, y)`` through the Markov
    chain ``Xhat - X - Y`` off the encoder and the *rule*, never the
    framework decoder, so it is the true label information of either
    framework.  The mean cost ``E[d]`` is ``I(X;Y) - I(Y;Xhat)`` for ``ib``
    and ``mean_log_normalizer - p(xhat) @ log_z`` for ``dual`` at any
    derived state, converged or not, as its decoder is derived from its own
    encoder.  The functional is ``I(X;Xhat) - beta * I(Y;Xhat)`` for
    ``ib`` and ``I(X;Xhat) + beta * E[d]`` for ``dual``.
    """
    i_x = encoder_information(problem.p_x, state.encoder, state.marginal)
    i_y = mutual_information(problem.label_joint(state.encoder))
    if state.framework is Framework.IB:
        return (i_x, i_y, problem.mutual_information - i_y,
                i_x - state.beta * i_y)
    mean_d = problem.mean_log_normalizer - float(state.marginal @ state.log_z)
    return i_x, i_y, mean_d, i_x + state.beta * mean_d


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
        p_x[:, None] * (xlogx(predicted)
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
                    init_encoder: np.ndarray | None) -> np.ndarray:
    """Validated starting encoder: ``init_encoder`` (rows renormalized) if
    given, else the deterministic broad mix over ``n_clusters`` (default
    ``n_x``) clusters."""
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
    return default_encoder(n_x, k)


class TableBackend:
    """The statistics-table solver of one framework on one problem.

    A solver backend offers ``framework``, ``n_x``, ``n_y`` and the triple
    ``derive(encoder, beta) -> state``, ``stepper(beta) -> step`` and
    ``observables(state) -> (I(X;Xhat), I(Y;Xhat), E[d], functional)``;
    :func:`fixed_point` and ``annealing.run_sweep`` run any backend.  A
    step returns a new array: the loop overwrites the encoder it stepped
    from with the residual.
    """

    def __init__(self, problem: JointDistribution, framework):
        self.problem = problem
        self.framework = as_framework(framework)
        self.n_x, self.n_y = problem.n_x, problem.n_y
        self.table = (problem.ib_table if self.framework is Framework.IB
                      else problem.dual_table)
        self.u, self.v = problem.log_rule, None  # see _decode

    def derive(self, encoder: np.ndarray, beta: float) -> BottleneckState:
        """The state implied by an encoder: the marginal of its cluster
        statistics and the framework decoder."""
        marginal, stats, _ = _cluster_statistics(encoder, self.table)
        decoder, _, log_z = _decode(self.framework, stats, self.v)
        return BottleneckState(
            framework=self.framework, beta=float(beta), encoder=encoder,
            marginal=marginal, decoder=decoder, log_z=log_z)

    def stepper(self, beta: float):
        """The map ``step(encoder) -> next encoder`` at ``beta``, with its
        constants bound once.

        A step takes the cluster statistics of the encoder, forms the
        logits ``log p(xhat) - beta * d[x, xhat]`` cluster-major, ``(k,
        n_x)``, up to a per-input constant (which the softmax ignores),
        softmaxes them down their contiguous columns (short rows reduce
        slowly) and returns the ``(n_x, k)`` transposed view.  For ib the
        logits are ``log(stats) @ [beta * rule | 1 - beta * rowsum(rule)].T``;
        for dual, on the log-rule factor of :func:`_decode`,
        ``(dec @ V) @ (beta * U).T + (log p(xhat) - beta * sum dec log dec)``.
        Dead clusters get ``-inf`` rows, so they stay at exactly zero.
        """
        framework, table = self.framework, self.table
        ib = framework is Framework.IB
        if ib:
            rule = self.problem.rule
            coefficients = np.column_stack(
                [beta * rule, 1.0 - beta * rule.sum(axis=1)])
        else:
            beta_u, v = beta * self.u, self.v

        def step(encoder):
            _, stats, dead = _cluster_statistics(encoder, table)
            if ib:
                logits = np.log(stats) @ coefficients.T
            else:
                decoder, log_decoder, _ = _decode(framework, stats, v)
                logits = (decoder if v is None else decoder @ v) @ beta_u.T
                logits += (np.log(stats[:, -1])
                           - beta * (decoder * log_decoder).sum(axis=1)
                           )[:, None]
            if dead is not None:
                logits[dead] = -np.inf
            return _column_softmax(logits).T

        return step

    def observables(self, state: BottleneckState
                    ) -> tuple[float, float, float, float]:
        return state_observables(self.problem, state)


def fixed_point(backend, beta: float, *, n_clusters: int | None = None,
                init_encoder: np.ndarray | None = None,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                track_functional: bool = False
                ) -> tuple[object, SolveReport]:
    """The fixed-point loop of every solver: the state the backend derives
    from the final encoder, and the report of the loop.

    Starts from :func:`prepare_encoder` and repeats the backend's step
    until a step moves the encoder by at most ``tol`` in sup norm, or for
    ``max_iter`` steps.  With ``track_functional`` the report traces the
    backend's functional of the state derived before each step, and of the
    final state.
    """
    if not 0.0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    encoder = prepare_encoder(backend.n_x, n_clusters, init_encoder)
    step = backend.stepper(beta)
    functionals: list[float] | None = [] if track_functional else None
    delta = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if track_functional:
            functionals.append(backend.observables(
                backend.derive(np.ascontiguousarray(encoder), beta))[3])
        new_encoder = step(encoder)
        # The old encoder is dead once stepped from: it holds the residual.
        np.subtract(new_encoder, encoder, out=encoder)
        delta = float(np.abs(encoder, out=encoder).max())
        encoder = new_encoder
        if delta <= tol:
            converged = True
            break
    # The step hands out transposed views; states keep the C layout.
    state = backend.derive(np.ascontiguousarray(encoder), beta)
    if track_functional:
        functionals.append(backend.observables(state)[3])
    return state, SolveReport(
        converged, iterations, delta,
        None if functionals is None else np.asarray(functionals))


def solve(problem: JointDistribution, beta: float, framework, **options
          ) -> tuple[BottleneckState, SolveReport]:
    """Run the alternating updates at a fixed ``beta`` until the encoder
    moves less than ``tol`` in sup norm (or ``max_iter`` is hit).

    ``options`` are those of :func:`fixed_point`: ``n_clusters``,
    ``init_encoder``, ``tol``, ``max_iter`` and ``track_functional``.  The
    returned state is rebuilt from the final encoder, so its marginal and
    decoder are exactly consistent with it; its information values
    are :func:`state_observables`.
    """
    return fixed_point(TableBackend(problem, framework), beta, **options)
