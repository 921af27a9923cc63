"""Alternating-minimization solvers for the two bottleneck frameworks.

Both frameworks compress an input ``X`` into a cluster variable ``Xhat``
through a soft encoder ``p(xhat|x)`` and score the compression against the
label ``Y`` of a fixed rule ``p(y|x)``:

* ``ib``   minimizes ``I(X;Xhat) - beta * I(Y;Xhat)``.  Its per-pair cost is
  ``KL(p(y|x) || dec(y|xhat))`` and the optimal decoder is the Bayes mixture
  of rule rows.
* ``dual`` swaps the KL arguments: the cost is ``KL(dec(y|xhat) || p(y|x))``
  and the functional is ``I(X;Xhat) + beta * E[cost]``.  The optimal decoder
  becomes the *geometric* mixture of rule rows, a row :func:`softmax`:
  it puts the emphasis on predicting the label rather than summarizing it.

Matrix conventions (see :mod:`bottleneck_lab.probability`): encoders are
``(n_x, k)`` row-stochastic and decoders ``(k, n_y)``, and everything a
state holds is derived from its encoder; the encoder update softmaxes
cluster-major ``(k, n_x)`` logits down their columns, as numpy reduces
``n_x`` rows of length ``k`` an order of magnitude slower.  Clusters
whose marginal mass hits exactly zero freeze: their ``log p(xhat)`` term
is ``-inf``, so the softmax encoder update keeps their column at zero
without renormalizing them away — cluster indices stay stable for the
whole run.

A table step's two softmaxes need no max shift while ``m = -log min
p(y|x)`` is small.  The encoder logits are ``log p(xhat) - beta * d[x,
xhat]``, with ``d`` the cross-entropy of ``p(y|x)`` against the Bayes
decoder row (ib: the KL plus the entropy of ``p(y|x)``) or ``KL(dec ||
p(y|x))`` (dual).  Both lie in ``[0, m]``: a Bayes decoder is a mixture
of rule rows, so none of its cells is below ``min p(y|x)``, and a KL
against ``p(y|x)`` is at most the cross-entropy ``-sum dec log p(y|x)``.
So every logit is at most 0, and each column's max, no lower than its
value at the heaviest cluster (``p(xhat) >= 1/k``), is at least ``-log k
- beta * m``.  The dual decoder softmaxes ``E[log p(y|x) | xhat]``, a
mean of log-rule rows, in ``[-m, 0]``.  e^-708 is about the smallest
normal double, so while ``beta * m`` (encoder, decided once per
``beta``) or ``m`` (decoder, once per backend) is at most
:data:`SHIFT_FREE_LOGIT_BOUND`, ``exp`` of every max is normal for any
``log k`` below 108 and no sum is zero.  Past the bound, with a zero rule
cell and on the reduced backend, whose logits carry ``beta * log Z(x)``
and whose decoder softmaxes ``E[features] @ -params``, neither bounded
before the step, both keep the shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``logsumexp`` is not read here: perfbench/tracing.py patches it.
from .probability import (DistributionError, JointDistribution, logsumexp,
                          mutual_information, rel_entr, softmax)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
# Clusters with marginal mass at or below this are dead: reported as
# frozen, and dropped when a sweep merges clusters.
DEAD_CLUSTER_MASS = 1e-12
# The largest beta * -log(min p(y|x)) at which a table step softmaxes
# without the max shift (see the module docstring).
SHIFT_FREE_LOGIT_BOUND = 600.0


def as_framework(value) -> str:
    """The framework named by ``value`` in any case: ``'ib'`` or ``'dual'``."""
    name = str(value).lower()
    if name not in ("ib", "dual"):
        raise ValueError(
            f"unknown framework {value!r}; expected 'ib' or 'dual'")
    return name


@dataclass
class BottleneckState:
    """One self-consistent snapshot of a solver.

    ``marginal`` and ``decoder`` are always the ones *derived* from
    ``encoder`` (and the problem), so downstream identities that assume
    chain consistency hold at machine precision, converged or not.

    ``log_z`` is the per-cluster log-normalizer of a geometric decoder
    (``None`` for ``ib`` states).
    """

    framework: str
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
    """``(marginal, stats, dead)``: ``stats = encoder.T @ table`` on a
    backend's table ``[p(x) W | p(x)]`` has the marginal ``p(xhat)`` as its
    last column; the others divided by it are the expectations of ``W``
    under ``p(x|xhat)``: the Bayes decoder (ib), the mean log-rule (dual)
    or the expected features (reduced).  Dead clusters get the table's
    column sums, the expectations under the prior; ``dead`` masks them
    (``None`` if there are none).
    """
    stats = encoder.T @ table
    marginal = stats[:, -1]
    # Validated encoders give finite masses.  ``in`` compares by ``==``,
    # so it finds -0.0 but not NaN, as counting nonzeros would; on k
    # cells a list search costs fewer numpy calls than counting.
    if 0.0 not in marginal.tolist():
        return marginal, stats, None
    marginal = marginal.copy()
    dead = ~(marginal > 0.0)
    stats[dead] = table.sum(axis=0)
    return marginal, stats, dead


def _decode(framework: str, stats: np.ndarray, v: np.ndarray | None,
            shift: bool):
    """``(decoder, ratio, log_z)`` from cluster statistics: for ib the
    Bayes mixture ``E[W | xhat]`` of rule rows (``None``, ``None``), for
    dual the normalized geometric mixture ``exp(ratio - log_z)``, the row
    :func:`softmax` (shifted as the backend's ``decoder_shift`` says) of
    ``ratio = E[W | xhat] @ V.T``, where the log-rule is ``W @ V.T`` up to a
    per-input constant, ``W`` is in the table and ``v`` is ``V`` (``None``,
    the identity, for the table's ``W = log p(y|x)``)."""
    ratio = stats[:, :-1] / stats[:, -1:]
    if framework == "ib":
        return ratio, None, None
    if v is not None:
        ratio = ratio @ v.T
    decoder, log_z = softmax(ratio, 1, shift=shift, log=True)
    return decoder, ratio, log_z


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def encoder_information(p_x: np.ndarray, encoder: np.ndarray,
                        marginal: np.ndarray) -> float:
    """``I(X; Xhat)`` of ``p_x`` with a row-stochastic encoder, in nats."""
    alive = marginal > 0.0
    enc = encoder[:, alive]
    per_cell = rel_entr(enc, 1.0) - enc * np.log(marginal[alive])[None, :]
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
    if state.framework == "ib":
        return (i_x, i_y, problem.mutual_information - i_y,
                i_x - state.beta * i_y)
    mean_d = problem.mean_log_normalizer - float(state.marginal @ state.log_z)
    return i_x, i_y, mean_d, i_x + state.beta * mean_d


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

    A backend is ``p(x)``, the rows ``W`` whose cluster means are its
    statistics (the rule for ib, the log-rule for dual; nothing else
    picks them) and ``V`` of :func:`_decode`, bound by :meth:`_lay_out`.
    It offers ``framework``, ``n_x``, ``n_y`` and the triple
    ``derive(encoder, beta) -> state``, ``stepper(beta) -> step`` and
    ``observables(state) -> (I(X;Xhat), I(Y;Xhat), E[d], functional)``;
    :func:`fixed_point` and ``annealing.run_sweep`` run any backend.  A
    step returns a new array: the loop overwrites the encoder it stepped
    from with the residual.
    """

    #: The smallest rule cell ``min p(y|x)``, which bounds a table step's
    #: logits and decoder (see :meth:`softmax_shift`).  The reduced backend
    #: keeps 0.0, no bound.
    rule_floor = 0.0

    def __init__(self, problem: JointDistribution, framework):
        self.framework = as_framework(framework)
        self.rule_floor = float(problem.rule.min())
        self._lay_out(problem, problem.rule if self.framework == "ib"
                      else problem.log_rule, None)

    def _lay_out(self, problem, w: np.ndarray, v: np.ndarray | None):
        """Bind ``problem``, ``w``, ``v`` and the decoder's shift choice
        ``decoder_shift``, and form the statistics table ``[p(x) W |
        p(x)]``, the one place a table is formed."""
        self.problem, self.w, self.v = problem, w, v
        self.n_x, self.n_y = problem.n_x, problem.n_y
        self.table = np.column_stack([problem.p_x[:, None] * w, problem.p_x])
        self.decoder_shift = self.softmax_shift(1.0)

    def derive(self, encoder: np.ndarray, beta: float) -> BottleneckState:
        """The state implied by an encoder: the marginal of its cluster
        statistics and the framework decoder."""
        marginal, stats, _ = _cluster_statistics(encoder, self.table)
        decoder, _, log_z = _decode(self.framework, stats, self.v,
                                    self.decoder_shift)
        return BottleneckState(
            framework=self.framework, beta=float(beta), encoder=encoder,
            marginal=marginal, decoder=decoder, log_z=log_z)

    def stepper(self, beta: float):
        """The map ``step(encoder) -> next encoder`` at ``beta``, with its
        constants bound once.

        A step forms the logits ``log p(xhat) - beta * d[x, xhat]``
        cluster-major, (k, n_x), up to a per-input constant (which the
        softmax ignores), as one product ``rows @ C``: per-cluster rows
        (k, m+1) off the encoder's statistics ``S``, and ``C`` (m+1, n_x)
        affine in ``beta``.  For ib they are ``log S`` and ``[beta * rule |
        1 - beta * rowsum(rule)].T``; for dual, on the log-rule ``W @ V.T``
        of :func:`_decode`, ``[dec @ V | log p(xhat) - beta * sum dec log
        dec]``, written over ``S``, with ``sum dec log dec = dec . ratio -
        log_z``, and ``[beta * W | 1].T``.  The logits are softmaxed in place
        down their contiguous columns (short rows reduce slowly), with the
        shift choice of :meth:`softmax_shift` at ``beta``, and the step
        returns the ``(n_x, k)`` transposed view; dead clusters get ``-inf``
        rows, so they stay at exactly zero.
        """
        framework, table, w, v = self.framework, self.table, self.w, self.v
        shift, decoder_shift = self.softmax_shift(beta), self.decoder_shift
        ib = framework == "ib"
        last = 1.0 - beta * w.sum(axis=1) if ib else np.ones(self.n_x)
        coefficients_t = np.column_stack([beta * w, last]).T

        def step(encoder):
            _, stats, dead = _cluster_statistics(encoder, table)
            if not ib:  # the dual rows overwrite the statistics
                decoder, ratio, log_z = _decode(framework, stats, v,
                                                decoder_shift)
                stats[:, -1] = np.log(stats[:, -1]) - beta * (np.add.reduce(
                    decoder * ratio, axis=1) - log_z)
                stats[:, :-1] = decoder if v is None else decoder @ v
            logits = np.dot(np.log(stats) if ib else stats, coefficients_t)
            if dead is not None:
                logits[dead] = -np.inf
            return softmax(logits, 0, shift=shift, out=logits).T

        return step

    def softmax_shift(self, beta: float) -> bool:
        """Whether the encoder softmax at ``beta`` keeps its max shift:
        unless ``rule_floor`` is positive and ``beta * -log(rule_floor)`` is
        at most :data:`SHIFT_FREE_LOGIT_BOUND`.  The decoder's choice is the
        one at ``beta = 1``."""
        return not (self.rule_floor > 0.0 and beta * -math.log(
            self.rule_floor) <= SHIFT_FREE_LOGIT_BOUND)

    def observables(self, state: BottleneckState
                    ) -> tuple[float, float, float, float]:
        return state_observables(self.problem, state)


def _sup_norm_move(new: np.ndarray, old: np.ndarray
                   ) -> tuple[float, tuple[int, int]]:
    """``(max |new - old|, cell)`` of one step, with a cell that attains
    the max (a NaN cell, if any).  ``old`` is dead once stepped from: it
    is overwritten with the residual."""
    residual = np.abs(np.subtract(new, old, out=old), out=old)
    # argmax copies an array that is not C-ordered (the step's transposed
    # views); its memory-order ravel is a view.
    order = "C" if residual.flags.c_contiguous else "F"
    cell = np.unravel_index(int(residual.ravel(order).argmax()),
                            residual.shape, order=order)
    return float(residual[cell]), cell


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

    Each step first tests one probe cell, the one that moved most at the
    last full test: if it moved by more than ``tol``, so did the sup norm,
    and the step goes on without forming the residual (except at
    ``max_iter``, where ``encoder_delta`` needs it).  The probe's move is
    the same IEEE difference the residual holds at that cell, so the
    stopping step and ``encoder_delta`` are those of a full test on every
    step.  A NaN move (the probe cannot rule it out) raises
    ``DistributionError`` naming ``beta``.
    """
    if not 0.0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    encoder = prepare_encoder(backend.n_x, n_clusters, init_encoder)
    step = backend.stepper(beta)
    functionals: list[float] | None = [] if track_functional else None
    delta = np.inf
    converged = False
    iterations = 0
    probe = (0, 0)
    for iterations in range(1, max_iter + 1):
        if track_functional:
            functionals.append(backend.observables(
                backend.derive(np.ascontiguousarray(encoder), beta))[3])
        new_encoder = step(encoder)
        if (abs(new_encoder.item(probe) - encoder.item(probe)) > tol
                and iterations < max_iter):
            encoder = new_encoder
            continue
        delta, probe = _sup_norm_move(new_encoder, encoder)
        if np.isnan(delta):
            raise DistributionError(
                f"beta = {beta!r} gives a non-finite encoder update")
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
