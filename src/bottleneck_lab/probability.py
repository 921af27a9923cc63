"""Discrete probability primitives shared by the bottleneck solvers.

Conventions used throughout the package:

* Distributions are dense float64 numpy arrays.
* A "rule" is a row-stochastic matrix ``p(y|x)`` of shape ``(n_x, n_y)``:
  row ``x`` is the label distribution of input symbol ``x``.
* Encoders are row-stochastic ``(n_x, n_xhat)``; decoders are row-stochastic
  ``(n_xhat, n_y)``; inverse encoders ("weights" below) are row-stochastic
  ``(n_xhat, n_x)``.
* All information quantities are returned in nats.  Conversion to bits is a
  presentation concern and happens only at output time (see ``cli``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import rel_entr, xlogy

# Tolerance for "this array should already be normalized" checks.  Inputs
# passing the check are renormalized exactly, so downstream code may rely on
# sums of 1.0 up to rounding of the division itself.
NORMALIZATION_ATOL = 1e-12
# Conditional rules read from user files get this added to every cell by
# default (then rows are renormalized) so that logs and KL divergences exist.
DEFAULT_SMOOTHING = 1e-9

LN2 = float(np.log(2.0))


class DistributionError(ValueError):
    """Invalid probability data (shape, sign, normalization, support)."""


class NormalizationError(DistributionError):
    """An array that must sum to one does not, beyond tolerance."""


class UndefinedDivergenceError(DistributionError):
    """KL divergence requested where the reference has a support hole."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DistributionError(f"{name} contains non-finite entries")
    if arr.size and arr.min() < 0.0:
        raise DistributionError(f"{name} contains negative entries")
    return arr


def _require_normalized(arr: np.ndarray, name: str, axis: int | None = None,
                        atol: float = NORMALIZATION_ATOL) -> None:
    sums = arr.sum(axis=axis)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=atol):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise NormalizationError(
            f"{name} must be normalized within {atol:g} "
            f"(worst deviation {worst:.3e})")


def entropy(p) -> float:
    """Shannon entropy of a distribution, in nats.

    Zero cells contribute zero.  Raises :class:`NormalizationError` if ``p``
    does not sum to one within ``NORMALIZATION_ATOL``.
    """
    p = _as_float_array(p, "p")
    _require_normalized(p, "p")
    return float(-xlogy(p, p).sum())


def kl_divergence(p, q) -> float:
    """``KL(p || q)`` in nats.

    ``p`` must be normalized; ``q`` must be strictly positive wherever ``p``
    is (a support hole raises :class:`UndefinedDivergenceError`, distinct
    from normalization problems).  ``q`` itself is not required to be
    normalized — callers occasionally compare against unnormalized reference
    weights — but every standard use in this package passes distributions.
    """
    p = _as_float_array(p, "p")
    q = _as_float_array(q, "q")
    if p.shape != q.shape:
        raise DistributionError(
            f"shape mismatch: p {p.shape} vs q {q.shape}")
    _require_normalized(p, "p")
    if np.any((q == 0.0) & (p > 0.0)):
        raise UndefinedDivergenceError(
            "q has zero mass where p is positive; KL(p||q) is undefined")
    return float(rel_entr(p, q).sum())


def mutual_information(joint) -> float:
    """Mutual information of a joint table ``p(a, b)``, in nats.

    The table must be elementwise non-negative and sum to one within
    ``NORMALIZATION_ATOL``.  Computed as ``KL(joint || outer(margins))``;
    zero cells contribute zero.
    """
    joint = _as_float_array(joint, "joint")
    if joint.ndim != 2:
        raise DistributionError("joint must be a 2-D table")
    _require_normalized(joint, "joint")
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    return float(rel_entr(joint, np.outer(pa, pb)).sum())


def conditional_from_joint(joint):
    """Split a joint table into ``(p_a, rows)`` with ``rows[a] = p(b|a)``.

    Rows with zero marginal mass are returned uniform, so the result is
    always row-stochastic.
    """
    joint = _as_float_array(joint, "joint")
    if joint.ndim != 2:
        raise DistributionError("joint must be a 2-D table")
    _require_normalized(joint, "joint")
    p_a = joint.sum(axis=1)
    rows = np.empty_like(joint)
    alive = p_a > 0.0
    rows[alive] = joint[alive] / p_a[alive, None]
    rows[~alive] = 1.0 / joint.shape[1]
    return p_a, rows


def logsumexp(a, axis: int | None = None):
    """``log(sum(exp(a), axis))``, the one log-sum-exp of the package.

    Returns the same float64 values as ``scipy.special.logsumexp(a, axis)``
    (same shape, and a 0-d ``np.float64`` for ``axis=None``) at a small
    fraction of its per-call cost on the (k, n_y) rows of the solvers'
    hot loops.  It keeps scipy's accurate formulation (Blanchard, Higham &
    Higham, IMA J. Numer. Anal. 2021): the maximum is shifted out, its
    ties are taken out of the sum of the remaining terms and enter as
    ``log(ties)``, and the rest goes through ``log1p``.  ``-inf`` entries of
    a row with a finite maximum contribute zero without warnings; rows
    whose maximum is ``-inf``, ``+inf`` or NaN take the direct
    ``log(sum(exp(a)))``, as scipy does.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(a_max)
    # The hot path skips np.errstate: entering and leaving it costs about a
    # third of the whole call on the solvers' (k, n_y) rows.
    if finite.all():
        out = _max_shifted_logsumexp(a, a_max, axis, True)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(finite,
                           _max_shifted_logsumexp(a, a_max, axis, False),
                           np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return out.squeeze(axis=axis)[()]


def _max_shifted_logsumexp(a: np.ndarray, a_max: np.ndarray,
                           axis: int | None, all_finite: bool) -> np.ndarray:
    is_max = a == a_max
    shifted = np.exp(a - a_max)
    np.copyto(shifted, 0.0, where=is_max)
    total = shifted.sum(axis=axis, keepdims=True)
    # One maximum in every row makes every tie count 1, and then
    # log1p(s / 1) + log(1) + m equals log1p(s) + m bit for bit.  A row
    # whose maximum is NaN has no maximum at all, so the count of maxima
    # decides this only when every row maximum is finite.
    if all_finite and np.count_nonzero(is_max) == a_max.size:
        return np.log1p(total) + a_max
    ties = is_max.sum(axis=axis, keepdims=True)
    return np.log1p(total / ties) + np.log(ties) + a_max


def smooth_rows(rows: np.ndarray, epsilon: float) -> np.ndarray:
    """Add ``epsilon`` to every cell and renormalize each row exactly."""
    if epsilon < 0.0:
        raise DistributionError("smoothing epsilon must be non-negative")
    rows = rows + epsilon
    return rows / rows.sum(axis=1, keepdims=True)


@dataclass
class JointDistribution:
    """A finite joint distribution ``p(x, y)`` in solver-ready form.

    Attributes
    ----------
    p_x : (n_x,) input marginal, strictly positive.
    rule : (n_x, n_y) row-stochastic conditional ``p(y|x)``, strictly
        positive (enforced via smoothing at construction).
    log_rule : elementwise log of ``rule``.
    joint : (n_x, n_y) table ``p_x[:, None] * rule``.
    p_y : (n_y,) label marginal.
    """

    p_x: np.ndarray
    rule: np.ndarray
    log_rule: np.ndarray = field(repr=False)
    joint: np.ndarray = field(repr=False)
    p_y: np.ndarray = field(repr=False)

    @classmethod
    def from_conditional(cls, rule, p_x=None,
                         smoothing_epsilon: float = DEFAULT_SMOOTHING
                         ) -> "JointDistribution":
        """Build from ``p(y|x)`` rows and an optional input marginal.

        ``rule`` rows must be normalized within 1e-9 on input; they are
        smoothed by ``smoothing_epsilon`` and renormalized exactly.  With
        ``smoothing_epsilon = 0`` the rule must already be strictly
        positive.  ``p_x`` defaults to uniform and must be strictly
        positive (drop unused symbols before building the problem).
        """
        rule = _as_float_array(rule, "rule")
        if rule.ndim != 2 or min(rule.shape) < 2:
            raise DistributionError(
                "rule must be a 2-D table with at least two rows and columns")
        _require_normalized(rule, "rule rows", axis=1, atol=1e-9)
        rule = smooth_rows(rule, smoothing_epsilon)
        if rule.min() <= 0.0:
            raise DistributionError(
                "rule has zero cells; pass a positive smoothing_epsilon")
        n_x = rule.shape[0]
        if p_x is None:
            p_x = np.full(n_x, 1.0 / n_x)
        else:
            p_x = _as_float_array(p_x, "p_x")
            if p_x.shape != (n_x,):
                raise DistributionError(
                    f"p_x has shape {p_x.shape}, expected ({n_x},)")
            _require_normalized(p_x, "p_x")
            if p_x.min() <= 0.0:
                raise DistributionError(
                    "p_x must be strictly positive (drop unused symbols)")
            p_x = p_x / p_x.sum()
        joint = p_x[:, None] * rule
        return cls(p_x=p_x, rule=rule, log_rule=np.log(rule), joint=joint,
                   p_y=joint.sum(axis=0))

    @classmethod
    def from_joint(cls, joint,
                   smoothing_epsilon: float = DEFAULT_SMOOTHING
                   ) -> "JointDistribution":
        """Build from a full joint table (rows with zero mass are rejected)."""
        p_x, rows = conditional_from_joint(joint)
        if p_x.min() <= 0.0:
            raise DistributionError(
                "joint has empty input rows; drop unused symbols")
        return cls.from_conditional(rows, p_x,
                                    smoothing_epsilon=smoothing_epsilon)

    @property
    def n_x(self) -> int:
        return self.rule.shape[0]

    @property
    def n_y(self) -> int:
        return self.rule.shape[1]

    @cached_property
    def rule_neg_entropy(self) -> np.ndarray:
        """``sum_y rule[x, y] * log rule[x, y]`` per input (n_x,)."""
        return np.sum(self.rule * self.log_rule, axis=1)

    @cached_property
    def ib_table(self) -> np.ndarray:
        """``[p(x, y) | p(x)]``, the ib solver's statistics table."""
        return np.column_stack([self.joint, self.p_x])

    @cached_property
    def dual_table(self) -> np.ndarray:
        """``[p(x) log p(y|x) | p(x)]``, the dual solver's statistics table."""
        return np.column_stack([self.p_x[:, None] * self.log_rule, self.p_x])

    def mutual_information(self) -> float:
        """``I(X;Y)`` of the stored joint, in nats."""
        return mutual_information(self.joint)
