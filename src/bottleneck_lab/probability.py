"""Discrete probability primitives shared by the bottleneck solvers.

Conventions used throughout the package:

* Distributions are dense float64 numpy arrays.
* A "rule" is a row-stochastic matrix ``p(y|x)`` of shape ``(n_x, n_y)``:
  row ``x`` is the label distribution of input symbol ``x``.
* Encoders are row-stochastic ``(n_x, n_xhat)``; decoders are row-stochastic
  ``(n_xhat, n_y)``.
* All information quantities are returned in nats.  Conversion to bits is a
  presentation concern and happens only at output time (see ``cli``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerance of the information functions below for "this array should
# already be normalized"; they compute on their input as given.
NORMALIZATION_ATOL = 1e-12
# The one sum tolerance of problem data (rules, priors, class
# conditionals): the model constructors accept sums within it of 1 and
# renormalize once, so downstream code may rely on sums of 1.0 up to the
# rounding of that division.
INPUT_SUM_TOL = 1e-6
# Conditional rules read from user files get this added to every cell by
# default (then rows are renormalized) so that logs and KL divergences exist.
DEFAULT_SMOOTHING = 1e-9


class DistributionError(ValueError):
    """Invalid probability data (shape, sign, normalization, support)."""


class NormalizationError(DistributionError):
    """An array that must sum to one does not, beyond tolerance."""


def _require_normalized(arr: np.ndarray, name: str) -> None:
    total = arr.sum()
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        raise NormalizationError(
            f"{name} must be normalized within {NORMALIZATION_ATOL:g} "
            f"(deviation {abs(total - 1.0):.3e})")


def _reject_cells(mask: np.ndarray, name: str, reason: str) -> None:
    if mask.any():
        index = np.argwhere(mask)[0]
        raise DistributionError(
            name + "".join(f"[{i}]" for i in index) + reason)


def as_finite(values, name: str, ndim: int = 2) -> np.ndarray:
    """``values`` as a float array of ``ndim`` dimensions and at least one
    row whose cells are all finite; the first bad cell is named
    ``name[i][j]``."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DistributionError(
            f"{name} must be a rectangular numeric array: {exc}") from exc
    if arr.ndim != ndim or not len(arr):
        raise DistributionError(f"{name} must be a non-empty {ndim}-D array")
    _reject_cells(~np.isfinite(arr), name, " is not finite")
    return arr


def _non_negative(values, name: str, ndim: int) -> np.ndarray:
    arr = as_finite(values, name, ndim)
    _reject_cells(arr < 0.0, name, " is negative")
    return arr


def as_distribution(values, name: str, axis: int | None = None
                    ) -> np.ndarray:
    """A checked probability vector (``axis=None``) or table of rows
    (``axis=1``), renormalized once.

    Cells must be finite and non-negative, and every sum must lie within
    ``INPUT_SUM_TOL`` of 1; errors name the first bad cell ``name[i][j]``
    or the worst row ``name[i]``.
    """
    arr = _non_negative(values, name, 1 if axis is None else 2)
    sums = arr.sum(axis=axis, keepdims=True)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums.flat[worst] - 1.0) > INPUT_SUM_TOL:
        label = name if axis is None else f"{name}[{worst}]"
        raise NormalizationError(
            f"{label} sums to {sums.flat[worst]:.8f}; must sum to 1 within "
            f"{INPUT_SUM_TOL:g}")
    return arr / sums


def as_marginal(values, name: str, n: int) -> np.ndarray:
    """A strictly positive length-``n`` distribution checked by
    :func:`as_distribution`; ``None`` gives the uniform one."""
    if values is None:
        return np.full(n, 1.0 / n)
    vec = as_distribution(values, name)
    if vec.shape != (n,):
        raise DistributionError(f"{name} must have length {n}")
    if vec.min() <= 0.0:
        raise DistributionError(
            f"{name} must be strictly positive (drop unused symbols)")
    return vec


def mutual_information(joint) -> float:
    """Mutual information of a joint table ``p(a, b)``, in nats.

    The table must be elementwise non-negative and sum to one within
    ``NORMALIZATION_ATOL``.  Computed as ``KL(joint || outer(margins))``;
    zero cells contribute zero.
    """
    joint = _non_negative(joint, "joint", 2)
    _require_normalized(joint, "joint")
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    return float(rel_entr(joint, np.outer(pa, pb)).sum())


def rel_entr(x, y) -> np.ndarray:
    """``x * log(x / y)`` elementwise (broadcasting), for ``x, y >= 0``.

    Agrees with ``scipy.special.rel_entr(x, y)`` up to the rounding of the
    logarithm, and exactly in the special cells: 0 where ``x == 0``,
    ``inf`` where ``x > 0`` and ``y == 0``, NaN where either input is NaN.
    No floating-point warning is raised.  ``rel_entr(p, 1.0)`` is
    ``p log p``: dividing by 1.0 is exact.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # ``y >= 0`` is False for a NaN ``y``, so ``rel_entr(0, nan)`` is NaN.
    with np.errstate(all="ignore"):
        return np.where((x == 0.0) & (y >= 0.0), 0.0, x * np.log(x / y))


def softmax(a: np.ndarray, axis: int | None = None, *, shift: bool = True,
            log: bool = False, out: np.ndarray | None = None):
    """``exp(a)`` over its sums along ``axis`` (all cells for ``None``) into
    ``out``, which may be ``a``: the one exp-normalize kernel of the
    package.  With ``log`` the pair of it and ``log(sum(exp(a), axis))``.
    ``shift`` subtracts the max along ``axis`` first, so any finite ``a``
    works and ``-inf`` cells give exact zeros; without it no cell may
    exceed about 709 and no slice's max fall below about -708 (see
    :mod:`bottleneck_lab.solvers`)."""
    if shift:
        top = np.maximum.reduce(a, axis=axis, keepdims=True)
        a = out = np.subtract(a, top, out=out)
    normalized = np.exp(a, out=out)
    total = np.add.reduce(normalized, axis=axis, keepdims=True)
    normalized /= total
    if not log:
        return normalized
    log_total = np.log(total) + top if shift else np.log(total)
    return normalized, log_total.squeeze(axis=axis)


def logsumexp(a, axis: int | None = None):
    """``log(sum(exp(a), axis))`` of finite ``a``, the one log-sum-exp of
    the package, off the shifted :func:`softmax`; the shape is
    ``scipy.special.logsumexp``'s (0-d for ``axis=None``)."""
    a = np.array(a, dtype=float, ndmin=1)  # a copy the kernel may overwrite
    return softmax(a, axis, log=True, out=a)[1][()]


def smooth_rows(rows: np.ndarray, epsilon: float) -> np.ndarray:
    """Add ``epsilon`` to every cell and renormalize each row exactly.

    ``epsilon`` must lie in ``[0, 1)``; NaN and infinities are rejected.
    """
    if not 0.0 <= epsilon < 1.0:
        raise DistributionError(
            f"smoothing_epsilon must lie in [0, 1), got {epsilon!r}")
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
    log_rule : elementwise log of ``rule``, computed on first use.
    joint : (n_x, n_y) table ``p_x[:, None] * rule``, computed on first use.
    """

    p_x: np.ndarray
    rule: np.ndarray

    #: ``E_{p_x}`` of the log-partition of ``log_rule``'s normalized rows
    mean_log_normalizer = 0.0

    @classmethod
    def from_conditional(cls, rule, p_x=None,
                         smoothing_epsilon: float = DEFAULT_SMOOTHING
                         ) -> "JointDistribution":
        """Build from ``p(y|x)`` rows and an optional input marginal.

        ``rule`` (named ``p_y_given_x`` in messages) is checked by
        :func:`as_distribution` and ``p_x`` by :func:`as_marginal`: sums
        within ``INPUT_SUM_TOL`` of 1 are accepted and renormalized.  The
        rows are then smoothed by ``smoothing_epsilon`` (in ``[0, 1)``) and
        renormalized exactly; with ``smoothing_epsilon = 0`` the rule must
        already be strictly positive.  ``p_x`` defaults to uniform and must
        be strictly positive (drop unused symbols before building the
        problem).
        """
        rule = as_distribution(rule, "p_y_given_x", axis=1)
        if min(rule.shape) < 2:
            raise DistributionError("p_y_given_x needs at least two rows "
                                    "and two columns")
        rule = smooth_rows(rule, smoothing_epsilon)
        if rule.min() <= 0.0:
            raise DistributionError(
                "p_y_given_x has zero cells; use a positive smoothing_epsilon")
        return cls(p_x=as_marginal(p_x, "p_x", rule.shape[0]), rule=rule)

    @property
    def n_x(self) -> int:
        return self.rule.shape[0]

    @property
    def n_y(self) -> int:
        return self.rule.shape[1]

    @cached_property
    def log_rule(self) -> np.ndarray:
        return np.log(self.rule)

    @cached_property
    def joint(self) -> np.ndarray:
        return self.p_x[:, None] * self.rule

    def label_joint(self, encoder: np.ndarray) -> np.ndarray:
        """``p(xhat, y) = sum_x p(x) p(xhat|x) p(y|x)`` (k, n_y) of an
        ``(n_x, k)`` encoder."""
        return encoder.T @ self.joint

    @cached_property
    def mutual_information(self) -> float:
        """``I(X;Y)`` of the stored joint, in nats, computed once."""
        return mutual_information(self.joint)
