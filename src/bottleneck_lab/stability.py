"""Perturbation stability of solver fixed points and phase transitions.

Linearizing the alternating updates around a fixed point yields, per
cluster, a pair of square matrices acting on input-side and label-side
perturbations.  A cluster splits (a new effective cluster appears) when
``beta * lambda2 = 1``, where ``lambda2`` is the largest non-trivial
eigenvalue of those matrices; the critical betas are the roots of
``g(beta) = beta * lambda2(beta) - 1`` along a fixed-cluster-count branch.

Both frameworks carry one structural zero eigenvalue in the reported
matrices:

* ``dual``: the label-side factor ``B`` is centered so that the decoder row
  is an exact left null vector of ``C = B @ A`` — lambda1 = 0 holds by
  construction for every label arity.
* ``ib``: the raw linearization matrices are row-stochastic at a
  Bayes-consistent point (their trivial eigenvalue is 1, a normalization
  mode, not an instability).  The builders remove that mode by exact
  spectral deflation ``C - (right 1-eigvector)(left 1-eigvector)^T``, which
  maps it to 0 and leaves every other eigenvalue — in particular lambda2 —
  unchanged.  Matrices are evaluated at the decoder recomputed from the
  state's weights, so the deflation is exact whether or not the state is
  fully converged.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .annealing import AnnealTrace
from .probability import JointDistribution
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BottleneckState,
    Framework,
    TableBackend,
    as_framework,
)
# Bisection runs the table backend's loop; it is bound as ``solve``, the
# name perfbench/tracing.py wraps.
from .solvers import fixed_point as solve

#: Eigenvalues whose imaginary part exceeds this trigger a warning when a
#: real "second eigenvalue" is requested.
COMPLEX_WARN_TOL = 1e-8

#: Bisection halvings per bracket: 60 halvings shrink any grid bracket
#: below the spacing of doubles, so further halvings cannot move beta.
MAX_BISECT = 60


class ComplexEigenvalueWarning(UserWarning):
    """The requested dominant non-trivial eigenvalue is not real."""


@dataclass
class StabilityMatrices:
    """Per-cluster perturbation matrices at a fixed point.

    ``c_xx`` acts on input-side perturbations (``n_x`` square), ``c_yy`` on
    label-side ones (``n_y`` square); their non-zero spectra coincide, so
    every eigenvalue is read off ``c_yy``, whose spectrum is computed once
    at build time.  ``c_xx`` is built by ``build_c_xx`` on first access
    (bisection never reads it).  ``lambda_min`` records the smallest
    absolute eigenvalue of ``c_yy`` (the structural zero; a large value
    signals a malformed state and is warned about at build time).
    """

    framework: Framework
    beta: float
    cluster_index: int
    c_yy: np.ndarray
    build_c_xx: Callable[[], np.ndarray] = field(repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    lambda_min: float = field(init=False)

    def __post_init__(self):
        self.eigenvalues = np.linalg.eigvals(self.c_yy)
        self.lambda_min = float(np.min(np.abs(self.eigenvalues)))
        if self.lambda_min > COMPLEX_WARN_TOL:
            warnings.warn(
                f"structural zero eigenvalue is off by {self.lambda_min:.2e};"
                " the state is probably not a consistent fixed point",
                UserWarning, stacklevel=3)

    @cached_property
    def c_xx(self) -> np.ndarray:
        return self.build_c_xx()

    def second_eigenvalue(self) -> float:
        return _second_of_spectrum(self.eigenvalues)


def second_eigenvalue(matrix: np.ndarray) -> float:
    """Largest real part after removing the single smallest-|.| eigenvalue.

    The removed eigenvalue is the structural zero of the stability
    matrices.  Warns (``ComplexEigenvalueWarning``) if the selected
    eigenvalue has imaginary part above ``COMPLEX_WARN_TOL``; its real part
    is returned regardless.
    """
    return _second_of_spectrum(
        np.linalg.eigvals(np.asarray(matrix, dtype=float)))


def _second_of_spectrum(eigs: np.ndarray) -> float:
    if eigs.size < 2:
        return 0.0
    rest = np.delete(eigs, int(np.argmin(np.abs(eigs))))
    lam = rest[int(np.argmax(rest.real))]
    if abs(lam.imag) > COMPLEX_WARN_TOL:
        warnings.warn(
            f"dominant non-trivial eigenvalue {lam:.6g} is complex; "
            "returning its real part", ComplexEigenvalueWarning,
            stacklevel=3)
    return float(lam.real)


def build_ib_matrices(problem: JointDistribution, state: BottleneckState,
                      cluster_index: int) -> StabilityMatrices:
    """Deflated input/label stability matrices of one ib cluster.

    With ``q`` the cluster's weights row and ``dec = q @ rule`` its Bayes
    decoder row, the raw matrices are

        ``c_xx[x, x'] = sum_y rule[x, y] rule[x', y] / dec[y] * q[x']``
        ``c_yy[y, y'] = 1 / dec[y] * sum_x rule[x, y] q[x] rule[x, y']``

    both row-stochastic with left eigenvectors ``q`` and ``dec``; the
    returned matrices are deflated by ``1 q^T`` / ``1 dec^T`` respectively.
    """
    q = state.weights[cluster_index]
    rule = problem.rule
    dec = q @ rule
    scaled = rule / dec[None, :]                       # rule[x,y]/dec[y]
    c_yy = scaled.T @ (rule * q[:, None]) - dec[None, :]
    return StabilityMatrices(
        framework=Framework.IB, beta=state.beta, cluster_index=cluster_index,
        c_yy=c_yy,
        build_c_xx=lambda: (scaled @ rule.T) * q[None, :] - q[None, :])


def dual_factors(problem: JointDistribution, state: BottleneckState,
                 cluster_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank factors ``A`` (n_x, n_y) and ``B`` (n_y, n_x) of one dual
    cluster, with ``c_xx = A @ B`` and ``c_yy = B @ A``.

    ``A[x, y] = (log rule[x, y] - c[y]) * dec[y]`` with
    ``c[y] = sum_x q[x] log rule[x, y]``;
    ``B[y, x] = (log rule[x, y] - r[x]) * q[x]`` with
    ``r[x] = sum_y dec[y] log rule[x, y]``.  The centering by ``r`` makes
    ``dec @ B = 0`` hold identically, so ``c_yy`` (and hence ``c_xx``) has
    an exact zero eigenvalue.
    """
    q = state.weights[cluster_index]
    log_rule = problem.log_rule
    log_unnorm = q @ log_rule
    dec = np.exp(log_unnorm - log_unnorm.max())
    dec /= dec.sum()                                   # geometric decoder row
    centered_cols = log_rule - log_unnorm[None, :]     # log rule - c
    a = centered_cols * dec[None, :]
    r = log_rule @ dec
    b = (log_rule.T - r[None, :]) * q[None, :]
    return a, b


def build_dual_matrices(problem: JointDistribution, state: BottleneckState,
                        cluster_index: int) -> StabilityMatrices:
    """Input/label stability matrices of one dual cluster (see
    :func:`dual_factors`)."""
    a, b = dual_factors(problem, state, cluster_index)
    return StabilityMatrices(framework=Framework.DUAL, beta=state.beta,
                             cluster_index=cluster_index, c_yy=b @ a,
                             build_c_xx=lambda: a @ b)


def build_matrices(problem: JointDistribution, state: BottleneckState,
                   cluster_index: int) -> StabilityMatrices:
    if as_framework(state.framework) is Framework.IB:
        return build_ib_matrices(problem, state, cluster_index)
    return build_dual_matrices(problem, state, cluster_index)


def cluster_second_eigenvalues(problem: JointDistribution,
                               state: BottleneckState) -> np.ndarray:
    """``lambda2`` per cluster; dead clusters give ``nan``."""
    out = np.full(state.n_clusters, np.nan)
    for c in np.flatnonzero(state.alive()):
        out[c] = build_matrices(problem, state, int(c)).second_eigenvalue()
    return out


# ---------------------------------------------------------------------------
# critical point detection
# ---------------------------------------------------------------------------

@dataclass
class CriticalPoint:
    """A refined root of ``beta * lambda2(beta) = 1``."""

    framework: str
    beta: float
    lambda2: float            # evaluated at beta
    cluster_index: int        # cluster of the parent branch that destabilizes
    bracket: tuple[float, float]  # grid interval the root was found in
    residual: float           # |beta * lambda2 - 1| at the returned beta


@dataclass
class CriticalReport:
    framework: str
    points: list[CriticalPoint]

    def betas(self) -> np.ndarray:
        return np.array([p.beta for p in self.points])


def _stability_gaps(problem, state) -> np.ndarray:
    """``g = beta * lambda2 - 1`` per cluster (nan for dead clusters)."""
    lams = cluster_second_eigenvalues(problem, state)
    return state.beta * lams - 1.0


def find_critical_points(problem: JointDistribution, framework,
                         sweep_result: tuple[AnnealTrace, list], *,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         g_tol: float = 1e-9) -> CriticalReport:
    """Locate the phase transitions of one framework on a swept beta grid.

    ``sweep_result`` is the ``(trace, states)`` pair of
    :func:`bottleneck_lab.annealing.sweep` over the grid ``trace.betas``.
    Each increase of the effective cluster count between consecutive grid
    points is a bracket, refined by bisection *along the unsplit parent
    branch*: warm-started solves that skip split-and-perturb keep the
    parent's cluster count, where ``g(beta) = beta * lambda2 - 1`` is
    continuous and crosses zero exactly at the transition.

    Refinement stops when ``|g| <= g_tol`` or after ``MAX_BISECT`` halvings.
    """
    framework = as_framework(framework)
    trace, states = sweep_result
    betas = trace.betas
    counts = trace.column("effective_clusters")
    backend = TableBackend(problem, framework)

    points: list[CriticalPoint] = []
    for i in np.flatnonzero(np.diff(counts) > 0):
        parent = states[i]
        beta_lo, beta_hi = float(betas[i]), float(betas[i + 1])
        gaps_lo = _stability_gaps(problem, parent)
        state_hi, _ = solve(backend, beta_hi, init_encoder=parent.encoder,
                            tol=tol, max_iter=max_iter)
        gaps_hi = _stability_gaps(problem, state_hi)
        crossing = np.flatnonzero((gaps_lo < 0.0) & (gaps_hi >= 0.0))
        if crossing.size == 0:
            warnings.warn(
                f"cluster count grew in ({beta_lo:.6g}, {beta_hi:.6g}) but "
                "no per-cluster stability gap changes sign; skipping this "
                "bracket", UserWarning)
            continue
        for c in crossing:
            points.append(_bisect_branch(backend, parent, int(c), beta_lo,
                                         beta_hi, tol, max_iter, g_tol))
    return CriticalReport(framework=str(framework.value), points=points)


def _bisect_branch(backend, parent, cluster, beta_lo, beta_hi, tol,
                   max_iter, g_tol) -> CriticalPoint:
    lo, hi = beta_lo, beta_hi
    warm = parent
    beta_mid = 0.5 * (lo + hi)
    gap = np.nan
    lam = np.nan
    for _ in range(MAX_BISECT):
        beta_mid = 0.5 * (lo + hi)
        warm, _ = solve(backend, beta_mid, init_encoder=warm.encoder,
                        tol=tol, max_iter=max_iter)
        lam = build_matrices(backend.problem, warm,
                             cluster).second_eigenvalue()
        gap = beta_mid * lam - 1.0
        if abs(gap) <= g_tol:
            break
        if gap > 0.0:
            hi = beta_mid
        else:
            lo = beta_mid
    return CriticalPoint(framework=backend.framework.value,
                         beta=float(beta_mid), lambda2=float(lam),
                         cluster_index=cluster,
                         bracket=(beta_lo, beta_hi),
                         residual=float(abs(gap)))
