"""Perturbation stability of solver fixed points and phase transitions.

Linearizing the alternating updates around a fixed point yields, per
cluster, a pair of square matrices acting on input-side and label-side
perturbations.  A cluster splits (a new effective cluster appears) when
``beta * lambda2 = 1``, where ``lambda2`` is the largest non-trivial
eigenvalue of those matrices; the critical betas are the roots of
``g(beta) = beta * lambda2(beta) - 1`` along a fixed-cluster-count branch.

Both frameworks linearize the same way: :func:`cluster_factors` returns
rank factors ``A`` (n_x, n_y) and ``B`` (n_y, n_x) with ``c_xx = A @ B``
and ``c_yy = B @ A``, and the dual factors are the ib ones with the
log-rule in place of the rule.  Each pair is centered so that the
matrices carry one exact structural zero eigenvalue:

* ``ib``: ``A = rule - dec`` has rows summing to 0, so ``c_yy @ 1 = 0``
  and ``q @ c_xx = 0``.  The uncentered matrices are row-stochastic (their
  trivial eigenvalue 1 is a normalization mode, not an instability);
  centering maps that eigenvalue to 0 and leaves every other one, in
  particular lambda2, unchanged.
* ``dual``: ``B`` is centered so that the decoder row is an exact left
  null vector of ``c_yy``, for every label arity.

Factors take one cluster's input row ``q = p(x|xhat=c)`` and recompute
its decoder row from ``q``, so the zero is exact whether or not the state
is fully converged.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .annealing import AnnealTrace
from .probability import JointDistribution
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BottleneckState,
    TableBackend,
    _decode,
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
    """Per-cluster perturbation matrices from rank factors ``a``, ``b``.

    ``c_xx = a @ b`` acts on input-side perturbations (``n_x`` square),
    ``c_yy = b @ a`` on label-side ones (``n_y`` square); their non-zero
    spectra coincide, so every eigenvalue is read off ``c_yy``, whose
    spectrum is computed once at build time.  ``c_xx`` is formed only when
    read (bisection never reads it).  ``lambda_min`` records the smallest
    absolute eigenvalue of ``c_yy`` (the structural zero; a large value
    signals a malformed state and is warned about at build time).
    """

    a: np.ndarray              # (n_x, n_y)
    b: np.ndarray              # (n_y, n_x)
    c_yy: np.ndarray = field(init=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    lambda_min: float = field(init=False)

    def __post_init__(self):
        self.c_yy = self.b @ self.a
        self.eigenvalues = np.linalg.eigvals(self.c_yy)
        self.lambda_min = float(np.min(np.abs(self.eigenvalues)))
        if self.lambda_min > COMPLEX_WARN_TOL:
            warnings.warn(
                f"structural zero eigenvalue is off by {self.lambda_min:.2e};"
                " the state is probably not a consistent fixed point",
                UserWarning, stacklevel=3)

    @property
    def c_xx(self) -> np.ndarray:
        return self.a @ self.b

    def second_eigenvalue(self) -> float:
        """Largest real part after removing the single smallest-|.|
        eigenvalue, the structural zero.

        Warns (``ComplexEigenvalueWarning``) if the selected eigenvalue has
        imaginary part above ``COMPLEX_WARN_TOL``; its real part is
        returned regardless.
        """
        eigs = self.eigenvalues
        if eigs.size < 2:
            return 0.0
        rest = np.delete(eigs, int(np.argmin(np.abs(eigs))))
        lam = rest[int(np.argmax(rest.real))]
        if abs(lam.imag) > COMPLEX_WARN_TOL:
            warnings.warn(
                f"dominant non-trivial eigenvalue {lam:.6g} is complex; "
                "returning its real part", ComplexEigenvalueWarning,
                stacklevel=2)
        return float(lam.real)


def cluster_factors(backend: TableBackend,
                    q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank factors ``A`` (n_x, n_y) and ``B`` (n_y, n_x) of the cluster
    with input row ``q = p(x|xhat)``, with ``c_xx = A @ B`` and
    ``c_yy = B @ A``, on the decoder row ``dec`` that ``_decode`` forms
    from the statistics row ``[q @ W | 1]`` of a table backend's rows
    ``W = backend.w`` (a reduced backend raises ``ValueError``):

    * ``ib``: ``A = rule - dec`` and ``B[y, x] = rule[x, y] q[x] / dec[y]``,
      with ``dec = q @ rule`` the Bayes decoder row.
    * ``dual``: ``A[x, y] = (log rule[x, y] - c[y]) * dec[y]`` with
      ``c = q @ log rule`` and ``dec`` the geometric decoder row
      ``exp(c - logsumexp(c))``; ``B[y, x] = (log rule[x, y] - r[x]) * q[x]``
      with ``r[x] = sum_y dec[y] log rule[x, y]``, so ``dec @ B = 0``.
    """
    if backend.v is not None:
        raise ValueError("a reduced backend's lambda2 needs the covariance "
                         "form of ROADMAP item 15")
    framework, w = backend.framework, backend.w
    row = q @ w
    dec = _decode(framework, np.append(row, 1.0)[None, :])[0][0]
    if framework == "ib":
        return w - dec[None, :], (w * q[:, None]).T / dec[:, None]
    a = (w - row[None, :]) * dec[None, :]
    b = (w.T - (w @ dec)[None, :]) * q[None, :]
    return a, b


def build_matrices(backend: TableBackend, q: np.ndarray) -> StabilityMatrices:
    return StabilityMatrices(*cluster_factors(backend, q))


def _cluster_gap(backend: TableBackend, state: BottleneckState,
                 c: int) -> tuple[float, float]:
    """``(g, lambda2)`` of alive cluster ``c``, ``g = beta * lambda2 - 1``,
    from its input row ``q = p(x | xhat=c)``."""
    q = state.encoder[:, c] * backend.problem.p_x / state.marginal[c]
    lam = build_matrices(backend, q).second_eigenvalue()
    return state.beta * lam - 1.0, lam


def stability_gaps(backend: TableBackend,
                   state: BottleneckState) -> np.ndarray:
    """``g = beta * lambda2 - 1`` per cluster; dead clusters give ``nan``."""
    gaps = np.full(state.n_clusters, np.nan)
    for c in np.flatnonzero(state.alive()):
        gaps[c] = _cluster_gap(backend, state, c)[0]
    return gaps


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


def find_critical_points(problem: JointDistribution,
                         sweep_result: tuple[AnnealTrace, list], *,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         g_tol: float = 1e-9) -> list[CriticalPoint]:
    """Locate the phase transitions of a sweep on its beta grid.

    ``sweep_result`` is the ``(trace, states)`` pair of
    :func:`bottleneck_lab.annealing.sweep` over the grid ``trace.betas``;
    the refinement runs in the sweep's framework, ``trace.framework``.
    Each increase of the effective cluster count between consecutive grid
    points is a bracket, refined by bisection *along the unsplit parent
    branch*: warm-started solves that skip split-and-perturb keep the
    parent's cluster count, where ``g(beta) = beta * lambda2 - 1`` is
    continuous and crosses zero exactly at the transition.

    Refinement stops when ``|g| <= g_tol`` or after ``MAX_BISECT`` halvings.
    Returns the refined points in grid order.
    """
    trace, states = sweep_result
    betas = trace.betas
    counts = trace.column("effective_clusters")
    backend = TableBackend(problem, trace.framework)

    points: list[CriticalPoint] = []
    for i in np.flatnonzero(np.diff(counts) > 0):
        parent = states[i]
        beta_lo, beta_hi = float(betas[i]), float(betas[i + 1])
        gaps_lo = stability_gaps(backend, parent)
        state_hi, _ = solve(backend, beta_hi, init_encoder=parent.encoder,
                            tol=tol, max_iter=max_iter)
        gaps_hi = stability_gaps(backend, state_hi)
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
    return points


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
        gap, lam = _cluster_gap(backend, warm, cluster)
        if abs(gap) <= g_tol:
            break
        if gap > 0.0:
            hi = beta_mid
        else:
            lo = beta_mid
    return CriticalPoint(framework=backend.framework,
                         beta=float(beta_mid), lambda2=float(lam),
                         cluster_index=cluster,
                         bracket=(beta_lo, beta_hi),
                         residual=float(abs(gap)))
