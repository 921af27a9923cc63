"""Deterministic-annealing sweeps over an ascending beta grid.

A sweep warm-starts each grid point from the previous solution, after a
split-and-perturb step that duplicates every cluster and nudges the copies
apart.  Below a phase transition the copies fall back together and are
re-merged; past one they separate and the effective cluster count grows.
The recorded trace is the raw material for information-plane curves and for
critical-point detection.

Reproducibility: the perturbation noise at grid index ``i`` comes from
``np.random.default_rng([seed, i])``, so traces are bit-identical across
runs and independent of how earlier grid points were computed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# mutual_information is unused here; perfbench/tracing.py patches it by name.
from .probability import JointDistribution, mutual_information  # noqa: F401
from .solvers import (DEAD_CLUSTER_MASS, DEFAULT_MAX_ITER, DEFAULT_TOL,
                      TableBackend)
# Sweeps run any backend, so they call its loop directly; it is bound as
# ``solve``, the name perfbench/tracing.py wraps.
from .solvers import fixed_point as solve


@dataclass
class SplitConfig:
    """Split-and-perturb knobs for annealed sweeps."""

    eps: float = 1e-3        # relative magnitude of the multiplicative noise
    merge_tol: float = 1e-4  # sup-norm distance of decoder rows to re-merge
    seed: int = 0            # root seed of the per-grid-point noise streams


@dataclass
class SweepRecord:
    """One converged grid point.  Information values in nats."""

    beta: float
    i_x: float
    i_y: float
    functional: float
    n_iterations: int
    effective_clusters: int
    converged: bool
    decoder: np.ndarray  # (k, n_y) rows of the merged state


@dataclass
class AnnealTrace:
    framework: str
    n_y: int
    records: list[SweepRecord] = field(default_factory=list)

    @property
    def betas(self) -> np.ndarray:
        return np.array([r.beta for r in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def log_grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    """Geometric grid from ``lo`` to ``hi`` inclusive."""
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"beta grid needs finite 0 < lo < hi, got "
                         f"lo={lo}, hi={hi}")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.geomspace(lo, hi, n_points)


def split_and_perturb(encoder: np.ndarray, eps: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Duplicate every cluster column and apply multiplicative noise.

    Children sit at adjacent columns ``2c`` and ``2c + 1``.  Each cell is
    scaled by ``1 + eps * u`` with ``u ~ U(-1, 1)``, so ``0 <= eps < 1``
    keeps every cell's sign; rows are renormalized, so with ``eps = 0`` the
    children are exact halves of the parent.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be >= 0 and < 1, got {eps}")
    children = np.repeat(encoder, 2, axis=1)
    children = children * (1.0 + eps * rng.uniform(-1.0, 1.0,
                                                   size=children.shape))
    children /= children.sum(axis=1, keepdims=True)
    return children


def merge_close_clusters(encoder: np.ndarray, decoder: np.ndarray,
                         marginal: np.ndarray, merge_tol: float) -> np.ndarray:
    """Re-combine clusters whose decoder rows agree within ``merge_tol``.

    Groups greedily by lowest index: a column joins the first earlier
    representative whose decoder row is within sup-norm ``merge_tol``.
    Encoder columns of a group are summed (mass-conserving); dead groups
    (total mass at most ``DEAD_CLUSTER_MASS``) are dropped, since they
    cannot re-acquire mass and would otherwise double on every split.
    """
    k = encoder.shape[1]
    representative: list[int] = []
    columns: list[np.ndarray] = []
    masses: list[float] = []
    for c in range(k):
        for g, rep in enumerate(representative):
            if np.max(np.abs(decoder[c] - decoder[rep])) < merge_tol:
                columns[g] = columns[g] + encoder[:, c]
                masses[g] += marginal[c]
                break
        else:
            representative.append(c)
            columns.append(encoder[:, c].copy())
            masses.append(float(marginal[c]))
    keep = [g for g, mass in enumerate(masses) if mass > DEAD_CLUSTER_MASS]
    if not keep:  # pathological, but never lose the whole encoder
        keep = list(range(len(columns)))
    return np.column_stack([columns[g] for g in keep])


def run_sweep(backend, betas, split: SplitConfig, tol: float,
              max_iter: int) -> tuple[AnnealTrace, list]:
    """Drive a solver backend through the split/solve/merge schedule.

    A backend offers ``framework``, ``n_x``, ``n_y``, ``derive``,
    ``stepper`` and ``observables`` (see
    :class:`bottleneck_lab.solvers.TableBackend`); its states expose
    ``encoder``, ``marginal``, ``decoder`` and ``effective_clusters()``.
    The sweep carries encoders: starting from one cluster, each grid point
    splits the previous encoder, solves from it and merges, deriving a
    state again only when the merge changed the width.  Returns the trace
    plus the per-grid-point states (aligned with ``trace.records``).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("betas must be a non-empty 1-D array")
    if not (np.all(np.isfinite(betas)) and betas[0] > 0.0
            and np.all(np.diff(betas) > 0.0)):
        raise ValueError("betas must be finite, positive and strictly "
                         "increasing")
    if not split.merge_tol > 0.0:
        # at 0 no rows merge, so every grid point doubles the clusters
        raise ValueError("merge_tol must be positive")

    trace = AnnealTrace(framework=backend.framework, n_y=backend.n_y)
    states = []
    encoder = np.ones((backend.n_x, 1))
    for i, beta in enumerate(betas):
        rng = np.random.default_rng([split.seed, i])
        encoder = split_and_perturb(encoder, split.eps, rng)
        state, report = solve(backend, beta, init_encoder=encoder, tol=tol,
                              max_iter=max_iter)
        merged = merge_close_clusters(state.encoder, state.decoder,
                                      state.marginal, split.merge_tol)
        if merged.shape[1] != state.encoder.shape[1]:
            state = backend.derive(merged, beta)
        encoder = state.encoder
        i_x, i_y, _, functional = backend.observables(state)
        trace.records.append(SweepRecord(
            beta=float(beta), i_x=i_x, i_y=i_y, functional=functional,
            n_iterations=report.n_iterations,
            effective_clusters=state.effective_clusters(),
            converged=report.converged, decoder=state.decoder.copy()))
        states.append(state)
    return trace, states


def sweep(problem: JointDistribution, framework, betas, *,
          split: SplitConfig | None = None, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> tuple[AnnealTrace, list]:
    """Annealed sweep of one framework over an ascending beta grid: the
    trace and the per-grid-point states, as :func:`run_sweep` returns."""
    return run_sweep(TableBackend(problem, framework), betas,
                     split or SplitConfig(), tol, max_iter)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

_SCALAR_COLUMNS = ("beta", "i_x", "i_y", "functional", "n_iterations",
                   "effective_clusters", "converged")


def _decoder_headers(width: int, n_y: int) -> list[str]:
    return [f"dec_xhat{c}_y{y}" for c in range(width) for y in range(n_y)]


def trace_to_csv(trace: AnnealTrace, path) -> None:
    """Write a trace as CSV; floats use ``repr`` so parsing is lossless.

    Decoder rows are flattened into ``dec_xhat{c}_y{y}`` columns sized for
    the widest record; records with fewer clusters leave the extra cells
    empty.  Values are in nats (see the ``units`` column).
    """
    width = max((r.decoder.shape[0] for r in trace.records), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["framework", *_SCALAR_COLUMNS, "units",
                         *_decoder_headers(width, trace.n_y)])
        for r in trace.records:
            cells = [trace.framework,
                     repr(r.beta), repr(r.i_x), repr(r.i_y),
                     repr(r.functional), str(r.n_iterations),
                     str(r.effective_clusters),
                     "true" if r.converged else "false", "nats"]
            flat = [repr(float(v)) for v in r.decoder.ravel()]
            flat += [""] * (width * trace.n_y - len(flat))
            writer.writerow(cells + flat)
