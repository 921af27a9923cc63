"""Discrete bottleneck solvers and analysis tools.

The package implements two compression frameworks over a finite joint
distribution — the classic information bottleneck (``ib``) and its
prediction-side counterpart (``dual``, reversed-KL cost with a geometric
decoder) — plus the machinery built on top of them: deterministic-annealing
sweeps, phase-transition (critical point) detection via perturbation
eigenvalues, a reduced sufficient-statistics solver for exponential-family
rules, and finite-sample prediction-error experiments.

The package root re-exports nothing; import the submodules
(``bottleneck_lab.solvers``, ``bottleneck_lab.annealing``, ...).
"""
from __future__ import annotations


def _cap_blas_threads() -> None:
    """Honor ``BOTTLENECK_LAB_THREADS`` before numpy starts BLAS pools.

    Runs at package import, which precedes every submodule's numpy
    import.  Explicitly-set pool variables are left alone.
    """
    import os

    cap = os.environ.get("BOTTLENECK_LAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_cap_blas_threads()

__version__ = "0.1.0"
