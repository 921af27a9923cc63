"""Discrete bottleneck solvers and analysis tools.

The package implements two compression frameworks over a finite joint
distribution — the classic information bottleneck (``ib``) and its
prediction-side counterpart (``dual``, reversed-KL cost with a geometric
decoder) — plus the machinery built on top of them: deterministic-annealing
sweeps, phase-transition (critical point) detection via perturbation
eigenvalues, a reduced sufficient-statistics solver for exponential-family
rules, and finite-sample prediction-error experiments.
"""
from __future__ import annotations

import os


def _cap_blas_threads() -> None:
    """Honor ``BOTTLENECK_LAB_THREADS`` before numpy starts BLAS pools.

    Runs at package import (the only reliable spot ahead of the numpy
    import below).  Explicitly-set pool variables are left alone.
    """
    cap = os.environ.get("BOTTLENECK_LAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_cap_blas_threads()

from .annealing import (  # noqa: E402
    AnnealTrace,
    SplitConfig,
    SweepRecord,
    log_grid,
    merge_close_clusters,
    run_sweep,
    split_and_perturb,
    sweep,
    sweep_with_states,
    trace_from_csv,
    trace_to_csv,
)
from .datasets import binary_overlap5, make_class_mixture  # noqa: E402
from .expfamily import (  # noqa: E402
    ClosedFormInformation,
    ExactFitError,
    ExpFamilyModel,
    ExpState,
    closed_information,
    derive_exp_state,
    exp_solve,
    exp_sweep,
    exp_sweep_with_states,
)
from .prediction import (  # noqa: E402
    ClassificationProblem,
    ErrorCurve,
    chernoff_information,
    error_curves_to_csv,
    mean_exponent_bound,
    run_prediction_experiment,
    tilted_mixture,
)
from .probability import (  # noqa: E402
    DEFAULT_SMOOTHING,
    DistributionError,
    JointDistribution,
    NormalizationError,
    UndefinedDivergenceError,
    entropy,
    kl_divergence,
    mutual_information,
)
from .solvers import (  # noqa: E402
    BottleneckState,
    Framework,
    SolveReport,
    derive_state,
    distortion_matrix,
    dual_distortion_split,
    encoder_update,
    expected_distortion,
    functional_value,
    information_point,
    solve,
)
from .stability import (  # noqa: E402
    ComplexEigenvalueWarning,
    CriticalPoint,
    CriticalReport,
    StabilityMatrices,
    build_dual_matrices,
    build_ib_matrices,
    build_matrices,
    cluster_second_eigenvalues,
    find_critical_points,
    second_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealTrace",
    "SplitConfig",
    "SweepRecord",
    "log_grid",
    "merge_close_clusters",
    "run_sweep",
    "split_and_perturb",
    "sweep",
    "sweep_with_states",
    "trace_from_csv",
    "trace_to_csv",
    "binary_overlap5",
    "make_class_mixture",
    "ClosedFormInformation",
    "ExactFitError",
    "ExpFamilyModel",
    "ExpState",
    "closed_information",
    "derive_exp_state",
    "exp_solve",
    "exp_sweep",
    "exp_sweep_with_states",
    "ClassificationProblem",
    "ErrorCurve",
    "chernoff_information",
    "error_curves_to_csv",
    "mean_exponent_bound",
    "run_prediction_experiment",
    "tilted_mixture",
    "DEFAULT_SMOOTHING",
    "DistributionError",
    "JointDistribution",
    "NormalizationError",
    "UndefinedDivergenceError",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "BottleneckState",
    "Framework",
    "SolveReport",
    "derive_state",
    "distortion_matrix",
    "dual_distortion_split",
    "encoder_update",
    "expected_distortion",
    "functional_value",
    "information_point",
    "solve",
    "ComplexEigenvalueWarning",
    "CriticalPoint",
    "CriticalReport",
    "StabilityMatrices",
    "build_dual_matrices",
    "build_ib_matrices",
    "build_matrices",
    "cluster_second_eigenvalues",
    "find_critical_points",
    "second_eigenvalue",
    "__version__",
]
