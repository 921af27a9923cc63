"""Built-in problems used by the docs, demos and the acceptance suite."""
from __future__ import annotations

import numpy as np

from .probability import JointDistribution

#: p(y = 0 | x) of the canonical demo problem: five equally likely input
#: symbols with graded overlap onto a binary label.  Annealed sweeps resolve
#: all five symbols one phase transition at a time, which makes this the
#: standard fixture for information-plane and critical-point checks.
BINARY_OVERLAP5_PY0 = (0.12, 0.23, 0.40, 0.60, 0.76)


def binary_overlap5() -> JointDistribution:
    """The five-input binary demo problem (uniform ``p_x``, no smoothing)."""
    py0 = np.array(BINARY_OVERLAP5_PY0)
    rule = np.column_stack([py0, 1.0 - py0])
    return JointDistribution.from_conditional(rule, smoothing_epsilon=0.0)


#: Weight of each class's own draw against the shared base in
#: :func:`make_class_mixture`, and the uniform floor mixed in afterwards.
MIXTURE_SHRINK, MIXTURE_FLOOR = 0.55, 1e-4


def make_class_mixture(n_classes: int = 8, n_x: int = 16, *,
                       seed: int = 10) -> np.ndarray:
    """Seeded overlapping class conditionals for error-rate experiments.

    Each class row is a flat-Dirichlet draw shrunk toward one shared
    flat-Dirichlet base, ``(1 - shrink) * base + shrink * row`` with
    ``shrink = MIXTURE_SHRINK``, then mixed with the small uniform floor
    ``MIXTURE_FLOOR`` so every cell is strictly positive.  The shrink/seed
    pair was chosen by measurement: classes overlap enough that a
    10000-trial run still sees error rates around 5e-3 at 256 samples (so
    decay stays quantifiable), while structure appears early enough in
    beta that compressed encoders show clear error differences.
    """
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(n_x))
    rows = rng.dirichlet(np.ones(n_x), size=n_classes)
    conditionals = (1.0 - MIXTURE_SHRINK) * base + MIXTURE_SHRINK * rows
    conditionals = (1.0 - MIXTURE_FLOOR) * conditionals + MIXTURE_FLOOR / n_x
    return conditionals / conditionals.sum(axis=1, keepdims=True)
