"""Shared generators for randomized (but fully seeded) test suites."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from bottleneck_lab.probability import JointDistribution

#: Property tests draw the same examples on every run and keep no example
#: database, so the suite's verdict is reproducible.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None,
                             derandomize=True, database=None)


def random_problem(rng: np.random.Generator, n_x: int | None = None,
                   n_y: int | None = None) -> JointDistribution:
    """A random strictly positive problem with bounded log-ratios.

    Dirichlet draws are mixed with a pinch of uniform so no cell gets small
    enough to blow up KL magnitudes or perturbation-matrix norms; that keeps
    tolerance-based assertions meaningful across thousands of draws.
    """
    if n_x is None:
        n_x = int(rng.integers(2, 9))
    if n_y is None:
        n_y = int(rng.integers(2, 5))
    rows = rng.dirichlet(np.full(n_y, 1.5), size=n_x)
    rows = 0.95 * rows + 0.05 / n_y
    p_x = rng.dirichlet(np.full(n_x, 2.0))
    p_x = 0.9 * p_x + 0.1 / n_x
    return JointDistribution.from_conditional(rows, p_x,
                                              smoothing_epsilon=0.0)


def random_encoder(rng: np.random.Generator, n_x: int, k: int) -> np.ndarray:
    enc = rng.dirichlet(np.ones(k), size=n_x)
    return enc


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
