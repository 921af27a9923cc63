"""Shared generators for randomized (but fully seeded) test suites."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from bottleneck_lab.probability import JointDistribution, xlogx
from bottleneck_lab.solvers import Framework

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


def inverse_encoder(encoder: np.ndarray,
                    p_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(marginal, weights)`` implied by an encoder: ``p(xhat)`` and the
    ``(k, n_x)`` rows ``p(x | xhat)``.

    Dead clusters (zero marginal) get the prior ``p_x`` as placeholder
    weights so their decoder rows stay well-defined; they carry no mass, so
    nothing downstream depends on the placeholder.
    """
    marginal = encoder.T @ p_x
    joint = encoder * p_x[:, None]
    alive = marginal > 0.0
    joint[:, alive] /= marginal[alive]
    joint[:, ~alive] = p_x[:, None]
    return marginal, joint.T


def distortion_matrix(problem: JointDistribution, state) -> np.ndarray:
    """The ``(n_x, k)`` per-pair cost of the state's framework:
    ``KL(rule row x || decoder row c)`` for ``ib``,
    ``KL(decoder row c || rule row x)`` for ``dual``."""
    if state.framework is Framework.IB:
        rule_neg_entropy = np.sum(problem.rule * problem.log_rule, axis=1)
        return (rule_neg_entropy[:, None]
                - problem.rule @ np.log(state.decoder).T)
    dec_neg_entropy = xlogx(state.decoder).sum(axis=1)
    return dec_neg_entropy - problem.log_rule @ state.decoder.T


def direct_distortion(problem: JointDistribution, state) -> float:
    """``E[d]`` as the direct sum ``sum_x p(x) sum_c p(c|x) d(x, c)`` over
    :func:`distortion_matrix`."""
    return float(np.sum(problem.p_x[:, None] * state.encoder
                        * distortion_matrix(problem, state)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
