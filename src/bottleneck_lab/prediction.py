"""Multi-class prediction-error experiments and exponent bounds.

Ties the solvers to downstream classification: Chernoff information for
pairwise exponents, the cluster-averaged exponent bound that the
prediction-side functional dominates, and a seeded Monte-Carlo experiment
measuring misclassification rates of encoder-compressed empirical
distributions as the test-set size grows.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .annealing import SplitConfig, sweep
from .probability import (
    DistributionError,
    JointDistribution,
    as_distribution,
    as_marginal,
    logsumexp,
    rel_entr,
    smooth_rows,
)
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BottleneckState,
    Framework,
    as_framework,
    state_observables,
)

#: Golden ratio conjugate: interval shrink factor per golden-section step.
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

#: Golden-section search stops once its bracket on ``lam`` is this narrow.
CHERNOFF_TOL = 1e-9

#: Targets beta = 2, 4, ..., 64 land exactly on this warm-start ladder.
WARM_LADDER = np.exp2(np.arange(-2.0, 6.25, 0.25))

DEFAULT_BETAS = np.exp2(np.arange(1.0, 7.0))        # log2 beta in 1..6
DEFAULT_N_VALUES = tuple(2 ** k for k in range(9))  # 1, 2, 4, ..., 256


def chernoff_information(p0, p1) -> tuple[float, float]:
    """Best achievable pairwise error exponent and its mixing weight.

    Minimizes the log-partition ``g(lam) = log sum_x p0^lam p1^(1-lam)``
    over ``lam in (0, 1)`` by golden-section search (``g`` is convex; the
    bracket shrinks below ``CHERNOFF_TOL``) and returns ``(-g(lam*), lam*)``.
    Identical inputs return ``(0.0, 0.5)`` by convention.  At the
    minimizer the tilted distribution ``p_lam* ∝ p0^lam* p1^(1-lam*)`` is
    equidistant from both inputs in divergence; the residual distance gap
    scales with ``CHERNOFF_TOL`` times the curvature of ``g``.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape or p0.ndim != 1:
        raise ValueError("p0 and p1 must be 1-D with matching length")
    if np.any(p0 <= 0.0) or np.any(p1 <= 0.0):
        raise DistributionError(
            "chernoff_information needs strictly positive vectors; "
            "smooth first")
    if np.array_equal(p0, p1):
        return 0.0, 0.5
    log0 = np.log(p0)
    log1 = np.log(p1)

    def g(lam: float) -> float:
        return float(logsumexp(lam * log0 + (1.0 - lam) * log1))

    a, b = 0.0, 1.0
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    g_c, g_d = g(c), g(d)
    while b - a > CHERNOFF_TOL:
        if g_c <= g_d:
            b, d, g_d = d, c, g_c
            c = b - GOLDEN * (b - a)
            g_c = g(c)
        else:
            a, c, g_c = c, d, g_d
            d = a + GOLDEN * (b - a)
            g_d = g(d)
    lam = 0.5 * (a + b)
    return -g(lam), lam


def tilted_mixture(p0, p1, lam: float) -> np.ndarray:
    """The normalized geometric intermediate ``p_lam ∝ p0^lam p1^(1-lam)``."""
    log_mix = lam * np.log(p0) + (1.0 - lam) * np.log(p1)
    return np.exp(log_mix - logsumexp(log_mix))


def mean_exponent_bound(state: BottleneckState,
                        joint: JointDistribution) -> float:
    """Cluster-averaged classification exponent at a solver state.

    Evaluates ``E over p(y, cluster) of D[p(x|cluster) || p(x|y)]`` over
    the alive clusters, with the state's own decoder supplying
    ``p(y|cluster)``.  For a prediction-side state with ``beta >= 1`` this
    provably cannot exceed the state's functional (the gap is
    ``(beta - 1) E[d]`` plus a decoder divergence, both non-negative), and
    that is asserted; for ``beta < 1`` the slack terms can change sign, so
    a violation only warns.
    """
    alive = state.alive()
    marginal = state.marginal[alive]
    inputs = (state.encoder[:, alive] * joint.p_x[:, None] / marginal).T
    cond = joint.joint / joint.p_y[None, :]  # columns p(x | y)
    kl_matrix = rel_entr(inputs[:, None, :],
                         cond.T[None, :, :]).sum(axis=-1)  # (k, n_y)
    bound = float(np.sum(marginal[:, None] * state.decoder[alive]
                         * kl_matrix))
    if state.framework is Framework.DUAL:
        functional = state_observables(joint, state)[3]
        if state.beta >= 1.0 and not bound <= functional + 1e-9:
            raise AssertionError(
                f"exponent bound {bound:.12g} exceeds the functional "
                f"{functional:.12g} at beta = {state.beta:g}")
        if state.beta < 1.0 and not bound <= functional + 1e-9:
            warnings.warn(
                f"exponent bound {bound:.6g} exceeds the functional "
                f"{functional:.6g} at beta = {state.beta:g} < 1; the "
                "domination argument needs beta >= 1", UserWarning)
    return bound


@dataclass
class ClassificationProblem:
    """M classes over a finite input alphabet.

    ``class_conditionals`` rows are ``p(x | class)``; ``prior`` defaults
    to uniform.  They are checked and renormalized by
    :func:`~bottleneck_lab.probability.as_distribution` and
    :func:`~bottleneck_lab.probability.as_marginal`; a nonzero
    ``smoothing_epsilon`` (in ``[0, 1)``) is then added to every
    conditional cell and the rows renormalized.  ``joint()`` assembles the
    induced solver problem whose rule is ``p(class | x)``.
    """

    class_conditionals: np.ndarray  # (M, n_x)
    prior: np.ndarray | None = None
    smoothing_epsilon: InitVar[float] = 0.0

    def __post_init__(self, smoothing_epsilon):
        cond = as_distribution(self.class_conditionals, "class_conditionals",
                               axis=1)
        if min(cond.shape) < 2:
            raise DistributionError("class_conditionals needs at least two "
                                    "classes and two inputs")
        if smoothing_epsilon:  # unsmoothed rows are renormalized only once
            cond = smooth_rows(cond, smoothing_epsilon)
        if np.any(cond <= 0.0):
            raise DistributionError(
                "class conditionals must be strictly positive; smooth "
                "first")
        self.class_conditionals = cond
        self.prior = as_marginal(self.prior, "prior", self.n_classes)

    @property
    def n_classes(self) -> int:
        return self.class_conditionals.shape[0]

    @property
    def n_x(self) -> int:
        return self.class_conditionals.shape[1]

    def joint(self) -> JointDistribution:
        joint_xy = (self.prior[:, None] * self.class_conditionals).T
        return JointDistribution.from_joint(joint_xy)


@dataclass
class ErrorCurve:
    """Misclassification rate versus test-set size for one trained
    encoder.  ``ci_halfwidth`` entries are normal-approximation 95%
    binomial half-widths."""

    framework: str
    beta: float
    n_values: np.ndarray
    p_err: np.ndarray
    ci_halfwidth: np.ndarray
    trials: int
    seed: int


#: Rows of the ``(trials, max_n)`` uniform block drawn and binned at a time.
_SAMPLE_CHUNK = 1024

#: A row is left to the exact divergences when a second score lies within
#: ``_TIE_RTOL * (1 + |best|)`` of its best score.
_TIE_RTOL = 1e-8


def _empirical_counts(problem: ClassificationProblem, n_values, trials: int,
                      seed: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Common-random-number sample streams for the whole experiment.

    One generator seeded by ``seed`` draws the class labels and then the
    ``(trials, max_n)`` uniform block, ``_SAMPLE_CHUNK`` rows at a time
    from the same stream (so the block equals one single draw); those
    fixed draws are turned into per-class samples by inverse CDF, so every
    (framework, beta) pairing sees identical data.  Returns the labels
    and, per test size ``n``, the empirical input distribution of the
    first ``n`` samples of each trial.
    """
    rng = np.random.default_rng(seed)
    sizes = sorted(int(n) for n in n_values)
    max_n = sizes[-1]
    n_x = problem.n_x
    ys = rng.integers(0, problem.n_classes, size=trials)
    cdfs = np.cumsum(problem.class_conditionals, axis=1)
    cdfs[:, -1] = 1.0
    phats = {n: np.empty((trials, n_x)) for n in sizes}
    for lo in range(0, trials, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, trials)
        us = rng.random((hi - lo, max_n))
        labels = ys[lo:hi]
        # cell index row * n_x + x of every sample, binned segment by segment
        cells = np.empty(us.shape, dtype=np.intp)
        for c in range(problem.n_classes):
            mask = labels == c
            cells[mask] = np.searchsorted(cdfs[c], us[mask], side="right")
        cells += np.arange(0, (hi - lo) * n_x, n_x)[:, None]
        counts = np.zeros((hi - lo) * n_x, dtype=np.intp)
        prev = 0
        for n in sizes:
            counts += np.bincount(cells[:, prev:n].ravel(),
                                  minlength=counts.size)
            prev = n
            phats[n][lo:hi] = counts.reshape(hi - lo, n_x) / n
    return ys, phats


def _divergence_argmin(pushed: np.ndarray,
                       references: np.ndarray) -> np.ndarray:
    """Row-wise ``argmin_i sum(rel_entr(pushed, references[i]))``, ties to
    the lowest ``i``: the classifier's exact rule."""
    divergences = np.stack(
        [rel_entr(pushed, reference[None, :]).sum(axis=1)
         for reference in references], axis=1)
    return np.argmin(divergences, axis=1)


def _min_divergence_decisions(pushed: np.ndarray,
                              references: np.ndarray) -> np.ndarray:
    """The decisions of :func:`_divergence_argmin`, mostly from one product.

    ``D[t, i] = sum p log p - sum p log r_i`` and the first term does not
    depend on the class, so a row's argmin is that of the cross-entropy
    scores ``-log(references) @ pushed.T``.  Duplicate reference rows are
    scored once, under their lowest class index.  Rounding can still part
    the two orders when scores nearly tie, so a row goes to the exact rule
    when another score lies within ``_TIE_RTOL * (1 + |best|)`` of its
    best, when any of its scores is not finite, or when only one distinct
    reference is left.  The margin is far above the rounding of either
    sum (a few ulps per cluster, times the score plus ``log k``), and a
    one-cluster encoder, whose references equal 1 within an ulp, sends
    every row to the exact rule.
    """
    _, first = np.unique(references, axis=0, return_index=True)
    keep = np.sort(first)
    if keep.size == 1:
        return _divergence_argmin(pushed, references)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = -np.log(references[keep]) @ pushed.T  # (classes, trials)
        low = scores.min(axis=0)
        close = scores <= low + _TIE_RTOL * (1.0 + np.abs(low))
    exact = ((np.count_nonzero(close, axis=0) != 1)
             | ~np.isfinite(scores).all(axis=0))
    decisions = keep @ close  # the one close class of every clear row
    if exact.any():
        decisions[exact] = _divergence_argmin(pushed[exact], references)
    return decisions


def run_prediction_experiment(problem: ClassificationProblem, frameworks,
                              beta_list=None, n_values=None,
                              trials: int = 10_000, seed: int = 0, *,
                              split: SplitConfig | None = None,
                              tol: float = DEFAULT_TOL,
                              max_iter: int = DEFAULT_MAX_ITER
                              ) -> list[ErrorCurve]:
    """Misclassification curves of each framework's trained encoders.

    ``frameworks`` is one framework or a sequence of them; the curves come
    framework by framework, each in ``beta_list`` order.  For each
    ``beta`` (trained once by an annealed warm-start sweep), each
    trial draws a class label uniformly, forms the empirical input
    distribution of ``n`` i.i.d. samples from ``p(x|y)``, pushes it
    through the trained encoder, and classifies by minimum divergence to
    the per-class pushforwards ``p(x|y_i) @ encoder``; ties take the
    lowest class index, and a class at infinite divergence merely drops
    out of the argmin.  Per (framework, beta, n) the argmin is read off
    the cross-entropy scores, one ``(classes, k) @ (k, trials)`` product;
    rows whose best two scores nearly tie, or that hold a non-finite
    score, are decided by the exact ``rel_entr`` divergences instead, so
    every decision is the exact rule's (:func:`_min_divergence_decisions`).
    Sample streams are common random numbers, drawn once per call: every
    framework and beta sees identical draws, and runs with equal ``seed``
    reuse them.
    """
    if isinstance(frameworks, str):  # Framework members are strings too
        frameworks = (frameworks,)
    frameworks = [as_framework(f) for f in frameworks]
    beta_list = np.asarray(DEFAULT_BETAS if beta_list is None
                           else beta_list, dtype=float)
    n_values = np.asarray(DEFAULT_N_VALUES if n_values is None
                          else n_values, dtype=int)
    if np.any(n_values < 1) or np.any(np.diff(n_values) <= 0):
        raise ValueError("n_values must be increasing positive integers")
    if trials < 1:
        raise ValueError("trials must be positive")

    joint = problem.joint()
    grid = np.union1d(WARM_LADDER, beta_list)
    ys, phats = _empirical_counts(problem, n_values, trials, seed)

    curves: list[ErrorCurve] = []
    for framework in frameworks:
        _, states = sweep(joint, framework, grid, split=split, tol=tol,
                          max_iter=max_iter)
        for beta in beta_list:
            state = states[int(np.searchsorted(grid, beta))]
            encoder = state.encoder[:, state.alive()]
            references = problem.class_conditionals @ encoder  # (M, k)
            p_err = np.empty(n_values.size)
            for j, n in enumerate(n_values):
                pushed = phats[int(n)] @ encoder  # (trials, k)
                decisions = _min_divergence_decisions(pushed, references)
                p_err[j] = np.mean(decisions != ys)
            half = 1.96 * np.sqrt(p_err * (1.0 - p_err) / trials)
            curves.append(ErrorCurve(
                framework=str(framework.value), beta=float(beta),
                n_values=n_values.copy(), p_err=p_err, ci_halfwidth=half,
                trials=trials, seed=seed))
    return curves


def error_curves_to_csv(curves: list[ErrorCurve], path) -> None:
    """One row per (framework, beta, n); floats use ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["framework", "beta", "n", "p_err", "ci_halfwidth",
                         "trials", "seed"])
        for curve in curves:
            for n, err, half in zip(curve.n_values, curve.p_err,
                                    curve.ci_halfwidth):
                writer.writerow([curve.framework, repr(curve.beta), int(n),
                                 repr(float(err)), repr(float(half)),
                                 curve.trials, curve.seed])
