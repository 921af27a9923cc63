"""Multi-class prediction-error experiments.

Ties the solvers to downstream classification: Chernoff information for
pairwise exponents, and a seeded Monte-Carlo experiment measuring
misclassification rates of encoder-compressed empirical distributions as
the test-set size grows.
"""
from __future__ import annotations

import csv
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
from .solvers import DEFAULT_MAX_ITER, DEFAULT_TOL, as_framework

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
    Each input must be strictly positive and finite and sum to 1 within
    ``INPUT_SUM_TOL``, and is renormalized once by
    :func:`~bottleneck_lab.probability.as_distribution`; a farther sum
    raises ``NormalizationError`` naming ``p0`` or ``p1``.  Identical
    inputs return ``(0.0, 0.5)`` by convention.  At the minimizer the
    tilted distribution ``p_lam* ∝ p0^lam* p1^(1-lam*)`` is equidistant
    from both inputs in divergence; the residual distance gap scales with
    ``CHERNOFF_TOL`` times the curvature of ``g``.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape or p0.ndim != 1:
        raise ValueError("p0 and p1 must be 1-D with matching length")
    pair = np.stack([p0, p1])
    if not np.all((pair > 0.0) & (pair < np.inf)):  # NaN fails both
        raise DistributionError(
            "chernoff_information needs strictly positive finite vectors; "
            "smooth first")
    p0 = as_distribution(p0, "p0")
    p1 = as_distribution(p1, "p1")
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
        p_x = joint_xy.sum(axis=1)
        return JointDistribution.from_conditional(joint_xy / p_x[:, None], p_x)


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


#: Cells of a chunk's uniforms ``(trials, max_n)`` or, if more, of its laws
#: ``(sizes, trials, n_x)``: 1024 trials at max n = 256 (9 sizes, n_x 16).
_SAMPLE_CELLS = 2**18

#: Uniforms drawn and looked up at a time within a chunk (whole rows, at
#: least one), so the uniforms and their bucket indices take 512 KiB each
#: rather than a whole chunk's 2 MiB.
_LOOKUP_CELLS = 2**16

#: The inverse-CDF bucket table has at least this many buckets per input,
#: so at most 1/16 of the uniforms fall in a bucket that holds a CDF step.
_BUCKETS_PER_INPUT = 16

#: A row is left to the exact divergences when a second score lies within
#: ``_TIE_RTOL * (1 + |best|)`` of its best score.
_TIE_RTOL = 1e-8


def _bucket_table(cdfs: np.ndarray) -> np.ndarray:
    """Bucket ("guide") table of the classes' inverse CDFs (Chen & Asau
    1974), ``(classes, B)``.

    ``B`` is the smallest power of two at least
    ``_BUCKETS_PER_INPUT * n_x``.  Cell ``[c, b]`` holds the input
    ``searchsorted(cdfs[c], u, side="right")`` shared by every uniform
    ``u`` in ``[b / B, (b + 1) / B)`` when they all share one, and the
    sentinel ``n_x`` when a step of the CDF falls inside the bucket.  At
    most ``n_x - 1`` of a class's ``B`` buckets hold a step, so under
    1/16 of the uniforms hit the sentinel.  Cells take the smallest
    unsigned type that holds ``n_x``.
    """
    n_classes, n_x = cdfs.shape
    buckets = 1 << (_BUCKETS_PER_INPUT * n_x - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets  # exact: a power of two
    table = np.empty((n_classes, buckets), dtype=np.min_scalar_type(n_x))
    for c, cdf in enumerate(cdfs):
        lo = np.searchsorted(cdf, edges[:-1], side="right")
        hi = np.searchsorted(cdf, edges[1:], side="left")
        table[c] = np.where(lo == hi, lo, n_x)
    return table


def _inverse_cdf(table: np.ndarray, cdfs: np.ndarray, labels: np.ndarray,
                 us: np.ndarray) -> np.ndarray:
    """``searchsorted(cdfs[labels[r]], us[r], side="right")`` for every row
    ``r`` of the uniform block ``us``, in the table's small type.

    Each uniform reads its cell of :func:`_bucket_table`; the few that hit
    the sentinel are searched per class.  ``us`` is scaled by the bucket
    count in place, which is exact, as that count is a power of two.
    """
    buckets = table.shape[1]
    us *= buckets
    index = us.astype(np.intp)  # floor: the uniforms are non-negative
    index += (labels * buckets)[:, None]
    cells = table.take(index)
    flat_cells, flat_us = cells.reshape(-1), us.reshape(-1)
    miss = np.flatnonzero(flat_cells == cdfs.shape[1])
    classes = labels[miss // us.shape[1]]
    for c, cdf in enumerate(cdfs):
        at = miss[classes == c]
        flat_cells[at] = np.searchsorted(cdf, flat_us[at] / buckets,
                                         side="right")
    return cells


def _empirical_counts(rng: np.random.Generator, cdfs: np.ndarray,
                      table: np.ndarray, labels: np.ndarray,
                      sizes: np.ndarray) -> np.ndarray:
    """Empirical input laws of one chunk of trials.

    Draws the chunk's ``(trials, max n)`` uniforms from ``rng``, in
    blocks of at most ``_LOOKUP_CELLS`` (rounded to whole rows), turns
    them into samples of each trial's class by inverse CDF (``cdfs``
    rows are the classes' cumulative conditionals, ``table`` their
    :func:`_bucket_table`) and returns the ``(sizes, trials, n_x)``
    empirical laws of the first ``n`` samples of each trial, for each
    ``n`` in ``sizes`` (increasing).  Each segment of samples between two
    sizes is counted by one ``bincount`` of its cells plus row offsets,
    added to the running prefix counts.
    """
    rows, n_x, width = labels.size, cdfs.shape[1], int(sizes[-1])
    cells = np.empty((rows, width), dtype=table.dtype)
    step = max(1, _LOOKUP_CELLS // width)
    for lo in range(0, rows, step):
        block = labels[lo:lo + step]
        cells[lo:lo + step] = _inverse_cdf(table, cdfs, block,
                                           rng.random((block.size, width)))
    offsets = np.arange(0, rows * n_x, n_x)[:, None]
    counts = np.zeros(rows * n_x, dtype=np.intp)
    phats = np.empty((sizes.size, rows, n_x))
    for j, (start, n) in enumerate(zip(np.r_[0, sizes[:-1]], sizes)):
        counts += np.bincount((cells[:, start:n] + offsets).ravel(),
                              minlength=counts.size)
        np.divide(counts.reshape(rows, n_x), n, out=phats[j])
    return phats


def _sample_stream(problem: ClassificationProblem, sizes: np.ndarray,
                   trials: int, seed: int):
    """Common-random-number samples of the whole experiment, by chunks.

    One generator seeded by ``seed`` draws the ``trials`` class labels
    and then the ``(trials, max n)`` uniform block, ``max(1,
    _SAMPLE_CELLS // max(max n, len(sizes) * n_x))`` rows at a time from
    the same stream, so the chunks hold the numbers of one single draw
    and their laws do not grow with ``n_x``.  Yields the labels of
    each chunk and its :func:`_empirical_counts`; the labels take 8 bytes
    a trial, the bucket table a few bytes per conditional cell, and
    nothing else outlives its chunk.
    """
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, problem.n_classes, size=trials)
    cdfs = np.cumsum(problem.class_conditionals, axis=1)
    cdfs[:, -1] = 1.0
    table = _bucket_table(cdfs)
    width = max(int(sizes[-1]), sizes.size * problem.n_x)
    rows = max(1, _SAMPLE_CELLS // width)
    for lo in range(0, trials, rows):
        labels = ys[lo:lo + rows]
        yield labels, _empirical_counts(rng, cdfs, table, labels, sizes)


def _divergence_argmin(pushed: np.ndarray,
                       references: np.ndarray) -> np.ndarray:
    """Row-wise ``argmin_i sum(rel_entr(pushed, references[i]))``, ties to
    the lowest ``i``: the classifier's exact rule."""
    divergences = rel_entr(pushed[:, None, :], references[None]).sum(axis=2)
    return np.argmin(divergences, axis=1)


def _min_divergence_decisions(pushed: np.ndarray,
                              references: np.ndarray) -> np.ndarray:
    """The decisions of :func:`_divergence_argmin`, mostly from one product.

    ``D[t, i] = sum p log p - sum p log r_i`` and the first term does not
    depend on the class, so a row's argmin is that of the cross-entropy
    scores ``-log(references) @ pushed.T``.  Rounding can part the two
    orders when scores nearly tie, so a row goes to the exact rule when
    another score lies within ``_TIE_RTOL * (1 + |best|)`` of its best or
    when any of its scores is not finite.  The margin is far above the
    rounding of either sum (a few ulps per cluster, times the score plus
    ``log k``).  Duplicate reference rows always tie.  A one-cluster
    encoder, whose references equal 1 within an ulp, would send every row
    to the exact rule; it skips the scores and applies the exact rule
    once per distinct pushed value instead, the same function of the
    same floats.
    """
    if references.shape[1] == 1:
        values, inverse = np.unique(pushed[:, 0], return_inverse=True)
        return _divergence_argmin(values[:, None], references)[inverse]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = -np.log(references) @ pushed.T  # (classes, trials)
        low = scores.min(axis=0)
        close = scores <= low + _TIE_RTOL * (1.0 + np.abs(low))
    exact = ((np.count_nonzero(close, axis=0) != 1)
             | ~np.isfinite(scores).all(axis=0))
    decisions = np.arange(len(references)) @ close  # faster than argmax
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
    out of the argmin.  The argmin is read off the cross-entropy scores,
    one product per encoder and chunk of trials over every test size;
    rows whose best two scores nearly tie, or that hold a non-finite
    score, are decided by the exact ``rel_entr`` divergences instead, so
    every decision is the exact rule's (:func:`_min_divergence_decisions`).

    Every encoder is trained first; the trials are then sampled, pushed
    forward and classified one chunk at a time (:func:`_sample_stream`),
    and only the count of wrong decisions per (framework, beta, n) is
    kept.  So memory grows with neither ``trials`` (beyond the labels,
    8 bytes a trial) nor the largest ``n``.  Sample streams are common
    random numbers, drawn once per call: every framework and beta sees
    identical draws, and runs with equal ``seed`` reuse them.
    """
    if isinstance(frameworks, str):
        frameworks = (frameworks,)
    frameworks = [as_framework(f) for f in frameworks]
    if not frameworks:
        raise ValueError("frameworks must name at least one framework")
    beta_list = np.asarray(DEFAULT_BETAS if beta_list is None
                           else beta_list, dtype=float)
    if (beta_list.ndim != 1 or beta_list.size == 0
            or not np.all(np.isfinite(beta_list)) or np.any(beta_list <= 0)):
        raise ValueError(
            "beta_list must be one or more finite positive betas")
    requested = np.asarray(DEFAULT_N_VALUES if n_values is None
                           else n_values, dtype=float)
    if (requested.ndim != 1 or requested.size == 0
            or not np.all(np.isfinite(requested))
            or np.any(requested != np.round(requested))
            or np.any(requested < 1) or np.any(np.diff(requested) <= 0)):
        raise ValueError("n_values must be increasing positive integers")
    n_values = requested.astype(int)
    if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
            or trials < 1):
        raise ValueError("trials must be a positive integer")

    joint = problem.joint()
    grid = np.union1d(WARM_LADDER, beta_list)
    trained = []  # (framework, beta, encoder, references) per curve
    for framework in frameworks:
        _, states = sweep(joint, framework, grid, split=split, tol=tol,
                          max_iter=max_iter)
        for beta in beta_list:
            state = states[int(np.searchsorted(grid, beta))]
            encoder = state.encoder[:, state.alive()]
            references = problem.class_conditionals @ encoder  # (M, k)
            trained.append((framework, float(beta), encoder, references))

    errors = np.zeros((len(trained), n_values.size), dtype=np.intp)
    for labels, phats in _sample_stream(problem, n_values, trials, seed):
        laws = phats.reshape(-1, problem.n_x)  # size-major rows
        for wrong, (_, _, encoder, references) in zip(errors, trained):
            decisions = _min_divergence_decisions(laws @ encoder, references)
            wrong += np.count_nonzero(
                decisions.reshape(n_values.size, -1) != labels, axis=1)
        del phats, laws  # free the chunk before the next one is drawn

    curves: list[ErrorCurve] = []
    for (framework, beta, *_), wrong in zip(trained, errors):
        p_err = wrong / trials  # exact counts: the bits of a mean
        half = 1.96 * np.sqrt(p_err * (1.0 - p_err) / trials)
        curves.append(ErrorCurve(
            framework=framework, beta=beta, n_values=n_values.copy(),
            p_err=p_err, ci_halfwidth=half, trials=trials, seed=seed))
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
