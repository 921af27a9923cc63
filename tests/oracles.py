"""Reference implementations and built-in problems for the tests.

The oracles are what the tests compare the package against: divergences,
the inverse encoder, direct sums of the cost, the textbook encoder update,
the fixed-point loop with a full stopping test on every step, the
statistics tables, the step and the stability factors with their logits
and decoder rows formed per framework, the ib first split from the table
(Witsenhausen), a discretized Gaussian channel, closed forms of the
reduced solver, the exponential-family residual, the classification
exponent bound, the whole-block misclassification experiment and a trace
reader.  No command and no benchmark workload runs any of them.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from bottleneck_lab.annealing import (
    _SCALAR_COLUMNS,
    AnnealTrace,
    SweepRecord,
    sweep,
)
from bottleneck_lab.expfamily import ExpFamilyModel
from bottleneck_lab.prediction import WARM_LADDER, ErrorCurve
from bottleneck_lab.probability import (
    DistributionError,
    JointDistribution,
    _non_negative,
    _require_normalized,
    logsumexp,
    mutual_information,
    rel_entr,
)
from bottleneck_lab.solvers import (
    BottleneckState,
    _cluster_statistics,
    _column_softmax,
    _decode,
    prepare_encoder,
    state_observables,
)

# ---------------------------------------------------------------------------
# built-in problems
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

class UndefinedDivergenceError(DistributionError):
    """KL divergence requested where the reference has a support hole."""


def entropy(p) -> float:
    """Shannon entropy of a distribution, in nats.

    Zero cells contribute zero.  Raises :class:`NormalizationError` if ``p``
    does not sum to one within ``NORMALIZATION_ATOL``.
    """
    p = _non_negative(p, "p", 1)
    _require_normalized(p, "p")
    return float(-rel_entr(p, 1.0).sum())


def kl_divergence(p, q) -> float:
    """``KL(p || q)`` in nats.

    ``p`` must be normalized; ``q`` must be strictly positive wherever ``p``
    is (a support hole raises :class:`UndefinedDivergenceError`, distinct
    from normalization problems).  ``q`` itself is not required to be
    normalized — callers occasionally compare against unnormalized reference
    weights — but every standard use in this package passes distributions.
    """
    p = _non_negative(p, "p", 1)
    q = _non_negative(q, "q", 1)
    if p.shape != q.shape:
        raise DistributionError(
            f"shape mismatch: p {p.shape} vs q {q.shape}")
    _require_normalized(p, "p")
    if np.any((q == 0.0) & (p > 0.0)):
        raise UndefinedDivergenceError(
            "q has zero mass where p is positive; KL(p||q) is undefined")
    return float(rel_entr(p, q).sum())


# ---------------------------------------------------------------------------
# states: the inverse encoder, the costs and the encoder update
# ---------------------------------------------------------------------------

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
    if state.framework == "ib":
        rule_neg_entropy = np.sum(problem.rule * problem.log_rule, axis=1)
        return (rule_neg_entropy[:, None]
                - problem.rule @ np.log(state.decoder).T)
    dec_neg_entropy = rel_entr(state.decoder, 1.0).sum(axis=1)
    return dec_neg_entropy - problem.log_rule @ state.decoder.T


def direct_distortion(problem: JointDistribution, state) -> float:
    """``E[d]`` as the direct sum ``sum_x p(x) sum_c p(c|x) d(x, c)`` over
    :func:`distortion_matrix`."""
    return float(np.sum(problem.p_x[:, None] * state.encoder
                        * distortion_matrix(problem, state)))


def encoder_update(marginal: np.ndarray, distortion: np.ndarray,
                   beta: float) -> np.ndarray:
    """Softmax re-estimation ``p(xhat|x) ∝ p(xhat) * exp(-beta * d[x, xhat])``.

    Computed in log space by :func:`_column_softmax` on the transposed
    logits; zero-mass clusters give ``log p(xhat) = -inf`` and therefore
    stay at exactly zero.
    """
    with np.errstate(divide="ignore"):
        log_marginal = np.log(marginal)
    return _column_softmax(log_marginal[:, None] - beta * distortion.T).T


def full_test_fixed_point(backend, beta: float, *, n_clusters=None,
                          init_encoder=None, tol: float, max_iter: int):
    """The fixed-point loop with the sup-norm move of every step formed in
    full: ``(encoder, n_iterations, converged, encoder_delta)``, the final
    encoder C-contiguous as a state holds it.  ``solvers.fixed_point``
    forms that move only on steps its probe cell cannot rule out, and must
    stop where this loop stops."""
    encoder = prepare_encoder(backend.n_x, n_clusters, init_encoder)
    step = backend.stepper(beta)
    delta, iterations = np.inf, 0
    while iterations < max_iter:
        new = step(encoder)
        iterations += 1
        delta = float(np.abs(new - encoder).max())
        encoder = new
        if delta <= tol:
            return np.ascontiguousarray(encoder), iterations, True, delta
    return np.ascontiguousarray(encoder), iterations, False, delta


def statistics_table(problem, framework: str) -> np.ndarray:
    """The solver's statistics table written out per kind of problem, with
    the expression that fixes its bits: ``[p(x, y) | p(x)]`` (ib) and
    ``[p(x) log p(y|x) | p(x)]`` (dual) of a table, and ``[p(x) A(x) |
    p(x)]`` of a model, whatever ``framework``."""
    if isinstance(problem, ExpFamilyModel):
        return np.column_stack([problem.p_x[:, None] * problem.features,
                                problem.p_x])
    if framework == "ib":
        return np.column_stack([problem.joint, problem.p_x])
    return np.column_stack([problem.p_x[:, None] * problem.log_rule,
                            problem.p_x])


def two_branch_stepper(backend, beta: float):
    """The step of a table or reduced backend with its logits formed per
    framework: ``log(S) @ [beta * rule | 1 - beta * rowsum(rule)].T`` for
    ib, and for dual the product ``(dec @ V) @ (beta * W).T`` plus the
    per-cluster column ``log p(xhat) - beta * sum dec log dec`` added by
    broadcast.  The package forms both as one product ``rows @ C``.  The
    softmax takes the backend's shift choice at ``beta``."""
    framework, table, v = backend.framework, backend.table, backend.v
    shift = backend.softmax_shift(beta)
    if framework == "ib":
        rule = backend.problem.rule
        coefficients_t = np.column_stack(
            [beta * rule, 1.0 - beta * rule.sum(axis=1)]).T
    else:
        beta_w = beta * backend.w

    def step(encoder):
        _, stats, dead = _cluster_statistics(encoder, table)
        if framework == "ib":
            logits = np.dot(np.log(stats), coefficients_t)
        else:
            decoder, log_decoder, _ = _decode(framework, stats, v)
            logits = (decoder if v is None else decoder @ v) @ beta_w.T
            logits += (np.log(stats[:, -1]) - beta * np.add.reduce(
                decoder * log_decoder, axis=1))[:, None]
        if dead is not None:
            logits[dead] = -np.inf
        return _column_softmax(logits, shift).T

    return step


def own_row_cluster_factors(problem: JointDistribution, framework: str,
                            q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``stability.cluster_factors`` with its decoder row formed in place:
    the Bayes row ``q @ rule`` for ib, and the geometric row
    ``exp(c - logsumexp(c))`` with ``c = q @ log rule`` for dual."""
    if framework == "ib":
        rule = problem.rule
        dec = q @ rule
        return rule - dec[None, :], (rule * q[:, None]).T / dec[:, None]
    log_rule = problem.log_rule
    log_unnorm = q @ log_rule
    dec = np.exp(log_unnorm - logsumexp(log_unnorm))
    a = (log_rule - log_unnorm[None, :]) * dec[None, :]
    b = (log_rule.T - (log_rule @ dec)[None, :]) * q[None, :]
    return a, b


def ib_first_split_beta(problem: JointDistribution) -> float:
    """``1 / sigma2(Q)**2``, where the one-cluster ib solution first
    splits, with ``sigma2`` the second singular value of ``Q = p(x, y) /
    sqrt(p(x) p(y))`` (Witsenhausen 1975): the table alone fixes it."""
    joint = problem.p_x[:, None] * problem.rule
    q = joint / np.sqrt(np.outer(problem.p_x, joint.sum(axis=0)))
    return 1.0 / np.linalg.svd(q, compute_uv=False)[1] ** 2


def gaussian_channel(snr: float) -> ExpFamilyModel:
    """``Y = X + noise`` at signal-to-noise ratio ``snr``, discretized:
    ``p(x)`` is N(0, 1) on 301 points in [-6, 6] and ``p(y|x)`` is
    proportional to ``exp(-(y - x)**2 / (2 s**2))``, ``s = 1 / sqrt(snr)``,
    on 401 points in [-6 - 8 s, 6 + 8 s].  As a model it has the features
    ``[x, 1]`` and the params ``[-y / s**2, y**2 / (2 s**2)]``."""
    s2 = 1.0 / snr
    half = 6.0 + 8.0 * np.sqrt(s2)
    x = np.linspace(-6.0, 6.0, 301)
    y = np.linspace(-half, half, 401)
    p_x = np.exp(-x**2 / 2.0)
    return ExpFamilyModel(np.column_stack([x, np.ones_like(x)]),
                          np.column_stack([-y / s2, y**2 / (2.0 * s2)]),
                          p_x / p_x.sum())


@dataclass
class DualDistortionSplit:
    """Exact two-part split of the mean dual cost.

    ``label_info_shift``    = ``I(Xhat;Yhat) - I(X;Yhat)`` where ``Yhat`` is
    the label *predicted* through encoder + decoder.  ``prediction_mismatch``
    = ``E_{p(x)}[KL(predicted row x || rule row x)] >= 0``.  Their sum equals
    ``E[KL(decoder || rule)]`` identically for any consistent state.
    """

    total: float
    label_info_shift: float
    prediction_mismatch: float


def dual_distortion_split(problem: JointDistribution,
                          state: BottleneckState) -> DualDistortionSplit:
    p_x = problem.p_x
    predicted = state.encoder @ state.decoder          # (n_x, n_y) rows
    i_pred_clusters = mutual_information(
        state.marginal[:, None] * state.decoder)
    i_pred_inputs = mutual_information(p_x[:, None] * predicted)
    shift = i_pred_clusters - i_pred_inputs
    mismatch = float(np.sum(
        p_x[:, None] * (rel_entr(predicted, 1.0)
                        - predicted * problem.log_rule)))
    return DualDistortionSplit(total=shift + mismatch,
                               label_info_shift=shift,
                               prediction_mismatch=mismatch)


# ---------------------------------------------------------------------------
# the exponential family: closed forms and membership
# ---------------------------------------------------------------------------

@dataclass
class ClosedFormInformation:
    """Information quantities assembled from reduced aggregates only
    (plus the constants ``H(Y)`` and ``E[log_normalizer(x)]``).

    ``i_y`` here is the label-uncertainty form
    ``H(Y) - E[H(decoder row)]``; it coincides with the mutual information
    through the cluster variable only when the decoder-implied label
    marginal matches ``p_y``.
    """

    i_x: float
    i_y: float
    mean_distortion: float


def closed_information(model: ExpFamilyModel,
                       state: BottleneckState) -> ClosedFormInformation:
    """Evaluate the closed forms

    ``I_x  = beta * E[lam0_beta] - E_{p_x}[log Z_enc]``
    ``I_y  = H(Y) - E[sum_r lam_beta A_beta + lam0_beta]``
    ``E[d] = E_{p_x}[log_normalizer] - E[lam0_beta]``

    which hold exactly at consistent fixed points (the decoder entropy is
    linear in the expected statistics, and the expected-feature matching
    kills the cross term in ``I_x``).  The aggregates of the alive
    clusters are recomputed from the state of :class:`ExpBackend`:
    ``A_beta = p(x|xhat) @ features``, ``lam_beta = decoder @ params`` and
    ``lam0_beta = log_z``; dead clusters carry no mass and drop out.
    """
    alive, beta = state.alive(), state.beta
    m, log_z = state.marginal[alive], state.log_z[alive]
    inputs = (state.encoder[:, alive] * model.p_x[:, None] / m).T
    cluster_features = inputs @ model.features
    cluster_params = state.decoder[alive] @ model.params
    decoder_entropies = (np.sum(cluster_params * cluster_features, axis=1)
                         + log_z)
    # log p(xhat) - beta * d[x, xhat] up to beta * log_normalizer(x).
    logits = -beta * model.features @ cluster_params.T + (
        np.log(m) + beta * decoder_entropies)
    log_z_encoder = logsumexp(logits, axis=1)
    mean_cluster_norm = float(m @ log_z)
    i_x = beta * mean_cluster_norm - float(model.p_x @ log_z_encoder)
    p_y = model.label_joint(np.ones((model.n_x, 1)))[0]
    i_y = entropy(p_y) - float(m @ decoder_entropies)
    mean_d = model.mean_log_normalizer - mean_cluster_norm
    return ClosedFormInformation(i_x=i_x, i_y=i_y, mean_distortion=mean_d)


def family_residual(model: ExpFamilyModel, decoder: np.ndarray) -> float:
    """How far the rows of ``decoder`` lie from the model's family.

    A row is in the family when its log is ``-params @ a - log Z`` for
    some ``a``: when it lies in span{1, columns of ``params``}.  Each
    log-row is projected onto that span by least squares, and the largest
    absolute residual over all rows is returned.  Pass the alive rows
    only; a dead cluster's row is a placeholder.
    """
    basis = np.column_stack([np.ones(model.n_y), model.params])
    log_rows = np.log(decoder).T
    coefficients = np.linalg.lstsq(basis, log_rows, rcond=None)[0]
    return float(np.abs(log_rows - basis @ coefficients).max())


# ---------------------------------------------------------------------------
# the classification exponent
# ---------------------------------------------------------------------------

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
    cond = joint.joint / joint.joint.sum(axis=0)[None, :]  # columns p(x | y)
    kl_matrix = rel_entr(inputs[:, None, :],
                         cond.T[None, :, :]).sum(axis=-1)  # (k, n_y)
    bound = float(np.sum(marginal[:, None] * state.decoder[alive]
                         * kl_matrix))
    if state.framework == "dual":
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


def one_block_counts(problem, n_values, trials: int, seed: int):
    """The sampler as one ``(trials, max_n)`` uniform block whose prefix
    counts are accumulated by ``np.add.at``: the oracle of the chunks.
    Returns the labels and, per ``n``, the ``(trials, n_x)`` empirical
    laws of the first ``n`` samples."""
    rng = np.random.default_rng(seed)
    max_n = int(max(n_values))
    ys = rng.integers(0, problem.n_classes, size=trials)
    us = rng.random((trials, max_n))
    cdfs = np.cumsum(problem.class_conditionals, axis=1)
    cdfs[:, -1] = 1.0
    xs = np.empty((trials, max_n), dtype=np.intp)
    for c in range(problem.n_classes):
        mask = ys == c
        xs[mask] = np.searchsorted(cdfs[c], us[mask], side="right")
    counts = np.zeros((trials, problem.n_x))
    rows = np.arange(trials)
    phats = {}
    prev = 0
    for n in n_values:
        np.add.at(counts, (np.repeat(rows, n - prev), xs[:, prev:n].ravel()),
                  1.0)
        prev = n
        phats[n] = counts / n
    return ys, phats


def exact_decisions(pushed, references):
    """Minimum ``rel_entr`` divergence per row, first class on ties: the
    classifier's defining rule."""
    divergences = np.stack(
        [rel_entr(pushed, references[i][None, :]).sum(axis=1)
         for i in range(references.shape[0])], axis=1)
    return np.argmin(divergences, axis=1)


def whole_block_experiment(problem, frameworks, beta_list, n_values,
                           trials: int, seed: int) -> list[ErrorCurve]:
    """The misclassification experiment with every sample held at once:
    one sweep per framework, the whole :func:`one_block_counts` block
    pushed through each encoder per test size, and :func:`exact_decisions`
    for every trial."""
    beta_list = np.asarray(beta_list, dtype=float)
    ys, phats = one_block_counts(problem, n_values, trials, seed)
    grid = np.union1d(WARM_LADDER, beta_list)
    curves = []
    for framework in frameworks:
        _, states = sweep(problem.joint(), framework, grid)
        for beta in beta_list:
            state = states[int(np.searchsorted(grid, beta))]
            encoder = state.encoder[:, state.alive()]
            references = problem.class_conditionals @ encoder
            p_err = np.array([
                np.mean(exact_decisions(phats[n] @ encoder, references) != ys)
                for n in n_values])
            curves.append(ErrorCurve(
                framework=framework, beta=float(beta),
                n_values=np.array(n_values), p_err=p_err,
                ci_halfwidth=1.96 * np.sqrt(p_err * (1.0 - p_err) / trials),
                trials=trials, seed=seed))
    return curves


# ---------------------------------------------------------------------------
# sweep traces
# ---------------------------------------------------------------------------

def trace_from_csv(path) -> AnnealTrace:
    """Inverse of :func:`trace_to_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dec_cols = [h for h in header if h.startswith("dec_xhat")]
        n_y = 1 + max(int(h.rsplit("_y", 1)[1]) for h in dec_cols)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path} has no records")
    trace = AnnealTrace(framework=rows[0][0], n_y=n_y)
    base = len(_SCALAR_COLUMNS) + 2  # framework + scalars + units
    for cells in rows:
        flat = [float(v) for v in cells[base:] if v != ""]
        decoder = np.array(flat).reshape(-1, n_y)
        trace.records.append(SweepRecord(
            beta=float(cells[1]), i_x=float(cells[2]), i_y=float(cells[3]),
            functional=float(cells[4]), n_iterations=int(cells[5]),
            effective_clusters=int(cells[6]), converged=cells[7] == "true",
            decoder=decoder))
    return trace
