"""Core probability ops against pure-python double-sum oracles."""
from __future__ import annotations

import ast
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import bottleneck_lab
from bottleneck_lab import (expfamily, prediction, probability, solvers,
                           stability)
from bottleneck_lab.probability import (
    DistributionError,
    JointDistribution,
    NormalizationError,
    logsumexp,
    mutual_information,
    rel_entr,
    smooth_rows,
)
from bottleneck_lab.solvers import TableBackend

from conftest import PROPERTY_SETTINGS, random_encoder, random_problem
from oracles import (UndefinedDivergenceError, entropy, inverse_encoder,
                     kl_divergence)


# ---------------------------------------------------------------------------
# oracles: naive double-sum implementations, kept deliberately independent of
# the numpy code under test.  The frozen literals in the golden tests were
# produced by these exact functions.
# ---------------------------------------------------------------------------

def oracle_entropy(p):
    return -sum(v * math.log(v) for v in p if v > 0.0)


def oracle_kl(p, q):
    return sum(pv * math.log(pv / qv) for pv, qv in zip(p, q) if pv > 0.0)


def oracle_mi(joint):
    pa = [sum(row) for row in joint]
    pb = [sum(col) for col in zip(*joint)]
    total = 0.0
    for i, row in enumerate(joint):
        for j, v in enumerate(row):
            if v > 0.0:
                total += v * math.log(v / (pa[i] * pb[j]))
    return total


def state_with_weights(framework, weights, rule):
    """A state whose inverse encoder is ``weights``: cluster marginals are
    uniform, ``p_x`` is their mixture, and the encoder follows by Bayes."""
    weights = np.asarray(weights, dtype=float)
    marginal = np.full(weights.shape[0], 1.0 / weights.shape[0])
    p_x = marginal @ weights
    encoder = (marginal[:, None] * weights / p_x).T
    problem = JointDistribution.from_conditional(rule, p_x,
                                                 smoothing_epsilon=0.0)
    return TableBackend(problem, framework).derive(encoder, beta=1.0)


class TestGoldenValues:
    """Frozen outputs of the double-sum oracles above."""

    def test_entropy(self):
        assert entropy([0.2, 0.5, 0.3]) == pytest.approx(
            1.0296530140645737, abs=1e-15)

    def test_kl(self):
        assert kl_divergence([0.1, 0.6, 0.3], [0.25, 0.25, 0.5]) == (
            pytest.approx(0.28040448209512714, abs=1e-15))

    def test_mutual_information(self):
        joint = [[0.30, 0.10], [0.05, 0.15], [0.10, 0.30]]
        assert mutual_information(joint) == pytest.approx(
            0.12580366909478002, abs=1e-15)

    def test_bayes_decoder(self):
        weights = [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
        rule = [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]
        np.testing.assert_allclose(
            state_with_weights("ib", weights, rule).decoder,
            [[0.75, 0.25], [0.36, 0.64]], atol=1e-15)

    def test_geometric_decoder(self):
        weights = [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
        rule = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        state = state_with_weights("dual", weights, rule)
        np.testing.assert_allclose(
            state.decoder,
            [[0.802093068283927, 0.197906931716073],
             [0.35159075901563497, 0.648409240984365]], atol=1e-15)
        np.testing.assert_allclose(
            state.log_z, [-0.15279495570933088, -0.13885555701456156],
            atol=1e-15)


class TestAgainstOracles:
    """Randomized agreement with the double-sum oracles."""

    def test_entropy_and_mi(self, rng):
        for _ in range(50):
            n_a, n_b = rng.integers(2, 7, size=2)
            joint = rng.dirichlet(np.ones(n_a * n_b)).reshape(n_a, n_b)
            assert mutual_information(joint) == pytest.approx(
                oracle_mi(joint.tolist()), abs=1e-12)
            pa = joint.sum(axis=1)
            assert entropy(pa) == pytest.approx(
                oracle_entropy(pa.tolist()), abs=1e-12)

    def test_kl(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n)) + 1e-6
            q /= q.sum()
            assert kl_divergence(p, q) == pytest.approx(
                oracle_kl(p.tolist(), q.tolist()), abs=1e-12)

    def test_mi_basic_properties(self, rng):
        for _ in range(30):
            n_a, n_b = rng.integers(2, 7, size=2)
            joint = rng.dirichlet(np.ones(n_a * n_b)).reshape(n_a, n_b)
            mi = mutual_information(joint)
            assert mi >= -1e-15
            assert mi == pytest.approx(mutual_information(joint.T), abs=1e-12)
            assert mi <= min(entropy(joint.sum(axis=1)),
                             entropy(joint.sum(axis=0))) + 1e-12

    def test_mi_of_product_is_zero(self, rng):
        pa = rng.dirichlet(np.ones(4))
        pb = rng.dirichlet(np.ones(3))
        assert mutual_information(np.outer(pa, pb)) == pytest.approx(
            0.0, abs=1e-14)

    def test_kl_nonnegative_zero_iff_equal(self, rng):
        p = rng.dirichlet(np.ones(5))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)
        q = rng.dirichlet(np.ones(5)) + 1e-3
        q /= q.sum()
        assert kl_divergence(p, q) >= 0.0


class TestDecoders:
    """The Bayes (ib) and geometric (dual) decoders of ``TableBackend``."""

    def test_point_mass_weights_recover_rule_rows(self, rng):
        problem = random_problem(rng)
        eye = np.eye(problem.n_x)
        ib = TableBackend(problem, "ib").derive(eye, beta=1.0)
        np.testing.assert_allclose(ib.decoder, problem.rule, atol=1e-15)
        dual = TableBackend(problem, "dual").derive(eye, beta=1.0)
        np.testing.assert_allclose(dual.decoder, problem.rule, atol=1e-12)
        np.testing.assert_allclose(dual.log_z, 0.0, atol=1e-12)

    def test_geometric_log_normalizer_identity(self, rng):
        """-log Z_c equals the weighted min over decoders of the reverse KL.

        For any candidate row r: sum_x w[c,x] KL(r || rule_x) =
        KL(r || geometric_c) - log Z_c, so at r = geometric row the value is
        exactly -log Z_c.
        """
        for _ in range(20):
            problem = random_problem(rng)
            k = int(rng.integers(1, 5))
            state = TableBackend(problem, "dual").derive(
                random_encoder(rng, problem.n_x, k), 1.0)
            w = inverse_encoder(state.encoder, problem.p_x)[1]
            rows, log_z = state.decoder, state.log_z
            for c in range(k):
                direct = sum(
                    w[c, x] * kl_divergence(rows[c], problem.rule[x])
                    for x in range(problem.n_x))
                assert direct == pytest.approx(-log_z[c], abs=1e-10)
                assert log_z[c] <= 1e-12

    def test_geometric_matches_bruteforce_powers(self, rng):
        problem = random_problem(rng, n_x=4, n_y=3)
        state = TableBackend(problem, "dual").derive(
            random_encoder(rng, 4, 2), 1.0)
        weights = inverse_encoder(state.encoder, problem.p_x)[1]
        brute = np.ones((2, 3))
        for c in range(2):
            for x in range(4):
                brute[c] *= problem.rule[x] ** weights[c, x]
        brute /= brute.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(state.decoder, brute, atol=1e-13)


class TestValidation:
    def test_entropy_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            entropy([0.5, 0.6])

    def test_kl_rejects_support_hole(self):
        with pytest.raises(UndefinedDivergenceError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_kl_support_hole_is_not_a_normalization_error(self):
        try:
            kl_divergence([0.5, 0.5], [1.0, 0.0])
        except UndefinedDivergenceError:
            pass
        assert not issubclass(UndefinedDivergenceError, NormalizationError)

    def test_negative_entries_rejected(self):
        with pytest.raises(DistributionError):
            mutual_information([[0.6, -0.1], [0.3, 0.2]])

    def test_nan_rejected(self):
        with pytest.raises(DistributionError):
            entropy([0.5, np.nan])

    def test_kl_zero_over_zero_is_fine(self):
        assert kl_divergence([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == (
            pytest.approx(math.log(2.0), abs=1e-14))


class TestJointDistribution:
    def test_from_conditional_uniform_prior(self):
        rule = [[0.9, 0.1], [0.2, 0.8]]
        problem = JointDistribution.from_conditional(rule,
                                                     smoothing_epsilon=0.0)
        np.testing.assert_allclose(problem.p_x, [0.5, 0.5])
        np.testing.assert_allclose(problem.joint.sum(), 1.0, atol=1e-15)
        np.testing.assert_allclose(problem.joint.sum(axis=0), [0.55, 0.45],
                                   atol=1e-15)

    def test_smoothing_fills_zeros(self):
        rule = [[1.0, 0.0], [0.0, 1.0]]
        problem = JointDistribution.from_conditional(rule,
                                                     smoothing_epsilon=1e-9)
        assert problem.rule.min() > 0.0
        np.testing.assert_allclose(problem.rule.sum(axis=1), 1.0, atol=1e-15)
        # a zero cell with zero smoothing is an error
        with pytest.raises(DistributionError):
            JointDistribution.from_conditional(rule, smoothing_epsilon=0.0)

    def test_rejects_bad_p_x(self):
        rule = [[0.9, 0.1], [0.2, 0.8]]
        with pytest.raises(DistributionError):
            JointDistribution.from_conditional(rule, p_x=[1.0, 0.0],
                                               smoothing_epsilon=0.0)
        with pytest.raises(NormalizationError):
            JointDistribution.from_conditional(rule, p_x=[0.9, 0.2],
                                               smoothing_epsilon=0.0)

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(NormalizationError):
            JointDistribution.from_conditional([[0.9, 0.2], [0.5, 0.5]])

    def test_classification_joint_is_from_conditional(self, rng):
        """``ClassificationProblem.joint()`` is the default-smoothed
        problem of ``p(x) = sum_c prior[c] p(x|c)`` and the posterior
        ``p(class|x)``."""
        cond = rng.dirichlet(np.ones(7), size=5)
        prior = rng.dirichlet(np.ones(5))
        p_x = prior @ cond
        posterior = (prior[:, None] * cond / p_x).T
        expected = JointDistribution.from_conditional(posterior, p_x)
        joint = prediction.ClassificationProblem(cond, prior).joint()
        for name in ("p_x", "rule", "joint"):
            np.testing.assert_allclose(getattr(joint, name),
                                       getattr(expected, name), rtol=1e-14,
                                       atol=0.0, err_msg=name)
        np.testing.assert_allclose(joint.joint.sum(axis=0),
                                   expected.joint.sum(axis=0), rtol=1e-14,
                                   atol=0.0, err_msg="p_y")

    def test_mutual_information_method(self, rng):
        problem = random_problem(rng)
        assert problem.mutual_information == pytest.approx(
            oracle_mi(problem.joint.tolist()), abs=1e-12)

    def test_smooth_rows_renormalizes_exactly(self, rng):
        rows = rng.dirichlet(np.ones(4), size=3)
        out = smooth_rows(rows, 0.01)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 1.0])
    def test_rejects_bad_smoothing(self, eps):
        """NaN and infinity used to slip past ``eps < 0`` and return an
        all-NaN problem."""
        with pytest.raises(DistributionError,
                           match=r"smoothing_epsilon must lie in \[0, 1\)"):
            JointDistribution.from_conditional([[0.9, 0.1], [0.2, 0.8]],
                                               smoothing_epsilon=eps)


ROWS = [[0.3, 0.7], [0.6, 0.4]]

#: Every constructor field that holds a distribution, keyed by the name
#: its messages use (``expfam-`` marks the model's own ``p_x``): a call
#: that builds from the field's value and returns the stored array.
SUM_FIELDS = {
    "p_y_given_x": lambda v: JointDistribution.from_conditional(
        v, smoothing_epsilon=0.0).rule,
    "p_x": lambda v: JointDistribution.from_conditional(
        ROWS, v, smoothing_epsilon=0.0).p_x,
    "expfam-p_x": lambda v: expfamily.ExpFamilyModel(
        np.zeros((2, 1)), np.zeros((2, 1)), v).p_x,
    "class_conditionals": lambda v: prediction.ClassificationProblem(
        v).class_conditionals,
    "prior": lambda v: prediction.ClassificationProblem(ROWS, v).prior,
}


def is_vector(field: str) -> bool:
    return field.endswith(("p_x", "prior"))


def skewed(field: str, offset: float) -> np.ndarray:
    """``ROWS`` with ``offset`` added to row 1, or that row alone for a
    vector field."""
    rows = np.array(ROWS)
    rows[1, 0] += offset
    return rows[1] if is_vector(field) else rows


class TestInputSums:
    """One sum tolerance, ``INPUT_SUM_TOL = 1e-6``, for every field, and
    one renormalization of what it accepts."""

    @pytest.mark.parametrize("field", SUM_FIELDS)
    def test_near_sums_are_renormalized(self, field):
        values = skewed(field, 5e-7)
        stored = SUM_FIELDS[field](values)
        np.testing.assert_allclose(stored.sum(axis=-1), 1.0, atol=1e-15)
        np.testing.assert_allclose(
            stored, values / values.sum(axis=-1, keepdims=True), atol=1e-15)

    @pytest.mark.parametrize("field", SUM_FIELDS)
    def test_far_sums_name_the_field_and_row(self, field):
        name = field.removeprefix("expfam-")
        label = name if is_vector(field) else f"{name}[1]"
        with pytest.raises(NormalizationError,
                           match=re.escape(label) + " sums to .*sum to 1"):
            SUM_FIELDS[field](skewed(field, 2e-6))


class TestLogSumExp:
    @pytest.mark.parametrize("two_d", [False, True],
                             ids=["1d-none", "2d-axis1"])
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           cols=st.integers(1, 8), log_scale=st.floats(-3.0, 3.0),
           rounded=st.booleans(), tied=st.sampled_from(["none", "some",
                                                          "all"]))
    def test_matches_scipy(self, two_d, seed, rows, cols, log_scale,
                           rounded, tied):
        """Same shape and type as ``scipy.special.logsumexp`` on finite
        input, and the same value within 4 ulps of the larger of the
        largest ``|a|`` and ``|result|``, with ties at the maximum in no,
        some or all rows, and no floating-point warning."""
        local = np.random.default_rng(seed)
        a = local.standard_normal((rows, cols)) * 10.0 ** log_scale
        if rounded:
            a = np.round(a, 1)
        if tied != "none":
            chosen = (local.random(rows) < 0.5 if tied == "some"
                      else np.ones(rows, dtype=bool))
            a[chosen, -1] = a.max(axis=1)[chosen]
        if not two_d:
            a = a.ravel()
        axis = 1 if two_d else None
        expected = scipy.special.logsumexp(a, axis=axis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, axis=axis)
        assert type(got) is type(expected)
        assert got.dtype == expected.dtype == np.float64
        assert got.shape == expected.shape
        scale = np.maximum(np.abs(a).max(axis=axis), np.abs(expected))
        assert np.all(np.abs(got - expected) <= 4 * np.spacing(scale))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 200])
    @pytest.mark.parametrize("m", [0.0, -3.25, 0.1, 1e3])
    def test_all_ties_give_log_n_plus_max(self, n, m):
        """A row of ``n`` equal values ``m``, as every row of a ``d = 0``
        model's log-rule is, gives exactly ``log(n) + m``."""
        expected = np.log(float(n)) + m
        assert logsumexp(np.full(n, m)) == expected
        assert np.all(logsumexp(np.full((3, n), m), axis=1) == expected)

    @pytest.mark.parametrize("a", [2.5, np.float64(-1.0), np.array(0.0)],
                             ids=["float", "float64", "0-d-array"])
    def test_zero_d_input(self, a):
        """A 0-d input gives its own value as a 0-d ``np.float64``, as
        scipy does."""
        expected = scipy.special.logsumexp(a)
        got = logsumexp(a)
        assert type(got) is type(expected) is np.float64
        assert got == expected == a

    def test_one_log_sum_exp_in_the_package(self):
        """One log-sum-exp, which the one dual decoder reads, one decoder,
        which the stability row reads, and no scipy import anywhere in the
        package (numpy is its only runtime dependency)."""
        for module in (solvers, expfamily, prediction):
            assert module.logsumexp is probability.logsumexp
        assert not hasattr(stability, "logsumexp")
        for function, name in ((solvers._decode, "logsumexp"),
                               (stability.cluster_factors, "_decode")):
            tree = ast.parse(inspect.getsource(function))
            assert name in {node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load)}
        assert prediction.rel_entr is probability.rel_entr
        src = Path(bottleneck_lab.__file__).parent
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert not (node.module or "").startswith("scipy"), \
                        path.name
                if isinstance(node, ast.Import):
                    assert not any(alias.name.startswith("scipy")
                                   for alias in node.names), path.name
                # no ``<module>.logsumexp(...)`` besides the package's own
                assert not (isinstance(node, ast.Attribute)
                            and node.attr == "logsumexp"), path.name


class TestEntropyKernels:
    """``rel_entr`` against ``scipy.special``, the reference it replaces,
    both as ``x log(x / y)`` and as ``p log p = rel_entr(p, 1)``."""

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 64),
           x_scale=st.floats(-300.0, 3.0), y_scale=st.floats(-300.0, 3.0),
           per_cell=st.booleans(), zeros=st.floats(0.0, 0.5),
           holes=st.floats(0.0, 0.5), nans=st.booleans())
    def test_match_scipy(self, seed, size, x_scale, y_scale, per_cell,
                         zeros, holes, nans):
        """The special cells (``0 log 0``, ``rel_entr(0, 0)``,
        ``rel_entr(x > 0, 0) = inf``, NaN in and NaN out) equal scipy's
        exactly and raise no warning.  Elsewhere both sides compute the
        same quotient and differ only in the rounding of one logarithm, so
        the gap is bounded relative to the larger of ``x`` and the value:
        at scale 1e-300, ``log x`` is about -690 and one ulp of it is
        already 1e-13 * x."""
        local = np.random.default_rng(seed)
        if per_cell:
            x_scale = local.uniform(-300.0, 3.0, size)
            y_scale = local.uniform(-300.0, 3.0, size)
        x = 10.0 ** x_scale * local.random(size)
        y = 10.0 ** y_scale * local.random(size)
        x[local.random(size) < zeros] = 0.0
        y[local.random(size) < holes] = 0.0
        if nans:
            x[local.integers(size)] = np.nan
            y[local.integers(size)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {"plogp": rel_entr(x, 1.0), "rel_entr": rel_entr(x, y)}
        with np.errstate(all="ignore"):
            expected = {"plogp": scipy.special.xlogy(x, x),
                        "rel_entr": scipy.special.rel_entr(x, y)}
        special = {"plogp": (x == 0.0) | np.isnan(x),
                   "rel_entr": ((x == 0.0) | (y == 0.0)
                                | np.isnan(x) | np.isnan(y))}
        for name, value in got.items():
            ref = expected[name]
            exact = special[name] | ~np.isfinite(ref)
            assert np.array_equal(value[exact], ref[exact], equal_nan=True)
            gap = np.abs(value[~exact] - ref[~exact])
            assert np.all(gap <= 4e-15 * np.maximum(x, np.abs(ref))[~exact])

    def test_special_cells(self):
        x = np.array([0.0, 0.0, 0.0, 0.5, np.nan, 0.5])
        y = np.array([0.0, 0.5, np.nan, 0.0, 0.5, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            divergence = rel_entr(x, y)
            plogp = rel_entr(x, 1.0)
        assert np.array_equal(divergence,
                              [0.0, 0.0, np.nan, np.inf, np.nan, np.nan],
                              equal_nan=True)
        assert np.array_equal(plogp[3:5], [0.5 * np.log(0.5), np.nan],
                              equal_nan=True)
        assert np.all(plogp[:3] == 0.0)


#: Imported and never read on purpose: the benchmark tracer patches
#: ``mutual_information`` in ``annealing`` and ``expfamily`` by name.
KEPT_IMPORTS = {("annealing.py", "mutual_information"),
                ("expfamily.py", "mutual_information")}


def _private_definitions(tree):
    """The module-level private functions, classes and constants of a
    module, and the private methods of its classes (dunders are not
    private)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets
                        if isinstance(target, ast.Name))
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            yield node.target.id


def _references(tree):
    """Every name a module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _bench_reads(tree):
    """The ``(module, name)`` pairs a benchmark script reads from the
    package: imported, read as ``module.name`` or patched as
    ``(module, "name", ...)``; a method patched on a class is not a
    module-level name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("bottleneck_lab.")):
            yield from ((node.module.split(".")[1], alias.name)
                        for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            yield node.value.id, node.attr
        elif (isinstance(node, ast.Tuple) and len(node.elts) > 1
              and isinstance(node.elts[0], ast.Name)
              and isinstance(node.elts[1], ast.Constant)):
            yield node.elts[0].id, node.elts[1].value


def _tracer_module_patches():
    """The ``(module file, name)`` pairs that ``perfbench/tracing.py``'s
    ``PATCHES`` patch on a package module (not on a class)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    patches = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [target.id for target in node.targets] == ["PATCHES"])
    return {(row.elts[0].id + ".py", row.elts[1].value)
            for row in patches.elts if isinstance(row.elts[0], ast.Name)}


def test_package_has_no_unused_imports():
    """Every name a module imports is read in it or is a ``KEPT_IMPORTS``
    name that the benchmark tracer patches, every ``KEPT_IMPORTS`` entry
    is imported and never read (so no stale entry stays), every private
    name a module defines is read by some module of the package, and every
    public module-level function or class is read by one or named by a
    benchmark script: the tests' oracles live in ``tests/oracles.py``."""
    unused = []
    kept = set()
    private = []
    public = set()
    read_by_name = set()
    referenced = set()
    src = Path(bottleneck_lab.__file__).parent
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread = [(path.name, name) for name in imported if name not in read]
        unused += [pair for pair in unread if pair not in KEPT_IMPORTS]
        kept.update(pair for pair in unread if pair in KEPT_IMPORTS)
        private += [(path.name, name) for name in _private_definitions(tree)
                    if name.startswith("_") and not name.endswith("__")]
        public.update((path.stem, node.name) for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        read_by_name.update(node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load))
        read_by_name.update(alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom)
                            for alias in node.names)
        referenced.update(_references(tree))
    assert unused == []
    assert kept == KEPT_IMPORTS
    assert KEPT_IMPORTS <= _tracer_module_patches()
    assert private
    assert [entry for entry in private if entry[1] not in referenced] == []
    bench = {pair for path in (Path(__file__).resolve().parents[1]
                               / "perfbench").glob("*.py")
             for pair in _bench_reads(ast.parse(path.read_text()))}
    assert {name for _, name in public - bench
            if name not in read_by_name} == set()
