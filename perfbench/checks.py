"""Output checks of the benchmark workloads.

Every check reads the artifacts a ``bottleneck-lab`` command wrote and
compares them with quantities computed here, in plain numpy, from the
inputs the benchmark generated, or with properties the method must have.
Nothing here imports ``bottleneck_lab`` and nothing compares against a
stored copy of earlier output.

Each check returns a list of failure messages; an empty list means the
artifact passed.
"""
from __future__ import annotations

import csv
import json

import numpy as np

MONOTONE_TOL = 1e-9
BOUND_TOL = 1e-12
RESIDUAL_TOL = 1e-6
FIRST_TRANSITION_TOL = 1e-6
AFFINE_TOL = 1e-8
CI_TOL = 1e-12
R2_MIN = 0.9
CHERNOFF_TOL = 1e-6
CHERNOFF_GRID = np.linspace(0.0, 1.0, 999)


# ---------------------------------------------------------------------------
# independent reference quantities
# ---------------------------------------------------------------------------

def entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def mutual_information(joint: np.ndarray) -> float:
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    cells = joint > 0.0
    return float(np.sum(joint[cells] * np.log(joint[cells] / outer[cells])))


def first_transition(rule: np.ndarray, p_x: np.ndarray, framework: str) -> float:
    """``1 / lambda2`` of the one-cluster solution, which is a fixed point
    at every beta, so the first split happens exactly there.

    ib: ``lambda2`` is the second eigenvalue of ``M[y, y'] = sum_x
    p(x|y) p(y'|x)`` (the first is the trivial 1).  dual: it is the top
    eigenvalue of ``Cov_{p_x}(log p(.|x)) @ (diag(d) - d d^T)`` with ``d``
    the normalized geometric mean of the rule rows.
    """
    if framework == "ib":
        p_y = p_x @ rule
        m = ((p_x[:, None] * rule) / p_y[None, :]).T @ rule
        lam2 = np.sort(np.linalg.eigvals(m).real)[-2]
    else:
        log_rule = np.log(rule)
        mean = p_x @ log_rule
        dec = np.exp(mean - mean.max())
        dec /= dec.sum()
        centered = log_rule - mean
        cov = centered.T @ (p_x[:, None] * centered)
        fisher = np.diag(dec) - np.outer(dec, dec)
        lam2 = np.max(np.linalg.eigvals(cov @ fisher).real)
    return float(1.0 / lam2)


def softmax_rule(features: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Rows ``p(y|x) ∝ exp(-features[x] . params[y])``."""
    logits = -features @ params.T
    logits -= logits.max(axis=1, keepdims=True)
    rule = np.exp(logits)
    return rule / rule.sum(axis=1, keepdims=True)


def grid_chernoff(p0: np.ndarray, p1: np.ndarray) -> float:
    """Chernoff information by brute force over ``CHERNOFF_GRID``."""
    log0, log1 = np.log(p0), np.log(p1)
    mixed = CHERNOFF_GRID[:, None] * log0 + (1.0 - CHERNOFF_GRID[:, None]) * log1
    top = mixed.max(axis=1, keepdims=True)
    g = top[:, 0] + np.log(np.exp(mixed - top).sum(axis=1))
    return float(-g.min())


def r_squared(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(x, y, 1)
    residuals = y - np.polyval(coeffs, x)
    return 1.0 - float(np.sum(residuals ** 2) / np.sum((y - y.mean()) ** 2))


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def read_trace(path) -> dict:
    """Columns of a trace CSV, looked up by header name, plus the decoder
    rows of every record as a ``(k, n_y)`` array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    dec_cols = [i for i, name in enumerate(header) if name.startswith("dec_xhat")]
    n_y = 1 + max(int(header[i].rsplit("_y", 1)[1]) for i in dec_cols)

    def floats(name):
        return np.array([float(r[col[name]]) for r in body])

    decoders = []
    for r in body:
        cells = [float(r[i]) for i in dec_cols if r[i] != ""]
        decoders.append(np.array(cells).reshape(-1, n_y))
    return {
        "beta": floats("beta"), "i_x": floats("i_x"), "i_y": floats("i_y"),
        "clusters": floats("effective_clusters").astype(int),
        "converged": np.array([r[col["converged"]] == "true" for r in body]),
        "decoders": decoders,
    }


def _curve_failures(trace: dict, h_x: float, i_xy: float) -> list[str]:
    out = []
    if not trace["converged"].all():
        bad = trace["beta"][~trace["converged"]]
        out.append(f"{bad.size} grid points did not converge (first beta "
                   f"{bad[0]:.6g})")
    for name in ("i_x", "i_y"):
        step = float(np.min(np.diff(trace[name])))
        if step < -MONOTONE_TOL:
            out.append(f"{name} decreases by {-step:.3e} > {MONOTONE_TOL:g}")
    if trace["i_x"].max() > h_x + BOUND_TOL:
        out.append(f"i_x {trace['i_x'].max():.12g} exceeds H(X) {h_x:.12g}")
    if trace["i_y"].max() > i_xy + BOUND_TOL:
        out.append(f"i_y {trace['i_y'].max():.12g} exceeds I(X;Y) "
                   f"{i_xy:.12g}")
    return out


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_golden(trace_csv, critical_json, rule: np.ndarray, p_x: np.ndarray,
                 framework: str, n_transitions: int = 4) -> list[str]:
    """A golden sweep: converged, monotone, bounded, 1 -> n+1 clusters,
    and ``n_transitions`` refined transitions, the first at ``1/lambda2``."""
    trace = read_trace(trace_csv)
    out = _curve_failures(trace, entropy(p_x),
                          mutual_information(p_x[:, None] * rule))
    counts = trace["clusters"]
    if counts[0] != 1 or counts[-1] != n_transitions + 1 \
            or np.any(np.diff(counts) < 0):
        out.append(f"cluster counts {counts[0]} -> {counts[-1]} are not a "
                   f"non-decreasing 1 -> {n_transitions + 1} sequence")
    with open(critical_json) as fh:
        points = json.load(fh)["frameworks"][framework]
    if len(points) != n_transitions:
        out.append(f"{len(points)} refined transitions, expected "
                   f"{n_transitions}")
    for p in points:
        lo, hi = p["bracket"]
        if p["residual"] > RESIDUAL_TOL:
            out.append(f"transition {p['beta']:.9g} has residual "
                       f"{p['residual']:.2e} > {RESIDUAL_TOL:g}")
        if not lo <= p["beta"] <= hi:
            out.append(f"transition {p['beta']:.9g} lies outside its "
                       f"bracket [{lo:.9g}, {hi:.9g}]")
    if points:
        expected = first_transition(rule, p_x, framework)
        gap = abs(points[0]["beta"] - expected)
        if gap > FIRST_TRANSITION_TOL:
            out.append(f"first transition {points[0]['beta']:.9g} is "
                       f"{gap:.2e} from 1/lambda2 = {expected:.9g}")
    return out


def check_reduced(trace_csv, features: np.ndarray, params: np.ndarray,
                  p_x: np.ndarray) -> list[str]:
    """A reduced-solver sweep: converged, monotone, bounded, and every
    decoder row log-affine in ``params``."""
    trace = read_trace(trace_csv)
    rule = softmax_rule(features, params)
    out = _curve_failures(trace, entropy(p_x),
                          mutual_information(p_x[:, None] * rule))
    design = np.column_stack([params, np.ones(params.shape[0])])
    worst = 0.0
    for dec in trace["decoders"]:
        logs = np.log(dec).T                            # (n_y, k)
        coef = np.linalg.lstsq(design, logs, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(logs - design @ coef))))
    if not worst <= AFFINE_TOL:
        out.append(f"a decoder row leaves the exponential family: "
                   f"log-affine residual {worst:.2e} > {AFFINE_TOL:g}")
    return out


def check_error_curves(csv_path, trials: int, top_beta: float) -> list[str]:
    """Error curves: probabilities in [0, 1], the binomial half-widths, and
    a log-linear decay over the top half of sample sizes at ``top_beta``."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    p = np.array([float(r["p_err"]) for r in rows])
    half = np.array([float(r["ci_halfwidth"]) for r in rows])
    if np.any((p < 0.0) | (p > 1.0)):
        out.append("a p_err lies outside [0, 1]")
    expected = 1.96 * np.sqrt(p * (1.0 - p) / trials)
    worst = float(np.max(np.abs(half - expected)))
    if worst > CI_TOL:
        out.append(f"ci_halfwidth is off the binomial half-width by "
                   f"{worst:.2e}")
    for fw in sorted({r["framework"] for r in rows}):
        sel = [r for r in rows
               if r["framework"] == fw and float(r["beta"]) == top_beta]
        if not sel:
            out.append(f"{fw}: no curve at beta = {top_beta:g}")
            continue
        n = np.array([float(r["n"]) for r in sel])
        err = np.array([float(r["p_err"]) for r in sel])
        top = slice(n.size // 2, None)
        if np.any(err[top] <= 0.0):
            out.append(f"{fw}: p_err reaches 0 at beta = {top_beta:g}; the "
                       "log-error fit is undefined")
            continue
        r2 = r_squared(n[top], np.log(err[top]))
        if r2 < R2_MIN:
            out.append(f"{fw}: log-error fit R^2 {r2:.3f} < {R2_MIN}")
    return out


def check_chernoff(p0: np.ndarray, p1: np.ndarray, exponent: float) -> list[str]:
    """One Chernoff exponent against the dense lambda grid."""
    reference = grid_chernoff(p0, p1)
    gap = abs(exponent - reference)
    if not gap <= CHERNOFF_TOL:
        return [f"Chernoff exponent {exponent:.12g} is {gap:.2e} from the "
                f"grid value {reference:.12g}"]
    return []
