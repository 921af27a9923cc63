"""Self-tests of the benchmark: every output check rejects a deliberately
corrupted artifact, the reference formulas agree with closed forms, the
tracer restores what it patches, and the smoke mode runs every workload.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _round(tmp_path_factory, name: str):
    """One smoke-size round of a workload whose outputs pass every check."""
    base = tmp_path_factory.mktemp(name)
    workload = workloads.make(name, ROOT, smoke=True)
    in_dir, out_dir = base / "inputs", base / "round"
    in_dir.mkdir()
    workload.write_inputs(SEED, in_dir)
    result = workload.run_round(in_dir, out_dir)
    assert [op for op in result.operations if op.failed] == []
    return workload, result, in_dir, out_dir


@pytest.fixture(scope="module")
def golden_ib(tmp_path_factory):
    return _round(tmp_path_factory, "golden-ib")


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    return _round(tmp_path_factory, "reduced-large")


@pytest.fixture(scope="module")
def error_exp(tmp_path_factory):
    return _round(tmp_path_factory, "error-exp")


def _corrupt_copy(out_dir: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "corrupt"
    shutil.copytree(out_dir, copy)
    return copy


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_golden_rejects_shifted_first_transition(golden_ib, tmp_path):
    workload, result, in_dir, out_dir = golden_ib
    bad = _corrupt_copy(out_dir, tmp_path)
    path = bad / "golden_critical_points.json"
    payload = json.loads(path.read_text())
    first = payload["frameworks"]["ib"][0]
    first["beta"] += 1e-5            # still inside its bracket
    assert first["bracket"][0] <= first["beta"] <= first["bracket"][1]
    path.write_text(json.dumps(payload))
    problems = workload.check(result.operations[0], in_dir, bad)
    assert any("first transition" in p for p in problems), problems


def test_golden_rejects_decreasing_i_y(golden_ib, tmp_path):
    workload, result, in_dir, out_dir = golden_ib
    bad = _corrupt_copy(out_dir, tmp_path)

    def lower_one_row(header, body):
        col = header.index("i_y")
        body[-2][col] = repr(float(body[-3][col]) - 1e-6)

    _rewrite_csv(bad / "golden_ib_trace.csv", lower_one_row)
    problems = workload.check(result.operations[0], in_dir, bad)
    assert any("i_y decreases" in p for p in problems), problems


def test_reduced_rejects_decoder_outside_family(reduced, tmp_path):
    workload, result, in_dir, out_dir = reduced
    bad = _corrupt_copy(out_dir, tmp_path)

    def bend_one_row(header, body):
        cols = [i for i, h in enumerate(header) if h.startswith("dec_xhat0_")]
        row = np.array([float(body[-1][i]) for i in cols])
        row[0] *= 1.0 + 1e-6
        row /= row.sum()
        for i, value in zip(cols, row):
            body[-1][i] = repr(float(value))

    _rewrite_csv(bad / "reduced_expfam_trace.csv", bend_one_row)
    problems = workload.check(result.operations[0], in_dir, bad)
    assert any("exponential family" in p for p in problems), problems


def test_chernoff_rejects_wrong_exponent(error_exp, tmp_path):
    workload, result, in_dir, out_dir = error_exp
    bad = _corrupt_copy(out_dir, tmp_path)
    path = bad / "chernoff.json"
    payload = json.loads(path.read_text())
    payload["pairs"][0]["exponent"] += 1e-5
    path.write_text(json.dumps(payload))
    op = next(op for op in result.operations
              if op.name == "chernoff-%d-%d" % tuple(payload["pairs"][0]["pair"]))
    problems = workload.check(op, in_dir, bad)
    assert any("Chernoff exponent" in p for p in problems), problems


def test_error_curves_reject_wrong_halfwidth(error_exp, tmp_path):
    workload, result, in_dir, out_dir = error_exp
    bad = _corrupt_copy(out_dir, tmp_path)

    def widen(header, body):
        col = header.index("ci_halfwidth")
        body[0][col] = repr(float(body[0][col]) * 1.01 + 1e-9)

    _rewrite_csv(bad / "classes_error_curves.csv", widen)
    problems = workload.check(result.operations[0], in_dir, bad)
    assert any("ci_halfwidth" in p for p in problems), problems


def test_first_transition_matches_binary_closed_forms():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_x = int(rng.integers(2, 9))
        py1 = rng.uniform(0.05, 0.95, n_x)
        rule = np.column_stack([1.0 - py1, py1])
        p_x = rng.dirichlet(np.ones(n_x))
        p_y1 = p_x @ py1
        ib = (p_y1 * (1.0 - p_y1)) / (p_x @ (py1 - p_y1) ** 2)
        delta = np.log(py1) - np.log(1.0 - py1)
        mean = p_x @ np.log(rule)
        dec = np.exp(mean - mean.max())
        dec /= dec.sum()
        dual = 1.0 / (dec[0] * dec[1] * (p_x @ (delta - p_x @ delta) ** 2))
        assert checks.first_transition(rule, p_x, "ib") == pytest.approx(
            ib, rel=1e-10)
        assert checks.first_transition(rule, p_x, "dual") == pytest.approx(
            dual, rel=1e-10)


def test_tracer_restores_every_patch():
    tracer = tracing.Tracer()
    assert tracing.installed_wrappers() == []
    tracer.install()
    try:
        assert len(tracing.installed_wrappers()) == len(tracing.PATCHES)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []


def test_a_failed_command_makes_the_run_incorrect(monkeypatch):
    import run
    commands = workloads.Golden.commands

    def missing_problem(self, in_dir):
        return commands(self, in_dir / "missing")

    monkeypatch.setattr(workloads.Golden, "commands", missing_problem)
    args = run.parse_args(["--workload", "golden-ib", "--seconds", "0",
                           "--trace", "1", "--smoke"])
    result = run.run_workload(args)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "golden-ib",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_smoke_mode_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--smoke", "--seconds", "1", "--seed", str(SEED)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(
        ["golden-ib", "golden-dual", "reduced-large", "error-exp"])
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
