"""End-to-end tests of the command-line front end: problem-file
dispatch, config precedence, artifact layout, exit codes, and the
environment thread cap."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bottleneck_lab import prediction
from bottleneck_lab.annealing import log_grid
from bottleneck_lab.cli import (
    ValidationError,
    build_parser,
    load_problem,
    main,
    parse_beta_grid,
    resolve_config,
)
from bottleneck_lab.expfamily import ExpFamilyModel, exp_solve
from bottleneck_lab.prediction import ClassificationProblem
from bottleneck_lab.probability import JointDistribution
from bottleneck_lab.solvers import DEFAULT_TOL, solve

from conftest import PROPERTY_SETTINGS
from oracles import BINARY_OVERLAP5_PY0, make_class_mixture, trace_from_csv

SRC = Path(__file__).resolve().parent.parent / "src"
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
RULE_FIXTURE = PROBLEMS / "binary_overlap5.json"
CLASSES_FIXTURE = PROBLEMS / "class_mixture8.json"

# frozen first-transition locations of the shipped demo problem (oracle:
# bisection residuals ~1e-10 in the stability suite)
FIRST_CRITICAL = {"ib": 4.443238126, "dual": 3.336990631}


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def unreadable_file(tmp_path: Path, kind: str) -> str:
    """A path that open() or its UTF-8 decoding rejects: a ``directory``,
    or a file that is ``not-utf8`` (it starts with a UTF-16 byte-order
    mark).  A file without read permission takes the same ``OSError``
    path, but root reads it, so it is not among these."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    return str(path)


def source_env(env: dict) -> dict:
    """``env`` with the checkout's ``src`` first on ``PYTHONPATH``, so a
    child interpreter imports this checkout's package without an
    install."""
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, "PYTHONPATH": path}


SOLVE = ["solve", "--problem", str(RULE_FIXTURE), "--beta", "2"]
SWEEP = ["sweep", "--problem", str(RULE_FIXTURE), "--beta-grid", "log:2:6:4"]
ERROR_EXP = ["error-exp", "--classes", str(CLASSES_FIXTURE)]


def assert_rejected(argv, flag, tmp_path, capsys):
    """The run exits 2 naming ``flag`` before it writes anything."""
    out = tmp_path / "out"
    rc = main(argv + ["--output-dir", str(out)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not (out / "run_config.json").exists()


class TestBetaGrid:
    def test_log_spec(self):
        assert_array_equal(parse_beta_grid("log:0.5:8:40"),
                           log_grid(0.5, 8.0, 40))

    def test_linear_spec(self):
        assert_array_equal(parse_beta_grid("linear:1:3:5"),
                           np.linspace(1.0, 3.0, 5))

    @pytest.mark.parametrize("spec", [
        "geom:1:2:5", "log:1:2", "log:a:2:5", "log:0:2:5", "log:2:1:5",
        "log:1:2:1", "linear:-1:2:5", "linear:1:inf:5",
    ])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValidationError, match="beta-grid"):
            parse_beta_grid(spec)


class TestLoadProblem:
    def test_shipped_rule_fixture(self):
        problem = load_problem(RULE_FIXTURE)
        assert isinstance(problem, JointDistribution)
        assert_array_equal(problem.p_x, np.full(5, 0.2))
        # smoothing_epsilon is 0 in the file, so the rows are exact
        assert_array_equal(problem.rule[:, 0], BINARY_OVERLAP5_PY0)

    def test_shipped_classes_fixture(self):
        problem = load_problem(CLASSES_FIXTURE)
        assert isinstance(problem, ClassificationProblem)
        assert problem.n_classes == 8
        assert problem.n_x == 16
        assert_allclose(problem.class_conditionals, make_class_mixture(),
                        rtol=0, atol=1e-15)

    def test_optional_marginal_and_renormalization(self, tmp_path):
        rule = [[0.4, 0.6], [0.7, 0.3], [0.5, 0.5]]
        plain = load_problem(write_json(tmp_path / "a.json",
                                        {"p_y_given_x": rule}))
        assert_allclose(plain.p_x, np.full(3, 1 / 3))
        # a 5e-7 normalization slip is within the 1e-6 gate and repaired
        skew = load_problem(write_json(
            tmp_path / "b.json",
            {"p_y_given_x": rule, "p_x": [0.2 + 5e-7, 0.3, 0.5]}))
        assert_allclose(skew.p_x.sum(), 1.0, atol=1e-15)

    def test_smoothing_is_honored(self, tmp_path):
        rule = [[1.0, 0.0], [0.4, 0.6]]
        smoothed = load_problem(write_json(
            tmp_path / "s.json",
            {"p_y_given_x": rule, "smoothing_epsilon": 1e-6}))
        assert 0.0 < smoothed.rule.min() < 1e-6
        with pytest.raises(ValidationError, match="zero cells"):
            load_problem(write_json(
                tmp_path / "z.json",
                {"p_y_given_x": rule, "smoothing_epsilon": 0.0}))

    def test_exp_family_schema(self, tmp_path):
        base = load_problem(RULE_FIXTURE)
        fitted = ExpFamilyModel.from_conditional(base)
        path = write_json(tmp_path / "m.json", {"exp_family": {
            "features": fitted.features.tolist(),
            "params": fitted.params.tolist(),
        }})
        model = load_problem(path)
        assert isinstance(model, ExpFamilyModel)
        assert model.features.shape == fitted.features.shape
        assert_allclose(model.p_x, np.full(5, 0.2))

    def test_exp_family_rejections(self, tmp_path):
        with pytest.raises(ValidationError, match="params is required"):
            load_problem(write_json(tmp_path / "a.json",
                                    {"exp_family": {"features": [[1.0]]}}))
        with pytest.raises(ValidationError, match="not finite"):
            load_problem(write_json(tmp_path / "b.json", {"exp_family": {
                "features": [[float("nan")]], "params": [[1.0]]}}))
        with pytest.raises(ValidationError, match="dimension"):
            load_problem(write_json(tmp_path / "c.json", {"exp_family": {
                "features": [[1.0, 2.0]], "params": [[1.0]]}}))

    def test_field_path_rejections(self, tmp_path):
        with pytest.raises(ValidationError, match=r"p_y_given_x\[1\]\[0\]"):
            load_problem(write_json(tmp_path / "neg.json", {
                "p_y_given_x": [[0.5, 0.5], [-0.1, 1.1]]}))
        with pytest.raises(ValidationError, match=r"p_y_given_x\[0\] sums"):
            load_problem(write_json(tmp_path / "sum.json", {
                "p_y_given_x": [[0.5, 0.501], [0.5, 0.5]]}))
        with pytest.raises(ValidationError, match="rectangular"):
            load_problem(write_json(tmp_path / "rag.json", {
                "p_y_given_x": [[0.5, 0.5], [1.0]]}))
        with pytest.raises(ValidationError, match=r"prior\[1\]"):
            load_problem(write_json(tmp_path / "pri.json", {
                "class_conditionals": [[0.5, 0.5], [0.4, 0.6]],
                "prior": [1.2, -0.2]}))

    def test_schema_dispatch_rejections(self, tmp_path):
        with pytest.raises(ValidationError, match="ambiguous"):
            load_problem(write_json(tmp_path / "both.json", {
                "p_y_given_x": [[0.5, 0.5], [0.4, 0.6]],
                "exp_family": {"features": [[1.0]], "params": [[0.0]]}}))
        with pytest.raises(ValidationError, match="needs exactly one"):
            load_problem(write_json(tmp_path / "none.json", {"p_x": [1.0]}))
        with pytest.raises(ValidationError, match="unknown field 'typo'"):
            load_problem(write_json(tmp_path / "typo.json", {
                "p_y_given_x": [[0.5, 0.5], [0.4, 0.6]], "typo": 1}))

    def test_file_level_rejections(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_problem(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_problem(bad)
        with pytest.raises(ValidationError, match="JSON object"):
            load_problem(write_json(tmp_path / "list.json", [1, 2]))


#: Any JSON value: null, booleans, strings, integers (one beyond the
#: float range), floats with NaN, +-inf and 1e308, and nested, possibly
#: ragged lists and objects of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.integers()
    | st.just(10 ** 400) | st.floats() | st.sampled_from([1e308, -1e308]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=12)


def problem_fields(valid: dict, required: tuple) -> st.SearchStrategy:
    """Objects holding each field of ``valid`` (the optional ones only
    sometimes, plus a ``name``) as its valid value or as any JSON value."""
    def value(key):
        return st.just(valid[key]) | JSON_VALUES
    return st.fixed_dictionaries(
        {key: value(key) for key in required},
        optional={**{key: value(key) for key in valid if key not in required},
                  "name": JSON_VALUES})


RULE = [[0.5, 0.5], [0.2, 0.8]]
FUZZED_PROBLEMS = {
    "p_y_given_x": problem_fields(
        {"p_y_given_x": RULE, "p_x": [0.4, 0.6], "smoothing_epsilon": 0.1},
        ("p_y_given_x",)),
    "exp_family": st.fixed_dictionaries({
        "exp_family": JSON_VALUES | problem_fields(
            {"features": [[1.0], [2.0]], "params": [[0.0], [1.0]],
             "p_x": [0.4, 0.6]}, ())}),
    "class_conditionals": problem_fields(
        {"class_conditionals": RULE, "prior": [0.4, 0.6],
         "smoothing_epsilon": 0.1}, ("class_conditionals",)),
}


@pytest.mark.parametrize("schema", FUZZED_PROBLEMS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_any_problem_file_loads_or_fails_validation(schema, data,
                                                    tmp_path_factory):
    """Whatever JSON a problem field holds, loading it either succeeds or
    raises ``ValidationError`` (exit 2), never another exception (exit
    1)."""
    payload = data.draw(FUZZED_PROBLEMS[schema])
    path = write_json(tmp_path_factory.mktemp("fuzz") / "p.json", payload)
    try:
        load_problem(path)
    except ValidationError:
        pass


class TestResolveConfig:
    def test_defaults(self):
        config = resolve(["solve", "--problem", "p.json", "--beta", "2"])
        assert config.command == "solve"
        assert config.framework == "both"
        assert config.tol == DEFAULT_TOL
        assert config.units == "nats"
        assert config.output_dir == "."
        assert config.beta == 2.0

    def test_flags_beat_config_file_beat_defaults(self, tmp_path):
        config_path = write_json(tmp_path / "cfg.json",
                                 {"beta": 2.0, "units": "bits", "seed": 9})
        config = resolve(["solve", "--problem", "p.json", "--beta", "4",
                          "--config", config_path])
        assert config.beta == 4.0       # flag wins
        assert config.units == "bits"   # config file beats default
        assert config.seed == 9

    @pytest.mark.parametrize("seed", [2**53 + 1, 2**64 + 3, 10**30, 1e20])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_integers_beyond_doubles_keep_every_digit(self, tmp_path,
                                                      source, seed):
        """An integral setting takes integral values of any size, also
        those no double holds, by flag and by config file."""
        argv = ["solve", "--problem", "p.json", "--beta", "2"]
        if source == "flag":
            argv += ["--seed", str(int(seed))]
        else:
            argv += ["--config", write_json(tmp_path / "cfg.json",
                                            {"seed": seed})]
        assert resolve(argv).seed == int(seed)

    def test_config_file_rejections(self, tmp_path, capsys):
        unknown = write_json(tmp_path / "u.json", {"trials": 5})
        with pytest.raises(ValidationError, match="not valid for 'solve'"):
            resolve(["solve", "--problem", "p.json", "--beta", "1",
                     "--config", unknown])
        mistyped = write_json(tmp_path / "t.json", {"beta": "four"})
        with pytest.raises(ValidationError, match="--beta expects float"):
            resolve(["solve", "--problem", "p.json", "--config", mistyped])
        not_text = write_json(tmp_path / "d.json", {"output_dir": 5})
        with pytest.raises(ValidationError, match="--output-dir expects str"):
            resolve(["solve", "--problem", "p.json", "--beta", "1",
                     "--config", not_text])
        for kind in ("directory", "not-utf8"):
            path = unreadable_file(tmp_path, kind)
            assert_rejected(SOLVE + ["--config", path],
                            f"config file {path} cannot be read", tmp_path,
                            capsys)

    @pytest.mark.parametrize("argv, values, flag", [
        (SWEEP, {"framework": None}, None),
        (SWEEP, {"tol": None}, None),
        (SWEEP, {"split_eps": None}, None),
        (SWEEP, {"seed": None}, None),
        (SWEEP, {"output_dir": None}, None),
        (SWEEP, {"merge_tol": float("inf")}, "--merge-tol"),
        (ERROR_EXP, {"n_values": "48"}, "--n-values"),
        (ERROR_EXP, {"beta_list": "24"}, "--betas"),
        (ERROR_EXP, {"n_values": [1.5, 3]}, "--n-values"),
        (ERROR_EXP, {"trials": True}, "--trials"),
        (SWEEP, {"seed": 2.5}, "--seed"),
    ], ids=["framework-null", "tol-null", "split-eps-null", "seed-null",
            "output-dir-null", "merge-tol-infinite",
            "n-values-string", "betas-string", "n-values-fraction",
            "trials-boolean", "seed-fraction"])
    def test_config_values_mean_what_the_flag_means(
            self, tmp_path, capsys, argv, values, flag):
        """``null`` leaves a setting unset; a value its flag could not
        spell is rejected, naming the flag."""
        path = write_json(tmp_path / "cfg.json", values)
        if flag is None:
            assert resolve(argv + ["--config", path]) == resolve(argv)
        else:
            assert_rejected(argv + ["--config", path], flag, tmp_path,
                            capsys)

    @pytest.mark.parametrize("argv", [
        SWEEP, ERROR_EXP,
        ["expfam", "--problem", str(RULE_FIXTURE), "--beta-grid", "log:1:4:3"],
    ], ids=["sweep", "error-exp", "expfam"])
    @pytest.mark.parametrize("eps", [1.0, 1.01, 5.0])
    def test_split_eps_must_be_below_one(self, tmp_path, capsys, argv, eps):
        """Split noise scales cells by ``1 + eps * u`` with ``u`` in
        [-1, 1), so ``--split-eps`` of one or more, by flag or config key,
        exits 2 naming the flag before ``run_config.json`` is written;
        a value just below one is taken."""
        assert_rejected(argv + ["--split-eps", str(eps)], "--split-eps",
                        tmp_path, capsys)
        path = write_json(tmp_path / "cfg.json", {"split_eps": eps})
        assert_rejected(argv + ["--config", path], "--split-eps", tmp_path,
                        capsys)
        assert resolve(argv + ["--split-eps", "0.999"]).split_eps == 0.999

    def test_error_exp_defaults_are_materialized(self):
        config = resolve(["error-exp", "--classes", "c.json"])
        assert config.beta_list == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert config.n_values == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert config.trials == 10_000

    def test_required_and_consistency_errors(self):
        with pytest.raises(ValidationError, match="requires --problem"):
            resolve(["solve", "--beta", "1"])
        with pytest.raises(ValidationError, match="requires --beta-grid"):
            resolve(["sweep", "--problem", "p.json"])
        with pytest.raises(ValidationError, match="requires --classes"):
            resolve(["error-exp"])
        with pytest.raises(ValidationError, match="exactly one"):
            resolve(["expfam", "--problem", "p.json"])
        with pytest.raises(ValidationError, match="exactly one"):
            resolve(["expfam", "--problem", "p.json", "--beta", "1",
                     "--beta-grid", "log:1:2:4"])

    def test_range_checks(self):
        with pytest.raises(ValidationError, match="--beta must be >= 0"):
            resolve(["solve", "--problem", "p.json", "--beta", "-1"])
        with pytest.raises(ValidationError, match="--tol must be positive"):
            resolve(["solve", "--problem", "p.json", "--beta", "1",
                     "--tol", "0"])
        with pytest.raises(ValidationError,
                           match="--merge-tol must be positive"):
            resolve(["sweep", "--problem", "p.json", "--beta-grid",
                     "log:1:2:4", "--merge-tol", "0"])
        with pytest.raises(ValidationError, match="--trials must be >= 1"):
            resolve(["error-exp", "--classes", "c.json", "--trials", "0"])
        with pytest.raises(ValidationError, match="--n-values"):
            resolve(["error-exp", "--classes", "c.json",
                     "--n-values", "4", "2"])
        with pytest.raises(ValidationError, match="--betas"):
            resolve(["error-exp", "--classes", "c.json", "--betas", "0"])


PROBLEM = ("--problem", "problem_path", None, None, None, "JSON")
FRAMEWORK = ("--framework", "framework", None, None, ("ib", "dual", "both"),
             None)
BETA = ("--beta", "beta", float, None, None, None)
GRID = ("--beta-grid", "beta_grid", None, None, None, "KIND:LO:HI:N")
N_CLUSTERS = ("--n-clusters", "n_clusters", int, None, None, None)
SPLIT = [("--split-eps", "split_eps", float, None, None, None),
         ("--merge-tol", "merge_tol", float, None, None, None)]
COMMON = [("--config", "config", None, None, None, "JSON"),
          ("--output-dir", "output_dir", None, None, None, "DIR"),
          ("--units", "units", None, None, ("nats", "bits"), None),
          ("--tol", "tol", float, None, None, None),
          ("--max-iter", "max_iter", int, None, None, None),
          ("--seed", "seed", int, None, None, None)]
SCAN = [PROBLEM, FRAMEWORK, GRID, ("--g-tol", "g_tol", float, None, None,
                                   None), *SPLIT, *COMMON]
# (option, dest, type, nargs, choices, metavar) of every option, in order
INTERFACE = {
    "solve": [PROBLEM, FRAMEWORK, BETA, N_CLUSTERS, *COMMON],
    "sweep": SCAN,
    "critical": SCAN,
    "expfam": [PROBLEM, BETA, GRID, N_CLUSTERS, *SPLIT, *COMMON],
    "error-exp": [("--classes", "problem_path", None, None, None, "JSON"),
                  FRAMEWORK,
                  ("--betas", "beta_list", float, "+", None, None),
                  ("--n-values", "n_values", int, "+", None, None),
                  ("--trials", "trials", int, None, None, None),
                  *SPLIT, *COMMON],
}
# the settings each command needs besides the one under test
BASE = {
    "solve": {"problem_path": "p.json", "beta": 1.0},
    "sweep": {"problem_path": "p.json", "beta_grid": "log:1:2:3"},
    "critical": {"problem_path": "p.json", "beta_grid": "log:1:2:3"},
    "expfam": {"problem_path": "p.json", "beta": 1.0},
    "error-exp": {"problem_path": "c.json"},
}
# settings a command refuses with BASE's --beta, as they need --beta-grid
GRID_ONLY = {("expfam", "split_eps"), ("expfam", "merge_tol")}
# split noise must stay below one, so --split-eps gets a value of its own
SAMPLE = {"problem_path": "q.json", "framework": "dual", "units": "bits",
          "beta_grid": "log:1:3:4", "output_dir": "out", "split_eps": 0.25}


def sample_value(dest, kind, nargs):
    if kind is None or dest in SAMPLE:
        return SAMPLE[dest]
    value = kind(2.5) if kind is float else 3
    return [value, value * 2] if nargs == "+" else value


def base_argv(command, skip=()):
    options = {dest: option for option, dest, *_ in INTERFACE[command]}
    argv = [command]
    for dest, value in BASE[command].items():
        if dest not in skip:
            argv += [options[dest], str(value)]
    return argv


class TestInterface:
    """The flags, the config-file keys and their agreement, pinned."""

    def subparsers(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if action.dest == "command")
        return sub.choices

    def test_options_of_every_command(self):
        for command, parser in self.subparsers().items():
            options = [(action.option_strings[0], action.dest, action.type,
                        action.nargs, action.choices, action.metavar)
                       for action in parser._actions if action.dest != "help"]
            assert options == INTERFACE[command], command

    def test_flag_and_config_file_resolve_alike(self, tmp_path):
        for command, rows in INTERFACE.items():
            for option, dest, kind, nargs, _, _ in rows:
                if dest == "config":
                    continue
                value = sample_value(dest, kind, nargs)
                grid_only = (command, dest) in GRID_ONLY
                skip = ({dest, "beta"} if dest == "beta_grid" or grid_only
                        else {dest})
                argv = base_argv(command, skip)
                if grid_only:
                    argv += ["--beta-grid", SAMPLE["beta_grid"]]
                words = [str(v) for v in value] if nargs else [str(value)]
                by_flag = resolve(argv + [option, *words])
                path = write_json(tmp_path / "cfg.json", {dest: value})
                by_file = resolve(argv + ["--config", path])
                assert by_flag == by_file, (command, dest)
                assert getattr(by_flag, dest) == value, (command, dest)

    def test_settings_of_other_commands_are_rejected(self, tmp_path):
        every = {dest: sample_value(dest, kind, nargs)
                 for rows in INTERFACE.values()
                 for _, dest, kind, nargs, _, _ in rows if dest != "config"}
        for command, rows in INTERFACE.items():
            own = {dest for _, dest, *_ in rows}
            for dest in sorted(set(every) - own):
                path = write_json(tmp_path / "cfg.json", {dest: every[dest]})
                with pytest.raises(ValidationError,
                                   match=f"not valid for '{command}'"):
                    resolve(base_argv(command) + ["--config", path])


class TestSolveCommand:
    def test_beta_zero_summary(self, tmp_path, capsys):
        rc = main(["solve", "--problem", str(RULE_FIXTURE), "--beta", "0",
                   "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "I_x = 0.000" in out
        for framework in ("ib", "dual"):
            payload = json.loads(
                (tmp_path / f"binary_overlap5_{framework}_solve.json")
                .read_text())
            assert payload["converged"] is True
            assert payload["units"] == "nats"
            assert abs(payload["i_x"]) < 1e-9
        echoed = json.loads((tmp_path / "run_config.json").read_text())
        assert echoed["command"] == "solve"
        assert echoed["beta"] == 0.0
        assert echoed["problem_path"] == str(RULE_FIXTURE)

    def test_artifacts_and_determinism(self, tmp_path, capsys):
        argv = ["solve", "--problem", str(RULE_FIXTURE), "--beta", "8",
                "--framework", "ib"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--output-dir", str(a)]) == 0
        assert main(argv + ["--output-dir", str(b)]) == 0
        capsys.readouterr()
        name = "binary_overlap5_ib_solve.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()
        payload = json.loads((a / name).read_text())
        assert_allclose(np.sum(payload["marginal"]), 1.0, atol=1e-12)
        assert np.asarray(payload["decoder"]).shape[1] == 2

    def test_units_flag_rescales_stdout_only(self, tmp_path, capsys):
        argv = ["solve", "--problem", str(RULE_FIXTURE), "--beta", "8",
                "--framework", "ib", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        nats_line = capsys.readouterr().out
        assert main(argv + ["--units", "bits"]) == 0
        bits_line = capsys.readouterr().out
        nats = float(nats_line.split("I_x = ")[1].split()[0])
        bits = float(bits_line.split("I_x = ")[1].split()[0])
        assert "bits" in bits_line
        assert nats > 0.1
        assert_allclose(bits, nats / np.log(2.0), atol=2e-3)
        # the stored artifact ignores the presentation flag
        payload = json.loads(
            (tmp_path / "binary_overlap5_ib_solve.json").read_text())
        assert payload["units"] == "nats"
        assert_allclose(payload["i_x"], nats, atol=5e-4)

    def test_coinciding_clusters_count_once(self, tmp_path, capsys):
        """Below the first transition the three started clusters share one
        decoder row, so the summary and the artifact report one cluster
        (as a sweep would after its merge) while the artifact keeps all
        three rows."""
        runs = [("solve", "ib", "2"), ("solve", "dual", "2"),
                ("expfam", "expfam", "3.0")]
        for command, tag, beta in runs:
            argv = [command, "--problem", str(RULE_FIXTURE), "--beta", beta,
                    "--n-clusters", "3", "--output-dir", str(tmp_path)]
            if command == "solve":
                argv += ["--framework", tag]
            assert main(argv) == 0
            assert "clusters = 1\n" in capsys.readouterr().out
            payload = json.loads(
                (tmp_path / f"binary_overlap5_{tag}_solve.json").read_text())
            assert payload["effective_clusters"] == 1
            assert len(payload["decoder"]) == 3

    def test_single_beta_solves_skip_the_functional_trace(
            self, tmp_path, capsys, monkeypatch):
        """No artifact or console line reads the per-iteration functional,
        so ``solve`` and ``expfam --beta`` do not ask the solvers for it."""
        seen = []

        def spy(real):
            def wrapper(*args, **kwargs):
                state, report = real(*args, **kwargs)
                seen.append((real.__name__, report.functional_trace))
                return state, report
            return wrapper

        monkeypatch.setattr("bottleneck_lab.cli.solve", spy(solve))
        monkeypatch.setattr("bottleneck_lab.cli.exp_solve", spy(exp_solve))
        for command in ("solve", "expfam"):
            assert main([command, "--problem", str(RULE_FIXTURE), "--beta",
                         "4", "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert seen == [("solve", None), ("solve", None),
                        ("exp_solve", None)]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_artifacts")
    rc = main(["sweep", "--problem", str(RULE_FIXTURE), "--framework",
               "both", "--beta-grid", "log:2:6:10", "--tol", "1e-9",
               "--output-dir", str(out)])
    assert rc == 0
    return out


class TestSweepCommand:
    def test_writes_both_traces_and_one_critical_json(self, sweep_dir):
        names = {path.name for path in sweep_dir.iterdir()}
        assert names == {
            "binary_overlap5_ib_trace.csv",
            "binary_overlap5_dual_trace.csv",
            "binary_overlap5_critical_points.json",
            "run_config.json",
        }

    def test_traces_round_trip(self, sweep_dir):
        trace = trace_from_csv(sweep_dir / "binary_overlap5_ib_trace.csv")
        assert trace.framework == "ib"
        assert len(trace.records) == 10
        assert_array_equal(trace.betas, log_grid(2.0, 6.0, 10))
        counts = trace.column("effective_clusters")
        assert counts[0] == 1
        assert counts[-1] == 2

    def test_refined_critical_points(self, sweep_dir):
        payload = json.loads(
            (sweep_dir / "binary_overlap5_critical_points.json").read_text())
        assert payload["grid"] == {"min": 2.0, "max": 6.0, "points": 10}
        for framework, expected in FIRST_CRITICAL.items():
            points = payload["frameworks"][framework]
            assert len(points) == 1
            assert_allclose(points[0]["beta"], expected, atol=1e-4)
            assert points[0]["residual"] < 1e-6
            lo, hi = points[0]["bracket"]
            assert lo < points[0]["beta"] < hi

    def test_run_config_echo(self, sweep_dir):
        echoed = json.loads((sweep_dir / "run_config.json").read_text())
        assert echoed["command"] == "sweep"
        assert echoed["beta_grid"] == "log:2:6:10"
        assert echoed["tol"] == 1e-9
        assert echoed["split_eps"] == 1e-3
        assert "beta" not in echoed  # unset fields are not echoed


class TestCriticalCommand:
    def test_detects_without_traces(self, tmp_path, capsys):
        rc = main(["critical", "--problem", str(RULE_FIXTURE),
                   "--framework", "ib", "--beta-grid", "log:3:5:6",
                   "--tol", "1e-9", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 critical points" in out
        assert "beta_c = 4.443" in out
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"binary_overlap5_critical_points.json",
                         "run_config.json"}
        payload = json.loads(
            (tmp_path / "binary_overlap5_critical_points.json").read_text())
        assert list(payload["frameworks"]) == ["ib"]


class TestExpfamCommand:
    def test_single_beta_matches_full_table_dual(self, tmp_path, capsys):
        assert main(["expfam", "--problem", str(RULE_FIXTURE), "--beta",
                     "6", "--output-dir", str(tmp_path)]) == 0
        assert main(["solve", "--problem", str(RULE_FIXTURE), "--beta",
                     "6", "--framework", "dual",
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        reduced = json.loads(
            (tmp_path / "binary_overlap5_expfam_solve.json").read_text())
        table = json.loads(
            (tmp_path / "binary_overlap5_dual_solve.json").read_text())
        assert reduced["solver"] == "expfam"
        assert_allclose(reduced["i_x"], table["i_x"], atol=1e-6)
        assert_allclose(reduced["i_y"], table["i_y"], atol=1e-6)
        assert_allclose(reduced["functional"], table["functional"],
                        atol=1e-6)

    def test_grid_writes_trace(self, tmp_path, capsys):
        rc = main(["expfam", "--problem", str(RULE_FIXTURE), "--beta-grid",
                   "log:2:6:8", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        trace = trace_from_csv(
            tmp_path / "binary_overlap5_expfam_trace.csv")
        assert len(trace.records) == 8
        assert trace.framework == "dual"

    def test_accepts_exp_family_files(self, tmp_path, capsys):
        fitted = ExpFamilyModel.from_conditional(load_problem(RULE_FIXTURE))
        path = write_json(tmp_path / "model.json", {"exp_family": {
            "features": fitted.features.tolist(),
            "params": fitted.params.tolist(),
        }})
        rc = main(["expfam", "--problem", path, "--beta", "4",
                   "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "model_expfam_solve.json").exists()

    def test_model_whose_rule_underflows(self, tmp_path, capsys):
        """Log-probabilities down to about -2e4 leave rule cells at exactly
        zero; the reduced solver never needs them to be positive."""
        rng = np.random.default_rng(0)
        features = rng.standard_normal((50, 3)) * 40
        params = rng.standard_normal((20, 3)) * 40
        model = ExpFamilyModel(features, params, np.full(50, 1 / 50))
        assert model.rule.min() == 0.0
        path = write_json(tmp_path / "steep.json", {"exp_family": {
            "features": features.tolist(), "params": params.tolist()}})
        rc = main(["expfam", "--problem", path, "--beta-grid",
                   "log:0.25:2:8", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        trace = trace_from_csv(tmp_path / "steep_expfam_trace.csv")
        assert len(trace.records) == 8
        assert all(trace.column("converged"))

    def test_cluster_budget_on_a_large_model(self, tmp_path, capsys):
        """The 2000 x 200 x 3 model of one N(0, 1) draw (seed 1) solves
        from a small cluster budget; from the default n_x = 2000 clusters
        each step costs about 0.15 s."""
        rng = np.random.default_rng(1)
        path = write_json(tmp_path / "large.json", {"exp_family": {
            "features": rng.standard_normal((2000, 3)).tolist(),
            "params": rng.standard_normal((200, 3)).tolist()}})
        rc = main(["expfam", "--problem", path, "--beta", "3.0",
                   "--n-clusters", "4", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(
            (tmp_path / "large_expfam_solve.json").read_text())
        assert report["converged"]
        assert len(report["decoder"]) == 4

    def test_large_model_requires_a_cluster_budget(self, tmp_path, capsys):
        """Without ``--n-clusters`` a solve starts from n_x clusters, whose
        steps cost 83 ms at n_x = 2000, where a solve never finished; so
        ``--beta`` on that model exits 2 naming the flag, at once and
        before it writes anything."""
        rng = np.random.default_rng(1)
        path = write_json(tmp_path / "large.json", {"exp_family": {
            "features": rng.standard_normal((2000, 3)).tolist(),
            "params": rng.standard_normal((200, 3)).tolist()}})
        started = time.perf_counter()
        assert_rejected(["expfam", "--problem", path, "--beta", "3.0"],
                        "--n-clusters", tmp_path, capsys)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("n_x, code", [(256, 0), (257, 2)])
    def test_default_start_up_to_256_inputs(self, tmp_path, capsys, n_x,
                                            code):
        """Models with at most 256 inputs still solve from the default."""
        rng = np.random.default_rng(2)
        path = write_json(tmp_path / "model.json", {"exp_family": {
            "features": rng.standard_normal((n_x, 1)).tolist(),
            "params": rng.standard_normal((2, 1)).tolist()}})
        rc = main(["expfam", "--problem", path, "--beta", "2",
                   "--max-iter", "3", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == code
        assert (tmp_path / "run_config.json").exists() == (code == 0)

    @pytest.mark.parametrize("mode", [["--beta", "2"],
                                      ["--beta-grid", "log:0.25:2:8"]],
                             ids=["beta", "beta-grid"])
    def test_zero_dimensional_model(self, tmp_path, capsys, mode):
        """``d = 0`` describes the uniform rule, which leaves nothing to
        learn: every solve ends at zero information."""
        path = write_json(tmp_path / "flat.json", {"exp_family": {
            "features": [[], [], []], "params": [[], []]}})
        rc = main(["expfam", "--problem", path, *mode,
                   "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        if mode[0] == "--beta":
            report = json.loads(
                (tmp_path / "flat_expfam_solve.json").read_text())
            i_values = [report["i_x"], report["i_y"]]
        else:
            trace = trace_from_csv(tmp_path / "flat_expfam_trace.csv")
            i_values = [*trace.column("i_x"), *trace.column("i_y")]
        assert_allclose(i_values, 0.0, atol=1e-12)

    def test_cluster_budget_is_rejected_with_a_grid(self, tmp_path, capsys):
        argv = ["expfam", "--problem", str(RULE_FIXTURE), "--beta-grid",
                "log:2:6:4"]
        assert_rejected(argv + ["--n-clusters", "2"], "--n-clusters",
                        tmp_path, capsys)
        config = write_json(tmp_path / "cfg.json", {"n_clusters": 2})
        assert_rejected(argv + ["--config", config], "--n-clusters",
                        tmp_path, capsys)

    @pytest.mark.parametrize("mode, echoed", [
        (["--beta", "8", "--n-clusters", "3"], False),
        (["--beta-grid", "log:2:6:4"], True)], ids=["beta", "beta-grid"])
    def test_run_config_echoes_split_settings_of_sweeps_only(
            self, tmp_path, capsys, mode, echoed):
        """A single-beta solve reads no split setting, so its
        ``run_config.json`` leaves both out; a sweep echoes their values."""
        assert main(["expfam", "--problem", str(RULE_FIXTURE), *mode,
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        config = json.loads((tmp_path / "run_config.json").read_text())
        for key in ("split_eps", "merge_tol"):
            assert (key in config) == echoed, key

    @pytest.mark.parametrize("flag, key, value", [
        ("--split-eps", "split_eps", 0.5),
        ("--merge-tol", "merge_tol", 0.9),
        ("--merge-tol", "merge_tol", 1e-4)], ids=["split-eps", "merge-tol",
                                                  "merge-tol-default"])
    def test_split_settings_are_rejected_with_one_beta(
            self, tmp_path, capsys, flag, key, value):
        """A single-beta solve neither splits nor merges, so a split
        setting the user gives, by flag or by config file and even at its
        default value, is refused rather than ignored."""
        argv = ["expfam", "--problem", str(RULE_FIXTURE), "--beta", "8",
                "--n-clusters", "4"]
        assert_rejected(argv + [flag, str(value)], flag, tmp_path, capsys)
        config = write_json(tmp_path / "cfg.json", {key: value})
        assert_rejected(argv + ["--config", config], flag, tmp_path, capsys)

    def test_rejections(self, tmp_path, capsys):
        rc = main(["expfam", "--problem", str(CLASSES_FIXTURE), "--beta",
                   "4", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "class_conditionals" in err
        three_labels = write_json(tmp_path / "tri.json", {
            "p_y_given_x": [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]]})
        rc = main(["expfam", "--problem", three_labels, "--beta", "4",
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot fit" in err


class TestErrorExpCommand:
    ARGS = ["error-exp", "--classes", str(CLASSES_FIXTURE),
            "--betas", "4", "64", "--n-values", "1", "4", "16",
            "--trials", "300", "--seed", "5"]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--output-dir", str(a)]) == 0
        assert main(self.ARGS + ["--output-dir", str(b)]) == 0
        capsys.readouterr()
        name = "class_mixture8_error_curves.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()
        config_a = json.loads((a / "run_config.json").read_text())
        config_b = json.loads((b / "run_config.json").read_text())
        config_a.pop("output_dir")
        config_b.pop("output_dir")
        assert config_a == config_b

    def test_csv_covers_both_frameworks(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.ARGS + ["--output-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ib: 2 betas x 3 sample sizes" in stdout
        assert "dual: 2 betas x 3 sample sizes" in stdout
        lines = (out / "class_mixture8_error_curves.csv") \
            .read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 3
        assert lines[0] == "framework,beta,n,p_err,ci_halfwidth,trials,seed"

    def test_both_frameworks_sample_once(self, tmp_path, capsys,
                                         monkeypatch):
        """``--framework both`` draws each chunk of trials once, as many
        draws as one framework makes; 3109 trials span four chunks."""
        draws = []
        sampler = prediction._empirical_counts

        def counting(*args):
            draws.append(args)
            return sampler(*args)

        monkeypatch.setattr(prediction, "_empirical_counts", counting)
        args = ["error-exp", "--classes", str(CLASSES_FIXTURE),
                "--betas", "4", "64", "--n-values", "1", "4", "256",
                "--trials", "3109", "--seed", "5"]
        counts = []
        for framework in ("ib", "both"):
            assert main(args + ["--framework", framework, "--output-dir",
                                str(tmp_path / framework)]) == 0
            counts.append(len(draws))
            draws.clear()
        capsys.readouterr()
        assert counts == [4, 4]

    def test_rejects_wrong_schema(self, tmp_path, capsys):
        rc = main(["error-exp", "--classes", str(RULE_FIXTURE),
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "class_conditionals" in err


class TestExitCodes:
    def test_internal_errors_exit_one(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr("bottleneck_lab.cli.solve", boom)
        rc = main(["solve", "--problem", str(RULE_FIXTURE), "--beta", "2",
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "internal error" in err
        assert "solver exploded" in err

    def test_non_finite_solve_exits_two_naming_beta(self, tmp_path, capsys):
        """At beta = 1e308 the encoder update overflows to NaN: the solve
        exits 2 within a second naming beta, rather than after
        ``max_iter`` NaN steps blaming a derived ``joint``."""
        started = time.perf_counter()
        with np.errstate(all="ignore"):
            rc = main(SOLVE[:-1] + ["1e308", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert time.perf_counter() - started < 1.0
        assert rc == 2
        assert "beta" in err and "joint" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", str(RULE_FIXTURE), "--beta", "1e308"],
        ["expfam", "--problem", str(RULE_FIXTURE), "--beta", "1e308",
         "--n-clusters", "2"]])
    def test_non_finite_update_prints_only_the_error(self, tmp_path, argv):
        """A fresh interpreter shows no numpy warning or source line ahead
        of the error that names beta: stderr is that one line."""
        result = subprocess.run(
            [sys.executable, "-m", "bottleneck_lab.cli", *argv,
             "--output-dir", str(tmp_path)],
            env=source_env(dict(os.environ)), capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr == ("error: beta = 1e+308 gives a non-finite "
                                 "encoder update\n")

    def test_validation_problems_exit_two(self, tmp_path, capsys):
        rc = main(["solve", "--problem", str(tmp_path / "nope.json"),
                   "--beta", "2", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "not found" in err

    def test_unwritable_output_dir_names_the_flag(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["solve", "--problem", str(RULE_FIXTURE), "--beta", "2",
                   "--output-dir", str(blocker)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--output-dir" in err

    @pytest.mark.parametrize("argv, flag", [
        (SOLVE + ["--tol", "nan"], "--tol"),
        (SOLVE + ["--beta", "nan"], "--beta"),
        (SWEEP + ["--g-tol", "nan"], "--g-tol"),
        (SWEEP + ["--split-eps", "inf"], "--split-eps"),
        (SWEEP + ["--seed", "-1"], "--seed"),
        (SWEEP + ["--beta-grid", "log:2:inf:4"], "--beta-grid"),
        (ERROR_EXP + ["--betas", "4", "nan"], "--betas"),
    ], ids=["tol", "beta", "g-tol", "split-eps", "seed", "beta-grid",
            "betas"])
    def test_non_finite_values_and_negative_seeds(self, tmp_path, capsys,
                                                   argv, flag):
        assert_rejected(argv, flag, tmp_path, capsys)

    REJECTED_FILES = {
        "solve": (["solve", "--problem", None, "--beta", "2"],
                  CLASSES_FIXTURE),
        "sweep": (["sweep", "--problem", None, "--beta-grid", "log:2:6:4"],
                  CLASSES_FIXTURE),
        "critical": (["critical", "--problem", None,
                      "--beta-grid", "log:2:6:4"], CLASSES_FIXTURE),
        "expfam": (["expfam", "--problem", None, "--beta", "2"],
                   CLASSES_FIXTURE),
        "error-exp": (["error-exp", "--classes", None], RULE_FIXTURE),
    }

    @pytest.mark.parametrize("argv, problem", [
        *(pytest.param(argv, wrong, id=f"wrong-schema-{name}")
          for name, (argv, wrong) in REJECTED_FILES.items()),
        *(pytest.param(argv, "nope.json", id=f"missing-{name}")
          for name, (argv, _) in REJECTED_FILES.items()),
        *(pytest.param(["solve", "--problem", None, "--beta", "2"], kind,
                       id=f"{kind}-solve")
          for kind in ("directory", "not-utf8")),
        pytest.param(["error-exp", "--classes", None],
                     {"class_conditionals": [[0.5, 0.5]]},
                     id="one-class-error-exp"),
        pytest.param(["error-exp", "--classes", None],
                     {"class_conditionals": [[1.0], [1.0]]},
                     id="one-input-error-exp"),
        pytest.param(["solve", "--problem", None, "--beta", "2"],
                     {"p_y_given_x": [[0.5, 0.5], [0.4, 0.6]],
                      "p_x": [0.5, 0.6]}, id="bad-p_x-solve"),
        *(pytest.param(["solve", "--problem", None, "--beta", "2"],
                       {"p_y_given_x": [[0.5, 0.5], [0.4, 0.6]],
                        "smoothing_epsilon": eps}, id=f"smoothing-{eps}-solve")
          for eps in (float("nan"), float("inf"), 1.0)),
        pytest.param(["error-exp", "--classes", None],
                     {"class_conditionals": [[0.5, 0.5], [0.4, 0.6]],
                      "smoothing_epsilon": float("nan")},
                     id="smoothing-nan-error-exp"),
        pytest.param(["expfam", "--problem", None, "--beta", "2"],
                     {"exp_family": {"features": [[1e308], [1.0]],
                                     "params": [[1e308], [0.0]]}},
                     id="overflowing-interactions-expfam"),
    ])
    def test_rejected_problem_files_leave_no_run_config(
            self, tmp_path, capsys, argv, problem):
        """Wrong-schema files, missing files, directories and files that
        are not UTF-8, class files too small to build a joint from, files
        with a bad ``p_x`` or ``smoothing_epsilon``, and exp-family files
        whose interactions overflow exit 2 before writing
        ``run_config.json``."""
        expected = "problem file"
        if isinstance(problem, dict):
            problem = write_json(tmp_path / "small.json", problem)
        elif problem == "nope.json":
            problem = tmp_path / problem
        elif isinstance(problem, str):
            problem = unreadable_file(tmp_path, problem)
            expected = f"problem file {problem} cannot be read"
        argv = [str(problem) if arg is None else arg for arg in argv]
        assert_rejected(argv, expected, tmp_path, capsys)

    def test_unknown_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--bogus", "1"])
        capsys.readouterr()
        assert excinfo.value.code == 2


class TestThreadCapAndEntryPoint:
    def run_python(self, code: str, extra_env: dict) -> str:
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")
               and k != "BOTTLENECK_LAB_THREADS"}
        env.update(extra_env)
        return subprocess.run([sys.executable, "-c", code],
                              env=source_env(env),
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    PROBE = ("import bottleneck_lab, os; "
             "print(os.environ.get('OMP_NUM_THREADS'), "
             "os.environ.get('MKL_NUM_THREADS'))")

    def test_env_var_caps_blas_pools(self):
        assert self.run_python(
            self.PROBE, {"BOTTLENECK_LAB_THREADS": "3"}) == "3 3"

    def test_explicit_pool_settings_win(self):
        assert self.run_python(
            self.PROBE, {"BOTTLENECK_LAB_THREADS": "3",
                         "OMP_NUM_THREADS": "7"}) == "7 3"

    def test_unset_leaves_environment_alone(self):
        assert self.run_python(self.PROBE, {}) == "None None"

    def test_no_command_loads_scipy(self, tmp_path):
        """numpy is the only runtime dependency: a fresh interpreter that
        runs every command imports no scipy module, eagerly or lazily."""
        runs = [SOLVE, SWEEP,
                ["critical", "--problem", str(RULE_FIXTURE), "--beta-grid",
                 "log:2:6:4"],
                ["expfam", "--problem", str(RULE_FIXTURE), "--beta", "4"],
                ["expfam", "--problem", str(RULE_FIXTURE), "--beta-grid",
                 "log:2:6:4"],
                ERROR_EXP + ["--betas", "4", "--n-values", "1", "4",
                             "--trials", "50"]]
        runs = [argv + ["--output-dir", str(tmp_path / str(i))]
                for i, argv in enumerate(runs)]
        code = ("import json, sys\n"
                "from bottleneck_lab.cli import main\n"
                f"codes = [main(argv) for argv in {runs!r}]\n"
                "print(json.dumps([codes, sorted(name for name in sys.modules"
                " if name.startswith('scipy'))]))")
        last = self.run_python(code, {}).splitlines()[-1]
        assert json.loads(last) == [[0] * len(runs), []]

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "bottleneck_lab.cli", "solve",
             "--problem", str(RULE_FIXTURE), "--beta", "0",
             "--output-dir", str(tmp_path)],
            env=source_env(dict(os.environ)), capture_output=True, text=True)
        assert result.returncode == 0
        assert "I_x = 0.000" in result.stdout
        assert (tmp_path / "run_config.json").exists()
