"""Command-line front end: ``bottleneck-lab <command> ...``.

Exit codes: 0 on success, 2 on validation problems (the offending flag
or field is named on stderr) and on a problem or config file that cannot
be read, 1 on internal errors.  The environment
variable ``BOTTLENECK_LAB_THREADS`` caps the BLAS thread pools; it is
applied at package import, before numpy can start them.

The README's "Command line" section describes the commands, the
problem-file schemas, the ``--config`` precedence and the artifacts.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .annealing import (
    SplitConfig,
    log_grid,
    merge_close_clusters,
    sweep,
    trace_to_csv,
)
from .expfamily import ExpFamilyModel, exp_solve, exp_sweep
from .prediction import (
    DEFAULT_BETAS,
    DEFAULT_N_VALUES,
    ClassificationProblem,
    error_curves_to_csv,
    run_prediction_experiment,
)
from .probability import DistributionError, JointDistribution
from .solvers import DEFAULT_MAX_ITER, DEFAULT_TOL, solve, state_observables
from .stability import find_critical_points

_LN2 = math.log(2.0)
#: above this many inputs ``expfam --beta`` requires ``--n-clusters``: from
#: the default, n_x clusters, each step works on n_x x n_x arrays
_DEFAULT_START_MAX_X = 256

#: documentation-only keys allowed in any problem file
_DOC_KEYS = {"name", "description"}


class ValidationError(ValueError):
    """User-facing input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _smoothing(raw: dict) -> dict:
    """``smoothing_epsilon`` as a constructor keyword, if the file sets it."""
    if raw.get("smoothing_epsilon") is None:
        return {}
    try:
        return {"smoothing_epsilon": float(raw["smoothing_epsilon"])}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("smoothing_epsilon must be a number") from exc


def _check_keys(present, allowed, context: str) -> None:
    unknown = sorted(set(present) - set(allowed) - _DOC_KEYS)
    if unknown:
        raise ValidationError(f"unknown field '{unknown[0]}' in {context}")


#: each problem-file schema: the type :func:`load_problem` returns for it
#: and its optional top-level keys
_SCHEMAS = {
    "p_y_given_x": (JointDistribution, ("p_x", "smoothing_epsilon")),
    "exp_family": (ExpFamilyModel, ()),
    "class_conditionals": (ClassificationProblem,
                           ("prior", "smoothing_epsilon")),
}


def _read_object(path, what: str) -> dict:
    """The JSON object held in the file ``path``; ``what`` names the file
    in every :class:`ValidationError` ("problem file", "config file")."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what} {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} {path} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must hold a JSON object")
    return raw


def load_problem(path):
    """Load a problem file, dispatching on its schema.

    Returns a :class:`JointDistribution`, :class:`ExpFamilyModel` or
    :class:`ClassificationProblem`.  This function checks only the JSON,
    the schema and its keys; the constructor checks every array, and
    any violation raises :class:`ValidationError` naming the offending
    field.
    """
    raw = _read_object(path, "problem file")
    schemas = [key for key in _SCHEMAS if key in raw]
    if len(schemas) > 1:
        raise ValidationError(
            "ambiguous problem file: " + " and ".join(schemas)
            + " are mutually exclusive")
    if not schemas:
        raise ValidationError("problem file needs exactly one of: "
                              + ", ".join(_SCHEMAS))
    schema = schemas[0]
    _check_keys(raw, (schema, *_SCHEMAS[schema][1]),
                f"{schema} problem file")
    try:
        if schema == "p_y_given_x":
            return JointDistribution.from_conditional(
                raw["p_y_given_x"], raw.get("p_x"), **_smoothing(raw))
        if schema == "exp_family":
            return _load_exp_family(raw["exp_family"])
        return ClassificationProblem(raw["class_conditionals"],
                                     raw.get("prior"), **_smoothing(raw))
    except DistributionError as exc:
        raise ValidationError(f"{schema} problem file: {exc}") from exc


def _load_exp_family(block) -> ExpFamilyModel:
    if not isinstance(block, dict):
        raise ValidationError("exp_family must be a JSON object")
    _check_keys(block, ("features", "params", "p_x"), "exp_family block")
    for key in ("features", "params"):
        if key not in block:
            raise ValidationError(f"exp_family.{key} is required")
    return ExpFamilyModel(block["features"], block["params"],
                          block.get("p_x"))


def parse_beta_grid(spec) -> np.ndarray:
    """Parse ``log:<lo>:<hi>:<n>`` / ``linear:<lo>:<hi>:<n>`` grid specs."""
    parts = str(spec).split(":")
    if len(parts) != 4 or parts[0] not in ("log", "linear"):
        raise ValidationError(
            "--beta-grid must look like log:<lo>:<hi>:<n> or "
            f"linear:<lo>:<hi>:<n>, got {spec!r}")
    try:
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ValidationError(
            f"--beta-grid has non-numeric pieces: {spec!r}") from None
    if not 0.0 < lo < hi < math.inf:
        raise ValidationError("--beta-grid needs finite 0 < lo < hi")
    if n < 2:
        raise ValidationError("--beta-grid needs at least two points")
    if parts[0] == "log":
        return log_grid(lo, hi, n)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _setting(kind=str, default=None, check=None, option=None, **keywords):
    """One row of the settings table: the value type (a one-item list for
    a flag taking one or more values), the allowed values or a
    ``(predicate, reason)`` check, the default in the commands that take
    the setting, its flag when not ``--<field-name>``, and further
    ``add_argument`` keywords."""
    return field(default=None, metadata={
        "kind": kind, "default": default, "check": check, "option": option,
        "keywords": keywords})


_POSITIVE = (lambda value: value > 0.0, "must be positive")
_NON_NEGATIVE = (lambda value: value >= 0, "must be >= 0")
_AT_LEAST_ONE = (lambda value: value >= 1, "must be >= 1")


@dataclass
class RunConfig:
    """Effective settings of one CLI invocation (echoed as JSON).

    The field metadata is the only description of each setting: the
    parser, the config-file keys, coercion and every check read it.
    """

    command: str
    problem_path: str | None = _setting(option="--problem", metavar="JSON")
    framework: str | None = _setting(default="both",
                                     check=("ib", "dual", "both"))
    beta: float | None = _setting(float, check=_NON_NEGATIVE)
    beta_grid: str | None = _setting(
        # parse_beta_grid raises the precise message itself
        check=(lambda spec: parse_beta_grid(spec) is not None, "is invalid"),
        metavar="KIND:LO:HI:N",
        help="log:<lo>:<hi>:<n> or linear:<lo>:<hi>:<n>")
    beta_list: list[float] | None = _setting(
        [float], list(DEFAULT_BETAS),
        (lambda betas: min(betas) > 0.0, "entries must be positive"),
        option="--betas",
        help="betas to train encoders at (default: powers of two, 2..64)")
    n_values: list[int] | None = _setting(
        [int], list(DEFAULT_N_VALUES),
        (lambda ns: ns[0] >= 1 and all(a < b for a, b in zip(ns, ns[1:])),
         "must be increasing positive integers"),
        help="test-set sizes (default: powers of two, 1..256)")
    trials: int | None = _setting(
        int, 10_000, _AT_LEAST_ONE,
        help="Monte-Carlo trials per point (default: 10000)")
    n_clusters: int | None = _setting(
        int, check=_AT_LEAST_ONE, help="cluster budget (default: n_x; each "
        "step then works on n_x x n_x arrays, so expfam --beta requires it "
        f"above {_DEFAULT_START_MAX_X} inputs)")
    g_tol: float | None = _setting(
        float, 1e-9, _POSITIVE, help="|beta * lambda2 - 1| refinement target")
    # split noise scales cells by 1 + eps * u, u in [-1, 1): from eps = 1
    # on, a cell can reach zero or flip its sign
    split_eps: float | None = _setting(
        float, SplitConfig.eps, (lambda eps: 0.0 <= eps < 1.0,
                                 "must be >= 0 and < 1"),
        help="relative perturbation of split clusters, in [0, 1)")
    merge_tol: float | None = _setting(
        float, SplitConfig.merge_tol, _POSITIVE,
        help="decoder distance below which clusters merge")
    tol: float | None = _setting(float, DEFAULT_TOL, _POSITIVE,
                                 help="encoder sup-norm convergence threshold")
    max_iter: int | None = _setting(int, DEFAULT_MAX_ITER, _AT_LEAST_ONE,
                                    help="iteration cap per solve")
    seed: int | None = _setting(int, SplitConfig.seed, _NON_NEGATIVE,
                                help="root seed for split noise / sampling")
    output_dir: str | None = _setting(
        default=".", metavar="DIR",
        help="directory for artifacts (default: current)")
    units: str | None = _setting(
        default="nats", check=("nats", "bits"),
        help="units for printed information values; stored files are always "
        "in nats")


_SETTINGS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}


def _flag(name: str, command: str) -> str:
    if name == "problem_path" and command == "error-exp":
        return "--classes"
    return _SETTINGS[name]["option"] or "--" + name.replace("_", "-")


def _config_file_values(path, allowed, command: str) -> dict:
    raw = _read_object(path, "config file")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ValidationError(
            f"config file key '{unknown[0]}' is not valid for '{command}'")
    return {key: value for key, value in raw.items() if value is not None}


def _coerce(value, kind, flag: str):
    """Convert a flag or config-file value to its setting's type."""
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)) and value:
            return [_coerce(item, kind[0], flag) for item in value]
        raise ValidationError(f"{flag} expects a list of {kind[0].__name__}, "
                              f"got {value!r}")
    try:
        if isinstance(value, bool) or (kind is str
                                       and not isinstance(value, str)):
            raise TypeError
        coerced = kind(value)
        # int() truncates a float; comparing with the int is exact.
        if kind is int and isinstance(value, float) and coerced != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{flag} expects {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(coerced):
        raise ValidationError(f"{flag} must be finite, got {value!r}")
    return coerced


def _failed_check(value, check) -> str | None:
    if check is None:
        return None
    if callable(check[0]):
        return None if check[0](value) else check[1]
    if value in check:
        return None
    return ("must be " + ", ".join(map(repr, check[:-1]))
            + f" or {check[-1]!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence (flags > config file > defaults) and validate."""
    command = args.command
    spec = _COMMANDS[command]
    names = spec.fields + _COMMON
    given = ({} if args.config is None
             else _config_file_values(args.config, names, command))
    given.update({name: getattr(args, name) for name in names
                  if getattr(args, name) is not None})
    merged = {name: _SETTINGS[name]["default"] for name in names}
    merged.update(given)

    for name in spec.required:
        if merged[name] is None:
            raise ValidationError(
                f"{command} requires {_flag(name, command)}")
    if command == "expfam":
        if (merged["beta"] is None) == (merged["beta_grid"] is None):
            raise ValidationError(
                "expfam requires exactly one of --beta or --beta-grid")
        if None not in (merged["n_clusters"], merged["beta_grid"]):
            raise ValidationError(
                "--n-clusters applies to expfam --beta only; a --beta-grid "
                "sweep starts from one cluster")
        if merged["beta"] is not None:
            unused = [name for name in _SPLIT if name in given]
            if unused:
                raise ValidationError(
                    f"{_flag(unused[0], command)} applies to expfam "
                    "--beta-grid only; a --beta solve neither splits nor "
                    "merges clusters")
            merged.update(dict.fromkeys(_SPLIT))  # unread: not echoed

    for name, value in merged.items():
        if value is None:
            continue
        flag = _flag(name, command)
        merged[name] = _coerce(value, _SETTINGS[name]["kind"], flag)
        reason = _failed_check(merged[name], _SETTINGS[name]["check"])
        if reason:
            raise ValidationError(f"{flag} {reason}")
    return RunConfig(command=command, **merged)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _frameworks(framework: str) -> tuple[str, ...]:
    return ("ib", "dual") if framework == "both" else (framework,)


def _display(nats: float, units: str) -> float:
    value = nats / _LN2 if units == "bits" else nats
    return round(value, 9) + 0.0  # drop the sign of rounding-noise zeros


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _split_config(config: RunConfig) -> SplitConfig:
    return SplitConfig(eps=config.split_eps, merge_tol=config.merge_tol,
                       seed=config.seed)


def _report_solve(config: RunConfig, path: Path, tag: str, labels: dict,
                  problem, state, report, arrays: dict) -> None:
    """Write one single-beta solve artifact of ``state`` on ``problem`` (a
    table or a model) and print its summary line.

    Clusters are counted as a sweep counts them after its merge: columns
    whose decoder rows coincide within the default ``merge_tol`` are one.
    """
    i_x, i_y, mean_d, functional = state_observables(problem, state)
    clusters = merge_close_clusters(state.encoder, state.decoder,
                                    state.marginal,
                                    SplitConfig().merge_tol).shape[1]
    _dump_json({
        **labels,
        "beta": config.beta,
        "units": "nats",
        "converged": bool(report.converged),
        "n_iterations": int(report.n_iterations),
        "i_x": float(i_x),
        "i_y": float(i_y),
        "functional": float(functional),
        "expected_distortion": float(mean_d),
        "effective_clusters": clusters,
        **{key: array.tolist() for key, array in arrays.items()},
    }, path)
    units = config.units
    print(f"{tag} beta={config.beta:g}: I_x = "
          f"{_display(i_x, units):.3f} {units}, I_y = "
          f"{_display(i_y, units):.3f} {units}, functional = "
          f"{_display(functional, units):.6g}, iterations = "
          f"{report.n_iterations}, converged = "
          f"{str(bool(report.converged)).lower()}, clusters = {clusters}")


def _cmd_solve(config: RunConfig, problem: JointDistribution) -> None:
    out = Path(config.output_dir)
    stem = Path(config.problem_path).stem
    for framework in _frameworks(config.framework):
        state, report = solve(problem, config.beta, framework,
                              n_clusters=config.n_clusters, tol=config.tol,
                              max_iter=config.max_iter)
        _report_solve(config, out / f"{stem}_{framework}_solve.json",
                      framework, {"framework": framework}, problem, state,
                      report,
                      {"marginal": state.marginal, "decoder": state.decoder})


def _critical_payload(stem: str, betas: np.ndarray, critical: dict) -> dict:
    return {
        "problem": stem,
        "grid": {"min": float(betas[0]), "max": float(betas[-1]),
                 "points": int(betas.size)},
        "frameworks": {
            framework: [{
                "beta": float(point.beta),
                "lambda2": float(point.lambda2),
                "cluster_index": int(point.cluster_index),
                "bracket": [float(point.bracket[0]),
                            float(point.bracket[1])],
                "residual": float(point.residual),
            } for point in points]
            for framework, points in critical.items()
        },
    }


def _scan_frameworks(config: RunConfig, problem: JointDistribution,
                     write_traces: bool) -> None:
    betas = parse_beta_grid(config.beta_grid)
    split = _split_config(config)
    out = Path(config.output_dir)
    stem = Path(config.problem_path).stem
    critical = {}
    for framework in _frameworks(config.framework):
        result = sweep(problem, framework, betas, split=split,
                       tol=config.tol, max_iter=config.max_iter)
        trace, _ = result
        points = find_critical_points(problem, result, tol=config.tol,
                                      max_iter=config.max_iter,
                                      g_tol=config.g_tol)
        critical[framework] = points
        counts = trace.column("effective_clusters")
        line = (f"{framework}: {betas.size} betas, clusters "
                f"{int(counts[0])} -> {int(counts[-1])}, "
                f"{len(points)} critical points")
        if write_traces:
            trace_path = out / f"{stem}_{framework}_trace.csv"
            trace_to_csv(trace, trace_path)
            line += f", trace {trace_path.name}"
        print(line)
        for point in points:
            print(f"  beta_c = {point.beta:.9f} (cluster "
                  f"{point.cluster_index}, residual {point.residual:.2e})")
    _dump_json(_critical_payload(stem, betas, critical),
               out / f"{stem}_critical_points.json")


def _cmd_expfam(config: RunConfig, model: ExpFamilyModel) -> None:
    out = Path(config.output_dir)
    stem = Path(config.problem_path).stem

    if config.beta is not None:
        state, report = exp_solve(model, config.beta,
                                  n_clusters=config.n_clusters,
                                  tol=config.tol, max_iter=config.max_iter)
        _report_solve(config, out / f"{stem}_expfam_solve.json", "expfam",
                      {"framework": "dual", "solver": "expfam"}, model,
                      state, report,
                      {"cluster_params": state.decoder @ model.params,
                       "decoder": state.decoder})
        return

    betas = parse_beta_grid(config.beta_grid)
    trace, _ = exp_sweep(model, betas, split=_split_config(config),
                         tol=config.tol, max_iter=config.max_iter)
    trace_path = out / f"{stem}_expfam_trace.csv"
    trace_to_csv(trace, trace_path)
    counts = trace.column("effective_clusters")
    print(f"expfam: {betas.size} betas, clusters {int(counts[0])} -> "
          f"{int(counts[-1])}, trace {trace_path.name}")


def _cmd_error_exp(config: RunConfig,
                   problem: ClassificationProblem) -> None:
    out = Path(config.output_dir)
    stem = Path(config.problem_path).stem
    frameworks = _frameworks(config.framework)
    curves = run_prediction_experiment(
        problem, frameworks, beta_list=config.beta_list,
        n_values=config.n_values, trials=config.trials, seed=config.seed,
        split=_split_config(config), tol=config.tol,
        max_iter=config.max_iter)
    for framework in frameworks:
        fw_curves = [c for c in curves if c.framework == framework]
        last = fw_curves[-1]
        print(f"{framework}: {len(fw_curves)} betas x "
              f"{last.n_values.size} sample sizes, {config.trials} trials, "
              f"p_err(beta={last.beta:g}, n={int(last.n_values[-1])}) = "
              f"{last.p_err[-1]:.4f}")
    csv_path = out / f"{stem}_error_curves.csv"
    error_curves_to_csv(curves, csv_path)
    print(f"curves -> {csv_path.name}")


#: accepted problem schemas, runner, help, settings, required settings
_Command = namedtuple("_Command", "schemas run help fields required")
_JOINT = ("p_y_given_x",)
_SPLIT = ("split_eps", "merge_tol")
_SCAN = ("problem_path", "framework", "beta_grid", "g_tol", *_SPLIT)
#: settings every command takes, listed after --config in its help
_COMMON = ("output_dir", "units", "tol", "max_iter", "seed")

_COMMANDS = {
    "solve": _Command(
        _JOINT, _cmd_solve,
        "one converged solve per framework at a fixed beta",
        ("problem_path", "framework", "beta", "n_clusters"),
        ("problem_path", "beta")),
    "sweep": _Command(
        _JOINT, partial(_scan_frameworks, write_traces=True),
        "annealed sweep over a beta grid; writes traces and refined "
        "critical points", _SCAN, ("problem_path", "beta_grid")),
    "critical": _Command(
        _JOINT, partial(_scan_frameworks, write_traces=False),
        "locate and refine phase transitions on a beta grid",
        _SCAN, ("problem_path", "beta_grid")),
    "expfam": _Command(
        ("p_y_given_x", "exp_family"), _cmd_expfam,
        "reduced sufficient-statistics solver (prediction framework)",
        ("problem_path", "beta", "beta_grid", "n_clusters", *_SPLIT),
        ("problem_path",)),
    "error-exp": _Command(
        ("class_conditionals",), _cmd_error_exp,
        "misclassification rate vs sample size for trained encoders",
        ("problem_path", "framework", "beta_list", "n_values", "trials",
         *_SPLIT), ("problem_path",)),
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_setting(parser: argparse.ArgumentParser, name: str,
                 command: str) -> None:
    setting = _SETTINGS[name]
    kind, check = setting["kind"], setting["check"]
    keywords = dict(setting["keywords"])
    if isinstance(kind, list):
        kind, keywords["nargs"] = kind[0], "+"
    if kind is not str:
        keywords["type"] = kind
    if check is not None and not callable(check[0]):
        keywords["choices"] = check
    parser.add_argument(_flag(name, command), dest=name, **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottleneck-lab",
        description="Bottleneck solvers: compression/prediction trade-off "
        "curves, phase transitions, and error-rate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in spec.fields:
            _add_setting(p, name, command)
        p.add_argument("--config", metavar="JSON",
                       help="JSON file of defaults for this command "
                       "(explicit flags win)")
        for name in _COMMON:
            _add_setting(p, name, command)
    return parser


def _write_run_config(config: RunConfig) -> None:
    payload = {key: value for key, value in asdict(config).items()
               if value is not None}
    _dump_json(payload, Path(config.output_dir) / "run_config.json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config = resolve_config(args)
        command = _COMMANDS[config.command]
        problem = load_problem(config.problem_path)
        schema = next(name for name, (kind, _) in _SCHEMAS.items()
                      if isinstance(problem, kind))
        if schema not in command.schemas:
            raise ValidationError(
                f"{config.command} needs a {' or '.join(command.schemas)} "
                f"problem file, got {schema}")
        if schema == "p_y_given_x" and "exp_family" in command.schemas:
            try:
                problem = ExpFamilyModel.from_conditional(problem)
            except (DistributionError, ValueError) as exc:
                raise ValidationError(
                    f"cannot fit an exponential-family model to "
                    f"{config.problem_path}: {exc}") from exc
        if (config.command == "expfam" and config.beta is not None
                and config.n_clusters is None
                and problem.n_x > _DEFAULT_START_MAX_X):
            raise ValidationError(
                f"expfam --beta on {problem.n_x} inputs requires "
                f"--n-clusters: the default start, n_x clusters, is for at "
                f"most {_DEFAULT_START_MAX_X} inputs")
        try:
            Path(config.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"--output-dir {config.output_dir!r} cannot be created: "
                f"{exc}") from exc
        _write_run_config(config)
        # a non-finite update raises a named error; no numpy warning first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            command.run(config, problem)
    except (ValidationError, DistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: internal failures exit 1
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wall {time.perf_counter() - started:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
