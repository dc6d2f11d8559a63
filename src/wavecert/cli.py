"""Config-driven command line: ``verify``, ``construct``, ``curvature``,
``rays``, and ``examples``.

A run configuration is flat key-value text with three section headers::

    [problem]
    A.diagonal = true
    A.entries = ["exp(x1 + x2)", "exp(x1 + x2)"]
    # verify only
    weight = "(x1^2 + x2^2)/2"
    constants = {"mu1": 0.5}

    [region]
    dim = 2
    box = [[1, 3], [-1, 1]]
    constraints = ["(x1 - 2)^2 + x2^2 - 1"]
    margin = 0

    [options]
    resolution = 33
    lambda_max = 1048576
    target_margin = 0
    horizon = 20
    step = 0.01
    count = 32
    center = [0, 0]
    threads = 1
    force_j = 1

Values are JSON, and a number is never a string; full-line ``#`` comments
are allowed; unknown keys are errors.  One table, ``_KEYS``, gives every key
its kind, default and check, and each ``[options]`` key the subcommands that
take it as a flag (``lambda_max`` is ``--lambda-max``); a flag's text
overrides the file and is read the same way.  An unset or ``null`` key takes
its default; a required key has none.  ``threads`` is accepted and echoed in
the report but has no effect: the grid's linear algebra runs on whole stacks.
Exit codes: 0 success or certified, 2 honest negative (not certified / no
admissible axis / budget exhausted), 3 configuration or usage error
(including a grid above ``domain.MAX_GRID_POINTS`` and a constant that
``constants`` does not define), 4 numeric or domain error.
"""

import argparse
import math
import os
import re
import sys
import time
from collections import namedtuple
from dataclasses import asdict
from functools import cache

import numpy as np

from . import __version__
from .bundled import EXAMPLES, config_text
from .coeff import CoefficientField, build
from .condition import GridProblem, weight_function
from .curvature import check_sign_change_window, classify_sign
from .domain import Region, region, sample
from .errors import (
    ConfigError,
    EvaluationError,
    LambdaMaxExceededError,
    RegionError,
    StepCollapseError,
    UnboundConstantError,
    WavecertError,
    WeightOverflowError,
)
from .rays import fan
from .report import dumps_stable, write_csv
from .weight import (
    DEFAULT_LAMBDA_MAX,
    WeightCertificate,
    compute_shift,
    find_lambda,
    pick_index,
    sign_ranges,
)

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

# verdicts of runs in which no weight is fully checked, so no ``--dump-grid`` is written
_NO_DUMP_VERDICTS = ("failed_coefficient", "no_admissible_index", "lambda_max_exceeded")


# ---------------------------------------------------------------------------
# configuration


def _number(key, value, kind, text=False):
    """``value`` read as ``kind``, ``int`` or ``float``, else a ConfigError
    naming the value it got.  A string is a number only as a flag's ``text``."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or fractional or (isinstance(value, str) and not text):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def _read(key, value, kind, cfg, text=False):
    """``value`` read as ``kind``: ``bool``, ``int``, ``float``, ``str`` (an
    expression), ``"expressions"`` (a list of them), ``"table"`` (name -> finite
    number), ``"pairs"`` (``cfg.dim`` [lo, hi] pairs) or ``"point"``
    (``cfg.dim`` numbers), each number by :func:`_number`.  A value of the
    wrong kind raises ValueError; a wrong truth value or number raises a
    ConfigError naming the value it got."""
    if kind in (int, float):
        return _number(key, value, kind, text)
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    if kind == "point" and text:  # a flag lists the numbers comma-separated
        value = value.split(",")
    if kind == "table" and isinstance(value, dict):
        value = {k: _number(f"constant {k!r}", v, float) for k, v in value.items()}
        for k, v in value.items():
            if not math.isfinite(v):
                raise ConfigError(f"constant {k!r} must be a finite number, got {v!r}")
    elif kind == "point" and isinstance(value, list):
        value = [_number(key, v, float, text) for v in value]
        if len(value) != cfg.dim:
            raise ConfigError(f"{key} dimension does not match the region")
    elif kind == "pairs" and isinstance(value, list) and len(value) == cfg.dim and all(
        isinstance(b, list) and len(b) == 2 for b in value
    ):
        value = [[_number(key, v, float) for v in b] for b in value]
    elif kind == "expressions" and isinstance(value, list) and all(
        isinstance(e, str) for e in value
    ):
        value = list(value)
    elif kind not in (bool, str) or not isinstance(value, kind):
        raise ValueError
    return value


# One config key, read as ``kind``; a value of the wrong kind, or one that fails
# ``check`` once read, is the error "{key} must be {rule}".  Unset or ``null``
# takes ``default`` (computed from the keys before it when callable).  An option
# is in ``RunConfig.options``, and ``commands`` take it as a flag (``lambda_max``
# is ``--lambda-max``); another key is the attribute ``attr``, by default the key.
_Key = namedtuple("_Key", "kind default commands check rule help attr", defaults=(None,) * 5)
_REQUIRED = object()  # the default of a key that every config sets
_ALL = ("verify", "construct", "curvature", "rays", "examples")
_KEYS = {
    "problem": {
        "A.diagonal": _Key(bool, _REQUIRED, attr="diagonal"),
        "A.entries": _Key(
            "expressions", _REQUIRED, check=bool, rule="a nonempty list of expression strings",
            attr="entries",
        ),
        "weight": _Key(str, None, rule="an expression string", attr="weight_text"),
        "constants": _Key("table", {}, rule="a table of name -> number"),
    },
    "region": {
        "dim": _Key(int, _REQUIRED),
        "box": _Key("pairs", _REQUIRED, rule="a list of [lo, hi] pairs, one per axis"),
        "constraints": _Key("expressions", [], rule="a list of expression strings"),
        "margin": _Key(float, 0.0),
    },
    "options": {
        "resolution": _Key(int, 33, _ALL),
        "lambda_max": _Key(float, DEFAULT_LAMBDA_MAX, ("construct",), lambda v: v >= 1.0, ">= 1"),
        "target_margin": _Key(float, 0.0, ("construct",), math.isfinite, "a finite number"),
        "horizon": _Key(float, 20.0, ("rays",), lambda v: 0.0 < v < math.inf, "a positive number"),
        "step": _Key(float, 0.01, ("rays",), lambda v: 0.0 < v < math.inf, "a positive number"),
        "count": _Key(int, 32, ("rays",), lambda v: v >= 0, "nonnegative"),
        "center": _Key(
            "point", lambda cfg: [0.5 * (lo + hi) for lo, hi in cfg.box], ("rays",),
            rule="a list of numbers", help="comma-separated start point",
        ),
        "threads": _Key(int, None, _ALL, help="accepted; has no effect"),
        "force_j": _Key(int, None, ("construct",)),
    },
}


def parse_config_text(text: str) -> dict:
    """Parse section-headed key-value text into {section: {key: value}}.

    Every value is JSON.  Unknown sections or keys, duplicate keys, and
    malformed values are all reported as :class:`ConfigError` before any
    computation starts.
    """
    import json

    sections = {name: {} for name in _KEYS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in _KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            sections[current][key] = json.loads(value_text.strip())
        except (ValueError, RecursionError) as exc:  # json nests by recursion
            raise ConfigError(f"line {lineno}: bad JSON value for {key!r}: {exc}") from None
    return sections


class RunConfig:
    """Validated problem + region + options, ready to execute: ``diagonal``,
    ``entries``, ``weight_text``, ``constants``, ``dim``, ``box``, ``constraints``,
    ``margin`` and ``options`` hold every key as its ``_KEYS`` entry reads it, in
    table order, with ``overrides`` (option key -> a flag's text, or None) in
    place of the ``[options]`` values."""

    def __init__(self, sections: dict, overrides=None):
        overrides = overrides or {}
        self.options = {}
        for section, keys in _KEYS.items():
            values = self.options if section == "options" else vars(self)
            for key, spec in keys.items():
                flag = overrides.get(key) is not None
                value = overrides[key] if flag else sections.get(section, {}).get(key)
                if value is None:
                    value = spec.default(self) if callable(spec.default) else spec.default
                if value is _REQUIRED:
                    raise ConfigError(f"[{section}] is missing {key!r}")
                if value is not None:
                    try:
                        value = _read(key, value, spec.kind, self, flag)
                        if spec.check is not None and not spec.check(value):
                            raise ValueError
                    except ValueError:
                        raise ConfigError(f"{key} must be {spec.rule}") from None
                values[spec.attr or key] = value

    @classmethod
    def from_text(cls, text: str, overrides=None) -> "RunConfig":
        return cls(parse_config_text(text), overrides)

    def build_field(self) -> CoefficientField:
        try:
            field = build(self.entries, self.diagonal)
        except (WavecertError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad coefficient entries: {exc}") from exc
        if field.dim != self.dim:
            raise ConfigError(
                f"A.entries imply dimension {field.dim}, region has dim {self.dim}"
            )
        return field

    def build_region(self) -> Region:
        try:
            return region(self.dim, self.box, self.constraints, self.margin)
        except WavecertError as exc:
            raise ConfigError(f"bad region: {exc}") from exc

    def build_weight(self):
        if self.weight_text is None:
            raise ConfigError("this command needs a weight expression in [problem]")
        try:
            return weight_function(self.weight_text, self.dim)
        except WavecertError as exc:
            raise ConfigError(f"bad weight expression: {exc}") from exc

    def echo(self) -> dict:
        """Every key's value; outside ``[options]`` an unset key is left out."""
        echo = {}
        for section, keys in _KEYS.items():
            values = self.options if section == "options" else vars(self)
            read = {key: values[spec.attr or key] for key, spec in keys.items()}
            echo[section] = {k: v for k, v in read.items() if v is not None or section == "options"}
        return echo


# ---------------------------------------------------------------------------
# report dictionaries


def certificate_dict(cert: WeightCertificate) -> dict:
    from .expr import render

    return {
        "axis": cert.axis,
        "sign_case": cert.sign_case,
        "shift": cert.shift,
        "lambda": cert.lam,
        "margin": cert.report.margin,
        "sign_margin": cert.sign_margin,
        "weight": render(cert.weight.expression),
        "report": asdict(cert.report),
        "refinement": asdict(cert.refinement_report),
    }


def _sign_ranges_list(ranges: dict) -> list:
    return [
        {"axis": j, "entry": i, "min": lo, "max": hi}
        for (j, i), (lo, hi) in sorted(ranges.items())
    ]


def ray_summary_dict(outcomes) -> dict:
    escaped = [o for o in outcomes if o.escaped]
    summary = {
        "count": len(outcomes),
        "escaped": len(escaped),
        "trapped_until_horizon": len(outcomes) - len(escaped),
        "max_drift": max((o.hamiltonian_drift for o in outcomes), default=0.0),
        "rays": [
            {
                "index": idx,
                "outcome": o.label,
                "escape_time": o.escape_time if o.escaped else "trapped_until_horizon",
                "min_boundary_distance": o.min_boundary_distance,
                "drift": o.hamiltonian_drift,
                "step": o.step_used,
            }
            for idx, o in enumerate(outcomes)
        ],
    }
    if escaped:
        times = [o.escape_time for o in escaped]
        summary["escape_time_min"] = min(times)
        summary["escape_time_max"] = max(times)
    return summary


# ---------------------------------------------------------------------------
# commands (each returns exit_code, verdict, result dict)


def run_verify(cfg: RunConfig, dump_path=None):
    field, reg, weight = cfg.build_field(), cfg.build_region(), cfg.build_weight()
    grid = sample(reg, cfg.options["resolution"], cfg.constants)
    problem = GridProblem(field, grid, cfg.constants)
    rep = problem.check(weight, dump_path)
    result = asdict(rep)
    if dump_path is not None and rep.verdict not in _NO_DUMP_VERDICTS:
        result["dump_path"] = str(dump_path)  # no other command's report names its dump
    code = EXIT_OK if rep.certified else EXIT_NOT_CERTIFIED
    return code, rep.verdict, result


def run_construct(cfg: RunConfig, dump_path=None):
    field = cfg.build_field()
    if not field.diagonal:
        raise ConfigError("construct requires diagonal coefficients")
    force_axis = cfg.options["force_j"]
    if force_axis is not None and not 1 <= force_axis <= field.dim:
        raise ConfigError(f"force_j={force_axis} out of range for dimension {field.dim}")
    grid = sample(cfg.build_region(), cfg.options["resolution"], cfg.constants)
    problem = GridProblem(field, grid, cfg.constants)
    failure = problem.coefficient_failure
    if failure is not None:  # no weight can pass, so no axis or rate is searched
        return EXIT_NOT_CERTIFIED, failure.verdict, asdict(failure)
    ranges = sign_ranges(problem.da)
    chosen = pick_index(ranges, field.dim, force_axis)
    if chosen is None:  # so no axis is forced and none is admissible
        result = {"sign_ranges": _sign_ranges_list(ranges), "candidates": []}
        return EXIT_NOT_CERTIFIED, "no_admissible_index", result
    try:
        cert = find_lambda(
            problem, chosen, cfg.options["lambda_max"], cfg.options["target_margin"], dump_path
        )
    except LambdaMaxExceededError as exc:
        result = {
            "axis": chosen.axis,
            "sign_case": chosen.sign_case,
            "shift": compute_shift(grid, chosen.axis, chosen.sign_case),
            "lambda_max": cfg.options["lambda_max"],
            "best_lambda": exc.best_lambda,
            "best_report": asdict(exc.best_report),
        }
        return EXIT_NOT_CERTIFIED, "lambda_max_exceeded", result
    return EXIT_OK, "certified", certificate_dict(cert)


def run_curvature(cfg: RunConfig, dump_path=None):
    if cfg.dim != 2:
        raise ConfigError("curvature comparison is two-dimensional")
    if not cfg.diagonal or len(cfg.entries) != 2:
        raise ConfigError("curvature needs two diagonal coefficient entries")
    (a1, _), (_, a2) = cfg.build_field().entries
    grid = sample(cfg.build_region(), cfg.options["resolution"], cfg.constants)
    rep = classify_sign(a1, a2, grid, cfg.constants, dump_path)
    result = asdict(rep)
    if "mu1" in cfg.constants and "mu2" in cfg.constants:
        window = check_sign_change_window(cfg.constants["mu1"], cfg.constants["mu2"])
        result["parameter_window"] = {**asdict(window), "ok": window.ok}
    return EXIT_OK, rep.classification, result


def run_rays(cfg: RunConfig, dump_path=None):
    options = cfg.options
    outcomes = fan(
        cfg.build_field(), cfg.build_region(), options["center"], options["count"],
        options["horizon"], options["step"], consts=cfg.constants,
        store_paths=dump_path is not None,
    )
    if dump_path is not None:
        paths = [out.path for out in outcomes]
        lengths = [len(path) for path in paths]
        ray = np.repeat(np.arange(len(paths)), lengths)
        t_index = np.arange(ray.size) - np.cumsum([0] + lengths)[ray]
        points = np.vstack(paths + [np.empty((0, cfg.dim))])  # empty fan: no rows
        header = ["ray", "t_index"] + [f"x{k}" for k in range(1, cfg.dim + 1)]
        write_csv(dump_path, header, [ray, t_index, points])
    return EXIT_OK, "traced", ray_summary_dict(outcomes)


_COMMANDS = {  # subcommand -> (help, runner of a RunConfig)
    "verify": ("certify a given weight", run_verify),
    "construct": ("build and certify an exponential weight", run_construct),
    "curvature": ("classify the curvature sign", run_curvature),
    "rays": ("trace a bicharacteristic fan", run_rays),
    "examples": ("run bundled reference problems", None),
}


def run_example(name: str, overrides):
    command, expect, description = EXAMPLES[name]
    cfg = RunConfig.from_text(config_text(name), overrides)
    # "construct+rays" runs both on one config; the first gives the verdict
    runs = {part: _COMMANDS[part][1](cfg) for part in command.split("+")}
    _, verdict, result = next(iter(runs.values()))
    if len(runs) > 1:
        result = {part: run[2] for part, run in runs.items()}
    return {
        "description": description,
        "command": command,
        "config": cfg.echo(),
        "expect": expect,
        "verdict": verdict,
        "matched": verdict == expect,
        "result": result,
    }


def run_examples(name: str, overrides):
    names = list(EXAMPLES) if name == "all" else [name]
    results = {n: run_example(n, overrides) for n in names}
    all_matched = all(r["matched"] for r in results.values())
    verdict = "all_matched" if all_matched else "mismatch"
    code = EXIT_OK if all_matched else EXIT_NOT_CERTIFIED
    return code, verdict, {"examples": results}


# ---------------------------------------------------------------------------
# entry point


def _print_human(report: dict, stream):
    import json

    verdict = report.get("verdict")
    print(f"wavecert {report['command']}: {verdict}", file=stream)
    result = report.get("result", {})
    if isinstance(result, dict):
        for key in ("margin", "grad_min", "alpha_min", "lambda", "shift", "axis",
                    "sign_case", "classification", "k_min", "k_max", "escaped",
                    "trapped_until_horizon"):
            value = result.get(key)
            if value is not None and not isinstance(value, (dict, list)):
                if isinstance(value, float):  # spelled as in the report
                    value = json.dumps(value)
                print(f"  {key}: {value}", file=stream)
        refined = result.get("refinement")  # construct's re-check on the refined grid
        if refined is not None:
            print(f"  refinement: {refined['verdict']} at {refined['resolution']}", file=stream)
        if "examples" in result:
            for name, entry in result["examples"].items():
                status = "ok" if entry["matched"] else "MISMATCH"
                print(
                    f"  {name}: expected {entry['expect']}, got {entry['verdict']} [{status}]",
                    file=stream,
                )
    print(f"  duration_seconds: {report['duration_seconds']:.3f}", file=stream)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are :class:`ConfigError` (exit 3)
    instead of argparse's exit 2, which this tool reserves for honest
    negatives."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@cache  # parsing keeps no state in the parser, so a process builds it once
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavecert",
        description="grid certification and construction of wave-equation multiplier weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "examples":
            p.add_argument("name", choices=[*EXAMPLES, "all"], metavar="name",
                           help="example name or 'all'")
        else:
            p.add_argument("--config", required=True, help="path to a run configuration")
            p.add_argument("--dump-grid", help="write per-point CSV here")
        p.add_argument("--json", help="write the machine report here")
        for key, spec in _KEYS["options"].items():
            if command in spec.commands:
                p.add_argument("--" + key.replace("_", "-"), help=spec.help)
    return parser


def _attach_values(argv):
    """Each ``--flag -value`` as ``--flag=-value``: argparse reads a value such
    as ``-0.5,0`` or ``-1e-3`` as a flag of its own.  Every long flag of this
    tool but ``--help`` takes a value."""
    out = []
    for arg in argv:
        value = arg.startswith("-") and not arg.startswith("--")
        if value and out and re.fullmatch(r"--[a-z-]+", out[-1]) and out[-1] != "--help":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        overrides = {key: getattr(args, key, None) for key in _KEYS["options"]}
        if args.command == "examples":
            code, verdict, result = run_examples(args.name, overrides)
            echo = {"examples": sorted(result["examples"])}
        else:
            try:
                with open(args.config, "r", encoding="utf-8-sig") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from None
            cfg = RunConfig.from_text(text, overrides)
            code, verdict, result = _COMMANDS[args.command][1](cfg, dump_path=args.dump_grid)
            if args.dump_grid is not None and verdict in _NO_DUMP_VERDICTS:
                print(f"no grid dump written: {verdict}", file=sys.stderr)
            echo = cfg.echo()
    except (ConfigError, RegionError, OSError, UnboundConstantError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, WeightOverflowError, StepCollapseError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    report = {
        "command": args.command,
        "config": echo,
        "result": result,
        "verdict": verdict,
        "tool": {"name": "wavecert", "version": __version__},
        "duration_seconds": time.perf_counter() - started,
    }
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(dumps_stable(report))
        except OSError as exc:
            print(f"config error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        _print_human(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
