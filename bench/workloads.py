"""The benchmark's workloads: problem instances, CLI arguments and checks.

Every op is one ``wavecert`` CLI invocation on a distinct problem instance.
The instance is derived from ``(seed, op index)`` alone, so a run is
reproducible from its seed and no op can reuse another op's result.  Seed 0
starts with the bundled problems themselves (no perturbation).

A workload cycles through its families: ``construct-search`` alternates two
construct problems, the others have one family each.  The runner always runs
whole cycles, so per-op averages do not depend on where a run stopped.
"""

import json
import math
import random
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)

# reference tolerances (see ``compare``)
REL_TOL = 1e-9
ESCAPE_TIME_TOL = 1e-6


@dataclass(frozen=True)
class Family:
    """One problem family: its config builder, command and expected outcome."""

    name: str
    command: str
    config: object  # callable(offsets) -> config text
    axes: int  # number of perturbed coordinates
    spread: float  # largest perturbation per coordinate
    dump_grid: bool  # pass --dump-grid (a per-point CSV)
    expect_exit: int
    expect_verdict: str


def _shifted_square(k, c):
    return f"x{k}^2" if c == 0.0 else f"(x{k} - {c!r})^2"


def _ball(center, radius=1.0):
    box = [[c - radius, c + radius] for c in center]
    terms = " + ".join(_shifted_square(k, c) for k, c in enumerate(center, start=1))
    return box, f"{terms} - {radius * radius!r}"


def _config(problem: dict, region: dict, options: dict) -> str:
    lines = []
    for section, values in (("problem", problem), ("region", region), ("options", options)):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {json.dumps(value)}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _construct_config(entry, center):
    def build(offsets):
        c = [base + d for base, d in zip(center, offsets)]
        box, constraint = _ball(c)
        return _config(
            {"A.diagonal": True, "A.entries": [entry, entry]},
            {"dim": 2, "box": box, "constraints": [constraint]},
            {"resolution": 33},
        )

    return build


_FIELD_3D = [
    "2 + 0.3*sin(x1*x2)",
    "0.1*cos(x2)",
    "0.05*x3",
    "2 + 0.3*exp(-x2^2)",
    "0.1*sin(x1*x3)",
    "1.5 + log(1 + x1^2)/8",
]


def _verify_3d_config(offsets):
    c = [2.0 + offsets[0], offsets[1], offsets[2]]
    box, constraint = _ball(c)
    return _config(
        {
            "A.diagonal": False,
            "A.entries": _FIELD_3D,
            "weight": "(x1^2 + x2^2 + x3^2)/2",
        },
        {"dim": 3, "box": box, "constraints": [constraint]},
        {"resolution": 21},
    )


def _ray_config(offsets):
    return _config(
        {
            "A.diagonal": True,
            "A.entries": ["exp(x1^2 + x2^2)", "exp(x1^2 + x2^2)"],
        },
        {
            "dim": 2,
            "box": [[-SQRT2, SQRT2], [-SQRT2, SQRT2]],
            "constraints": ["x1^2 + x2^2 - 2"],
        },
        {
            "count": 32,
            "horizon": 20.0,
            "step": 0.01,
            "center": [1.0 + offsets[0], offsets[1]],
        },
    )


WORKLOADS = {
    "construct-search": (
        Family(
            "isotropic-exp", "construct",
            _construct_config("exp(x1 + x2)", (2.0, 0.0)),
            2, 0.1, False, 0, "certified",
        ),
        Family(
            "cubic-exp", "construct",
            _construct_config("exp(x1^3 + x2^3)", (2.0, 2.0)),
            2, 0.1, False, 0, "certified",
        ),
    ),
    "verify-3d": (
        Family("full-3d", "verify", _verify_3d_config, 3, 0.1, True, 0, "certified"),
    ),
    "ray-gallery": (
        Family("exp-radial-fan", "rays", _ray_config, 2, 0.05, False, 0, "traced"),
    ),
}


@dataclass(frozen=True)
class Op:
    index: int
    family: Family
    offsets: tuple
    config_text: str

    def argv(self, config_path, json_path, dump_path, threads):
        argv = [self.family.command, "--config", str(config_path), "--threads", str(threads)]
        if self.family.dump_grid:
            argv += ["--dump-grid", str(dump_path)]
        return argv + ["--json", str(json_path)]


def make_op(workload: str, seed: int, index: int) -> Op:
    """The op ``index`` of ``workload`` under ``seed``; pure in its arguments."""
    families = WORKLOADS[workload]
    family = families[index % len(families)]
    if seed == 0 and index < len(families):
        offsets = (0.0,) * family.axes
    else:
        rng = random.Random(f"{workload}/{seed}/{index}")
        offsets = tuple(
            round(rng.uniform(-family.spread, family.spread), 4) for _ in range(family.axes)
        )
    return Op(index, family, offsets, family.config(offsets))


# ---------------------------------------------------------------------------
# outputs and checks


def _condition_fields(rep: dict, prefix: str, exact: dict, rel: dict):
    exact[prefix + "verdict"] = rep["verdict"]
    exact[prefix + "point_count"] = rep["point_count"]
    for key in ("worst_point_alpha", "worst_point_margin", "worst_point_grad"):
        exact[prefix + key] = rep[key]
    for key in ("margin", "alpha_min", "grad_min", "matrix_min_eig"):
        rel[prefix + key] = rep[key]


def extract(command: str, report: dict) -> dict:
    """The reference-checked outputs of one report.

    ``exact`` values must match exactly, ``rel`` values to a relative
    ``REL_TOL``, ``escape`` values (ray escape times) to ``ESCAPE_TIME_TOL``.
    """
    result = report["result"]
    exact, rel, escape = {"verdict": report["verdict"]}, {}, {}
    if command == "construct":
        for key in ("axis", "sign_case", "shift", "lambda"):
            exact[key] = result[key]
        rel["sign_margin"] = result["sign_margin"]
        _condition_fields(result["report"], "", exact, rel)
        _condition_fields(result["refinement"], "refinement.", exact, rel)
    elif command == "verify":
        _condition_fields(result, "", exact, rel)
    elif command == "rays":
        exact["escaped"] = result["escaped"]
        exact["trapped_until_horizon"] = result["trapped_until_horizon"]
        exact["outcomes"] = [ray["outcome"] for ray in result["rays"]]
        escape["escape_times"] = [
            ray["escape_time"] if ray["outcome"] == "escaped" else None
            for ray in result["rays"]
        ]
    return {"exact": exact, "rel": rel, "escape": escape}


def _close(a, b, tol, relative):
    if a is None or b is None:
        return a is b
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y, tol, relative) for x, y in zip(a, b))
    if relative:
        return math.isclose(a, b, rel_tol=tol, abs_tol=0.0)
    return abs(a - b) <= tol


def compare(expected: dict, got: dict) -> list:
    """Names of the reference fields ``got`` does not match."""
    bad = []
    for key, value in expected["exact"].items():
        if got["exact"].get(key) != value:
            bad.append(key)
    for group, tol, relative in (("rel", REL_TOL, True), ("escape", ESCAPE_TIME_TOL, False)):
        for key, value in expected[group].items():
            if key not in got[group] or not _close(value, got[group][key], tol, relative):
                bad.append(key)
    return bad
