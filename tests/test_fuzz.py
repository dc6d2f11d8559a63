"""The exit-code contract under seeded random configs, and the rate
search's lattice phase under seeded searchable ones.

Every run of ``verify``, ``construct``, ``curvature`` or ``rays`` must exit
0, 2, 3 or 4, whatever its config: no traceback, no exit 1.  No
RuntimeWarning may escape, and a report of a run that exits 0 or 2 holds no
NaN.  The configs have random expression trees over ``exp log sin cos
sqrt + - * / ^`` with extreme literals, diagonal and full fields, thin and
zero-width boxes, random constraints and small grids.  Such a search rarely
doubles past rate 2, so :func:`lattice_config` draws fields that do.
"""

import contextlib
import io
import json
import math
import random
import warnings

import pytest

from wavecert.cli import RunConfig, main
from wavecert.condition import VERDICT_CERTIFIED, GridProblem
from wavecert.domain import sample
from wavecert.expr import FUNCTIONS
from wavecert.weight import construct_weight

from test_weight import search

OPERATORS = ("+", "-", "*", "/", "^")
LITERALS = ("0", "1", "2", "0.5", "3", "1e-8", "1e8", "1e308", "1e-308", "1e-300", "1e300")
COMMANDS = ("verify", "construct", "curvature", "rays")
CONFIGS_PER_SEED = 60  # 5 seeds of 60 take about 1.5 s on a 2-core machine


def expression(rng, dim, depth):
    """A random expression in ``x1 .. x<dim>`` and the constant ``c``."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return f"x{rng.randint(1, dim)}"
        if roll < 0.55:
            return "c"
        if roll < 0.8:
            return rng.choice(LITERALS)
        return repr(round(rng.uniform(-3.0, 3.0), 3))
    roll = rng.random()
    if roll < 0.3:
        return f"{rng.choice(FUNCTIONS)}({expression(rng, dim, depth - 1)})"
    if roll < 0.4:
        return f"-{expression(rng, dim, depth - 1)}"
    op = rng.choice(OPERATORS)
    right = str(rng.randint(-3, 4)) if op == "^" and rng.random() < 0.6 else None
    right = right or expression(rng, dim, depth - 1)
    return f"({expression(rng, dim, depth - 1)} {op} {right})"


def coefficient(rng, dim):
    """Mostly a positive base plus a small random part, so many fields are
    definite and the runs reach the assembly and the spectra."""
    if rng.random() < 0.25:
        return expression(rng, dim, 3)
    base = rng.choice(("1", "2", "5", "exp(x1)", "1 + x1^2"))
    return f"{base} + {rng.choice(('0.1', '1e-3', '1e-12', '1e200'))}*{expression(rng, dim, 2)}"


def random_config(rng):
    command = rng.choice(COMMANDS)
    dim = 2 if command == "curvature" or rng.random() < 0.6 else rng.choice((1, 3))
    diagonal = command in ("construct", "curvature") or rng.random() < 0.5
    if diagonal:
        entries = [coefficient(rng, dim) for _ in range(dim)]
    else:  # upper triangle, small off-diagonal parts
        entries = [
            coefficient(rng, dim) if i == j else f"0.1*{expression(rng, dim, 2)}"
            for i in range(dim)
            for j in range(i, dim)
        ]
    problem = {"A.diagonal": diagonal, "A.entries": entries}
    problem["constants"] = {"c": rng.choice((0.0, 0.5, -2.0, 1e300, 1e-300))}
    if command == "verify":
        problem["weight"] = rng.choice(
            (expression(rng, dim, 3), " + ".join(f"x{k}^2" for k in range(1, dim + 1)))
        )
    box = []
    for _ in range(dim):  # mostly sound axes, so most configs get past the region
        lo = rng.choices((round(rng.uniform(-3.0, 3.0), 2), 0.0, 1e-300, -1e300), (12, 4, 1, 1))[0]
        width = rng.choices((0.5, 2.0, 1e-6, 1e-12, 0.0, 1e-300, 1e300), (8, 8, 2, 2, 1, 1, 1))[0]
        box.append([lo, lo + width])
    constraints = [expression(rng, dim, 2) for _ in range(rng.choice((0, 0, 1, 2)))]
    options = {"resolution": rng.randint(2, 9)}
    if command == "construct":
        options["lambda_max"] = rng.choice((1, 8, 2**20))
    if command == "rays":
        options.update(count=rng.randint(0, 4), horizon=rng.choice((0.5, 2.0)), step=0.1)
    lines = []
    for section, values in (
        ("problem", problem),
        ("region", {"dim": dim, "box": box, "constraints": constraints}),
        ("options", options),
    ):
        lines.append(f"[{section}]")
        lines += [f"{key} = {json.dumps(value)}" for key, value in values.items()]
    return command, "\n".join(lines) + "\n"


# configs the generator found breaking the contract, as found
FINDINGS = {
    # a constraint gradient whose squared norm overflows warned in the ray
    # fan's boundary distance
    "ray-boundary-gradient-overflow": (
        "rays",
        """[problem]
A.diagonal = true
A.entries = ["1 + 1e-3*sqrt((2 * 2.807))", "-sin(sqrt(c))"]
constants = {"c": 1e+300}
[region]
dim = 2
box = [[1e-300, 0.5], [0.0, 0.5]]
constraints = ["(log(x1) * (0.253 / 1e-308))", "((1.36 * x1) + (-2.866 + x2))"]
[options]
resolution = 4
count = 1
horizon = 0.5
step = 0.1
""",
    ),
    # a crossing ~6.7e7 into a step, where doubles are coarser than the
    # bisection's 1e-9: the midpoint stopped moving and the fan never ended
    "ray-crossing-below-double-spacing": (
        "rays",
        """[problem]
A.diagonal = true
A.entries = ["1", "1"]
[region]
dim = 2
box = [[-1e9, 1e9], [-1e9, 1e9]]
[options]
count = 4
horizon = 1e10
step = 1e8
center = [33000000.5, 0]
""",
    ),
    # a step whose own arithmetic overflows warned when it was replayed
    # through the interpreted tape
    "ray-step-replay-overflow": (
        "rays",
        """[problem]
A.diagonal = true
A.entries = ["1e290", "1e290"]
[region]
dim = 2
box = [[-1e300, 1e300], [-1e300, 1e300]]
[options]
horizon = 1e171
step = 1e170
""",
    ),
}


def has_nan(obj):
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, dict):
        return any(has_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(has_nan(v) for v in obj)
    return False


def run_config(tmp_path, command, text):
    """Exit code, RuntimeWarnings and report of one run, with a grid dump."""
    cfg, out = tmp_path / "fuzz.cfg", tmp_path / "fuzz.json"
    cfg.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(cfg), "--json", str(out)]
    argv += ["--dump-grid", str(tmp_path / "fuzz.csv")]
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, runtime, report


def assert_contract(tmp_path, command, text):
    code, runtime, report = run_config(tmp_path, command, text)
    where = f"wavecert {command} on\n{text}"
    assert code in (0, 2, 3, 4), where
    assert not runtime, f"{runtime} escaped: {where}"
    if code in (0, 2):
        assert report is not None and not has_nan(report), where


@pytest.mark.parametrize("seed", range(5))
def test_random_configs_keep_the_exit_code_contract(tmp_path, seed):
    rng = random.Random(seed)
    for _ in range(CONFIGS_PER_SEED):
        assert_contract(tmp_path, *random_config(rng))


@pytest.mark.parametrize("name", FINDINGS)
def test_finding_keeps_the_exit_code_contract(tmp_path, name):
    assert_contract(tmp_path, *FINDINGS[name])


def lattice_config(rng, dim):
    """A diagonal ``construct`` config of the ``cubic-exp`` kind in ``dim``
    dimensions: every entry ``exp(+-c * sum_k x_k^3)``, on a ball off the
    coordinate axes, so every off-index partial keeps one sign, and the rate
    search doubles past 2 into its lattice phase."""
    radius = round(rng.uniform(0.3, 0.8), 2)
    center = [round(rng.uniform(radius + 0.5, 1.6), 2) for _ in range(dim)]
    cubes = " + ".join(f"x{k}^3" for k in range(1, dim + 1))
    exponent = f"{rng.choice(('', '-'))}{round(rng.uniform(0.5, 1.0), 2)!r}*({cubes})"
    entries = [f"exp({exponent})"] * dim
    ball = " + ".join(f"(x{k} - {c!r})^2" for k, c in enumerate(center, start=1))
    region = {
        "dim": dim,
        "box": [[c - radius, c + radius] for c in center],
        "constraints": [f"{ball} - {radius * radius!r}"],
    }
    options = {"resolution": rng.choice((9, 13, 17) if dim == 2 else (7, 9))}
    lines = []
    for section, values in (
        ("problem", {"A.diagonal": True, "A.entries": entries}),
        ("region", region),
        ("options", options),
    ):
        lines.append(f"[{section}]")
        lines += [f"{key} = {json.dumps(value)}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def outcome(found):
    """What of one attempt decides a search and the report it returns."""
    return found.verdict, found.margin, found.margin_idx, found.grad_idx, found.steer


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("dim", [2, 3])
def test_lattice_phase_ends_on_ten_round_bisection(monkeypatch, dim, seed):
    # the steered search and ten bisection rounds over the same attempts end
    # on one rate and one passing attempt, the steered one in at most 30
    # attempts after doubling; in 3-D it steers on the 3x3 closed form
    cfg = RunConfig.from_text(lattice_config(random.Random(f"{seed}/{dim}"), dim))
    field, reg = cfg.build_field(), cfg.build_region()
    problem = GridProblem(field, sample(reg, cfg.options["resolution"]))
    rates, found_at, margins = [], {}, GridProblem._margins

    def recorded(self, weight, consts, **screen):
        found = margins(self, weight, consts, **screen)
        if self is problem:  # not the refinement's re-check
            rates.append(consts["lambda"])
            found_at[consts["lambda"]] = found
        return found

    monkeypatch.setattr(GridProblem, "_margins", recorded)
    cert = search(problem)
    monkeypatch.undo()

    def attempt(lam):  # a literal rate gives the search's values bit for bit
        weight = construct_weight(cert.axis, cert.sign_case, cert.shift, lam, dim)
        found = problem._margins(weight, None)
        return found, found.verdict == VERDICT_CERTIFIED

    fail, lam = None, 1.0
    passing, passed = attempt(lam)
    while not passed:
        fail, lam = lam, 2.0 * lam
        passing, passed = attempt(lam)
    assert fail is not None and fail >= 2.0
    doubling = int(math.log2(lam)) + 1  # the rates 1, 2, ..., lam
    for _ in range(10):
        mid = 0.5 * (fail + lam)
        found, passed = attempt(mid)
        if passed:
            lam, passing = mid, found
        else:
            fail = mid
    assert cert.lam == lam
    assert outcome(found_at[lam]) == outcome(passing)
    assert cert.report == problem._report(passing)
    assert rates[:doubling] == [2.0**k for k in range(doubling)]
    assert len(rates) - doubling <= 30
