"""The multiplier matrix against its geometric meaning along rays.

Along a bicharacteristic of ``H = xi^T A xi / 2`` (``dx/dt = A xi``,
``dxi/dt = -dH/dx``) the weight changes at the rate ``g = grad d . A xi``,
and ``dg/dt = xi^T M(x) xi`` with M the multiplier matrix: the Hessian of
the weight in the metric ``A^-1`` along a geodesic (Yao, SIAM J. Control
Optim. 37, 1999).  So a pencil margin bounds the weight's convexity along
every ray.  The rays come from the ray module's flow, built from A and its
partials with no code shared with the assembly, and ``dg/dt`` is
central-differenced along each path.  A ray that stays in the region for a
long time bounds every weight's margin from above.
"""

import random

import numpy as np
import pytest

from wavecert.bundled import EXAMPLES, config_text
from wavecert.cli import RunConfig
from wavecert.coeff import build
from wavecert.condition import GridProblem, multiplier_matrix, weight_function
from wavecert.domain import sample
from wavecert.expr import evaluate
from wavecert.rays import _Flow, fan
from wavecert.weight import (
    SIGN_NEGATIVE,
    SIGN_POSITIVE,
    compute_shift,
    construct_weight,
    find_lambda,
    pick_index,
    sign_ranges,
)

from test_cli import FULL_3D_ENTRIES
from test_fuzz import lattice_config

# each ray moves about this far per step: the time step scales with
# 1/speed, which is about 9e6 at the center of cubic-exp's box, where A's
# logarithm also changes by 24 per unit length
STEP_LENGTH = 1e-4
STEPS = 100
TOLERANCE = 1e-5
COVECTORS_3D = [(1.0, 0.0, 0.0), (0.0, 0.6, -0.8), (0.48, 0.6, 0.64)]


def ray_identity_gaps(field, weight, starts, covectors, consts=None):
    """Relative gaps of ``dg/dt`` to ``xi^T M xi`` and to ``xi^T (2M) xi``
    along the rays from ``starts`` with ``covectors`` (both (m, n)): the
    largest difference over the largest value, over every ray's path."""
    n = field.dim
    flow = _Flow(field, None, consts)  # a step reads no region
    y = np.hstack([np.asarray(starts, dtype=float), np.asarray(covectors, dtype=float)])
    velocity = np.einsum("mij,mj->mi", field.values(y[:, :n], consts), y[:, n:])
    h = STEP_LENGTH / np.linalg.norm(velocity, axis=1)[:, None]
    path = [y]
    for _ in range(STEPS):
        path.append(flow.step(path[-1], h))
    path = np.stack(path, axis=1)  # (m, STEPS + 1, 2n)
    x, xi = path[..., :n].reshape(-1, n), path[..., n:].reshape(-1, n)
    grad, _ = weight.derivatives(x, consts)
    rate = np.einsum("ki,kij,kj->k", grad, field.values(x, consts), xi).reshape(len(y), -1)
    dg = (rate[:, 2:] - rate[:, :-2]) / (2.0 * h)
    form = np.einsum("ki,kij,kj->k", xi, multiplier_matrix(field, weight, x, consts), xi)
    form = form.reshape(len(y), -1)[:, 1:-1]
    return tuple(float(np.max(np.abs(dg - c * form)) / np.max(np.abs(c * form))) for c in (1, 2))


def rays_from(center, count=3):
    """``count`` unit covectors at even angles, all from ``center``."""
    angles = 2.0 * np.pi * (np.arange(count) + 0.25) / count
    return np.tile(center, (count, 1)), np.column_stack([np.cos(angles), np.sin(angles)])


def assert_identity(field, weight, starts, covectors, consts=None):
    gap, doubled = ray_identity_gaps(field, weight, starts, covectors, consts)
    assert gap < TOLERANCE
    assert doubled == pytest.approx(0.5, abs=0.01)  # the factor of M is told apart


def test_diagonal_field_exponential_weight():
    field = build(["1 + x1^2 + x2^2", "2 + x1*x2"], diagonal=True)
    weight = weight_function("exp(2*(x2 + 4)) + exp(2*x1)", 2)
    assert_identity(field, weight, *rays_from((0.3, -0.2)))


def test_full_3d_field_with_a_mixed_second_partial():
    weight = weight_function("(x1^2 + x2^2 + x3^2)/2 + x1*x2/3", 3)
    field = build(FULL_3D_ENTRIES, diagonal=False)  # verify-3d's field
    assert_identity(field, weight, [(2.0, 0.1, -0.2)] * 3, COVECTORS_3D)


@pytest.mark.parametrize("name", EXAMPLES)
def test_bundled_field(name):
    cfg = RunConfig.from_text(config_text(name))
    weight = weight_function("(x1^2 + x2^2)/2 + x1*x2/3", 2)
    center = [(low + high) / 2.0 for low, high in cfg.box]
    assert_identity(cfg.build_field(), weight, *rays_from(center), cfg.constants)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["quadratic", "constructed"])
def test_fuzz_field(kind, dim, seed):
    # the fuzz suite's searchable fields, exp(+-c (x1^3 + ... + xn^3)) on a
    # ball off the axes, with a weight with a mixed second partial or the
    # rate search's exponential weight, its axis and sign case by seed
    cfg = RunConfig.from_text(lattice_config(random.Random(f"{seed}/{dim}"), dim))
    if kind == "quadratic":
        squares = " + ".join(f"x{k}^2" for k in range(1, dim + 1))
        weight = weight_function(f"({squares})/2 + x1*x2/3", dim)
    else:
        axis, case = 1 + seed % dim, (SIGN_NEGATIVE, SIGN_POSITIVE)[seed % 2]
        shift = compute_shift(sample(cfg.build_region(), cfg.options["resolution"]), axis, case)
        weight = construct_weight(axis, case, shift, 2.0, dim)
    center = [(low + high) / 2.0 for low, high in cfg.box]
    if dim == 2:
        assert_identity(cfg.build_field(), weight, *rays_from(center))
    else:
        assert_identity(cfg.build_field(), weight, [center] * 3, COVECTORS_3D)


# the ray-gallery benchmark's seed-0 field: 10 of its 32 rays stay in the
# disk until the horizon
RAY_GALLERY = """
[problem]
A.diagonal = true
A.entries = ["exp(x1^2 + x2^2)", "exp(x1^2 + x2^2)"]
[region]
dim = 2
box = [[-1.4142135623730951, 1.4142135623730951], [-1.4142135623730951, 1.4142135623730951]]
constraints = ["x1^2 + x2^2 - 2"]
[options]
count = 32
center = [1, 0]
horizon = 20
step = 0.01
"""
GALLERY_WEIGHTS = ["(x1^2 + x2^2)/2", "(x1 - 0.3)^2 + 3*x2^2", "x1", "exp(2*x1) + exp(2*x2)"]
H = 0.5  # the energy a fan normalizes each covector to


@pytest.mark.parametrize("name,trapped", [("ray-gallery", 10), ("isotropic-exp", 0)])
def test_a_ray_that_stays_bounds_the_margin(name, trapped):
    # the pencil is (2M, A) and xi^T A xi = 2H, so d'' = xi^T M xi >= mu H
    # along a ray, and a ray in the region for a time T gives
    # osc(d) >= mu H T^2 / 8, that is mu <= 8 osc(d) / (H T^2), osc taken
    # over the ray's path points; on isotropic-exp, whose rays all leave
    # within 0.6, the bound is loose
    cfg = RunConfig.from_text(RAY_GALLERY if name == "ray-gallery" else config_text(name))
    field, reg, opts = cfg.build_field(), cfg.build_region(), cfg.options
    problem = GridProblem(field, sample(reg, opts["resolution"]))
    if name == "ray-gallery":
        weights = [weight_function(text, 2) for text in GALLERY_WEIGHTS]
        margins = [problem.check(weight).margin for weight in weights]
    else:  # the certificate construct finds
        cert = find_lambda(problem, pick_index(sign_ranges(problem.da), 2))
        weights, margins = [cert.weight], [cert.report.margin]
    outcomes = fan(
        field, reg, opts["center"], opts["count"], opts["horizon"], opts["step"], store_paths=True
    )
    assert sum(not out.escaped for out in outcomes) == trapped
    times = [out.escape_time if out.escaped else opts["horizon"] for out in outcomes]
    for weight, margin in zip(weights, margins):
        osc = [np.ptp(evaluate(weight.expression, out.path)) for out in outcomes]
        assert margin <= min(8.0 * d / (H * t * t) for d, t in zip(osc, times))
