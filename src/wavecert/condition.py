"""Assembly and grid certification of the uniform positivity condition.

Two inequalities are certified for a coefficient field A and a scalar weight:

* the quadratic-form inequality, checked through the symmetric multiplier
  matrix built from A, its first derivatives, and the weight's gradient and
  Hessian (``multiplier_matrix``); its margin is the smallest generalized
  eigenvalue of the pencil (2 * matrix, A) over the grid;
* the no-critical-point inequality ``|grad d| > 0``.

``check_condition`` assembles the matrices of all grid points as one
``(m, n, n)`` stack and hands it to :mod:`wavecert.linalg`, whose routines
return one pencil margin, smallest eigenvalue and row of leading minors per
point; worst points are the first minimizers in grid order.

``quadratic_form_matrix`` assembles the (unsymmetrized) coefficient matrix of
the quadratic form itself; its symmetric part equals twice the multiplier
matrix, which the tests exercise as an algebraic cross-check.  For diagonal
fields ``multiplier_matrix_diagonal`` assembles the specialized form used by
the constructive proof machinery; it matches the general path whenever the
weight has no mixed second derivatives, which covers every weight family this
toolkit constructs.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField, certify_positivity
from .domain import Region, sample
from .errors import EvaluationError
from .expr import Expression, compile, differentiate, evaluate, parse
from .linalg import (
    leading_principal_minors,
    min_eigenvalue,
    pencil_min_eigenvalue,
    row_norms,
)


@dataclass(frozen=True)
class WeightFunction:
    """A scalar weight with its exact symbolic gradient and Hessian."""

    expression: Expression
    grad: tuple  # n expressions
    hess: tuple  # hess[i][j], 0-based, symmetric sharing

    @property
    def dim(self) -> int:
        return len(self.grad)

    def value(self, points, consts=None):
        return evaluate(self.expression, points, consts)

    def grad_values(self, points, consts=None) -> np.ndarray:
        return compile(self.grad)(points, consts)

    def hess_values(self, points, consts=None) -> np.ndarray:
        return compile(self.hess)(points, consts)


def weight_function(expression, dim: int) -> WeightFunction:
    """Differentiate a weight expression (or text) into a WeightFunction."""
    if isinstance(expression, str):
        expression = parse(expression, dim)
    grad = tuple(differentiate(expression, k) for k in range(1, dim + 1))
    hess = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            h = differentiate(grad[i], j + 1)
            hess[i][j] = h
            hess[j][i] = h
    return WeightFunction(
        expression=expression, grad=grad, hess=tuple(tuple(row) for row in hess)
    )


# ---------------------------------------------------------------------------
# matrix assembly


def _batched(points):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        return points[None, :], False
    return points, True


def multiplier_matrix(
    field: CoefficientField, weight: WeightFunction, point, consts=None, symmetrize=True
) -> np.ndarray:
    """Symmetric matrix whose uniform positivity is the certified condition.

    Entry (i, j) sums, over (p, q), the coefficient-weighted Hessian term
    ``a^{iq} a^{pj} d_{x_p x_q}`` plus half of
    ``(a^{iq} da^{pj}/dx_q + a^{jq} da^{pi}/dx_q - da^{ij}/dx_q a^{pq}) d_{x_p}``.
    Accepts a single point (n,) or a batch (m, n).  The raw assembly is
    symmetric up to rounding; ``symmetrize=False`` skips the final exact
    averaging with the transpose.
    """
    pts, batched = _batched(point)
    a = field.values(pts, consts)
    da = field.partial_values(pts, consts)
    grad = weight.grad_values(pts, consts)
    hess = weight.hess_values(pts, consts)

    term_h = np.einsum("miq,mpj,mpq->mij", a, a, hess)
    t_a = np.einsum("miq,mpjq,mp->mij", a, da, grad)
    t_b = np.einsum("mjq,mpiq,mp->mij", a, da, grad)
    t_c = np.einsum("mijq,mpq,mp->mij", da, a, grad)
    out = term_h + 0.5 * (t_a + t_b - t_c)
    if symmetrize:
        out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return out if batched else out[0]


def quadratic_form_matrix(
    field: CoefficientField, weight: WeightFunction, point, consts=None
) -> np.ndarray:
    """Unsymmetrized coefficient matrix of the certified quadratic form.

    Entry (i, j) is ``sum_{p,q} [2 a^{iq} (a^{pj} d_{x_p})_{x_q}
    - da^{ij}/dx_q a^{pq} d_{x_p}]`` with the product rule expanded through
    the symbolic derivatives.  Its symmetric part equals twice
    :func:`multiplier_matrix`.
    """
    pts, batched = _batched(point)
    a = field.values(pts, consts)
    da = field.partial_values(pts, consts)
    grad = weight.grad_values(pts, consts)
    hess = weight.hess_values(pts, consts)

    term_h = np.einsum("miq,mpj,mpq->mij", a, a, hess)
    t_a = np.einsum("miq,mpjq,mp->mij", a, da, grad)
    t_c = np.einsum("mijq,mpq,mp->mij", da, a, grad)
    out = 2.0 * (term_h + t_a) - t_c
    return out if batched else out[0]


def multiplier_matrix_diagonal(
    field: CoefficientField, weight: WeightFunction, point, consts=None
) -> np.ndarray:
    """Diagonal-field multiplier matrix in its specialized form.

    ``0.5 * (a^i da^j/dx_i d_{x_j} + a^j da^i/dx_j d_{x_i})`` plus the
    diagonal ``(a^i)^2 d_{x_i x_i} - 0.5 * sum_k a^k da^i/dx_k d_{x_k}``.
    Agrees with :func:`multiplier_matrix` whenever the weight has no mixed
    second derivatives.
    """
    pts, batched = _batched(point)
    a = field.diag_values(pts, consts)
    da = field.diag_partial_values(pts, consts)
    grad = weight.grad_values(pts, consts)
    hess = weight.hess_values(pts, consts)

    cross = np.einsum("mi,mji,mj->mij", a, da, grad)
    sym = 0.5 * (cross + np.swapaxes(cross, -1, -2))
    hd = np.einsum("mii->mi", hess)
    diag = a * a * hd - 0.5 * np.einsum("mk,mik,mk->mi", a, da, grad)
    m, n = a.shape
    out = sym.copy()
    idx = np.arange(n)
    out[:, idx, idx] += diag
    return out if batched else out[0]


# ---------------------------------------------------------------------------
# grid certification


VERDICT_CERTIFIED = "certified"
VERDICT_FAILED_POSITIVITY = "failed_positivity"
VERDICT_FAILED_GRADIENT = "failed_gradient"
VERDICT_FAILED_COEFFICIENT = "failed_coefficient"


@dataclass(frozen=True)
class ConditionReport:
    """Grid-certification outcome for one field/weight/region triple.

    ``margin`` is the minimum over the grid of the smallest generalized
    eigenvalue of the pencil (2 * multiplier matrix, A); ``matrix_min_eig``
    is the raw minimum eigenvalue of the multiplier matrix itself, reported
    alongside because both margins are cheap and answer slightly different
    questions.  Worst points are the first grid points (lexicographic order)
    attaining each minimum.
    """

    verdict: str
    alpha_min: float
    worst_point_alpha: tuple
    margin: float | None = None
    matrix_min_eig: float | None = None
    grad_min: float | None = None
    worst_point_margin: tuple | None = None
    worst_point_grad: tuple | None = None
    minors_min: tuple | None = None
    resolution: int = 0
    point_count: int = 0
    dump_path: str | None = None  # per-point CSV handle when one was written

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def check_condition(
    field: CoefficientField,
    weight: WeightFunction,
    region: Region,
    resolution: int,
    consts=None,
    dump_path=None,
) -> ConditionReport:
    """Certify both inequalities over the region's sample grid.

    The verdict is ``certified`` iff the coefficient matrix is positive
    definite on the grid, the pencil margin is strictly positive, and the
    weight gradient never vanishes.  The spectral tests run once on the
    grid's whole stack of matrices.  Raises :class:`EvaluationError` when A,
    though positive on the grid, is too close to singular for the pencil's
    Cholesky factorization.
    """
    grid = sample(region, resolution, consts)
    pts = grid.points
    m = pts.shape[0]

    alpha_min, worst_alpha = certify_positivity(field, grid, consts)
    if alpha_min <= 0.0:
        return ConditionReport(
            verdict=VERDICT_FAILED_COEFFICIENT,
            alpha_min=alpha_min,
            worst_point_alpha=worst_alpha,
            resolution=resolution,
            point_count=m,
        )

    mats_a = field.values(pts, consts)
    mats_b = multiplier_matrix(field, weight, pts, consts)
    grads = weight.grad_values(pts, consts)
    grad_norms = row_norms(grads)

    try:
        pencil = pencil_min_eigenvalue(2.0 * mats_b, mats_a)
    except np.linalg.LinAlgError:
        raise EvaluationError(
            "coefficient matrix A is not numerically positive definite", worst_alpha
        ) from None
    mineig = min_eigenvalue(mats_b)
    minors = leading_principal_minors(mats_b)

    margin_idx = int(np.argmin(pencil))
    grad_idx = int(np.argmin(grad_norms))
    margin = float(pencil[margin_idx])
    grad_min = float(grad_norms[grad_idx])

    if margin > 0.0 and grad_min > 0.0:
        verdict = VERDICT_CERTIFIED
    elif margin <= 0.0:
        verdict = VERDICT_FAILED_POSITIVITY
    else:
        verdict = VERDICT_FAILED_GRADIENT

    if dump_path is not None:
        _dump_grid(dump_path, pts, pencil, mineig, grad_norms, minors)

    return ConditionReport(
        verdict=verdict,
        alpha_min=alpha_min,
        worst_point_alpha=worst_alpha,
        margin=margin,
        matrix_min_eig=float(np.min(mineig)),
        grad_min=grad_min,
        worst_point_margin=tuple(pts[margin_idx]),
        worst_point_grad=tuple(pts[grad_idx]),
        minors_min=tuple(float(v) for v in np.min(minors, axis=0)),
        resolution=resolution,
        point_count=m,
        dump_path=None if dump_path is None else str(dump_path),
    )


def _dump_grid(path, pts, pencil, mineig, grad_norms, minors):
    n = pts.shape[1]
    header = (
        [f"x{k}" for k in range(1, n + 1)]
        + ["eig_min_pencil", "eig_min_matrix", "grad_norm"]
        + [f"minor{k}" for k in range(1, n + 1)]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for idx in range(pts.shape[0]):
            row = (
                [format(v, ".17g") for v in pts[idx]]
                + [
                    format(pencil[idx], ".17g"),
                    format(mineig[idx], ".17g"),
                    format(grad_norms[idx], ".17g"),
                ]
                + [format(v, ".17g") for v in minors[idx]]
            )
            writer.writerow(row)
