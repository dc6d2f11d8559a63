"""Assembly and grid certification of the uniform positivity condition.

Two inequalities are certified for a coefficient field A and a scalar weight:

* the quadratic-form inequality, checked through the symmetric multiplier
  matrix built from A, its first derivatives, and the weight's gradient and
  Hessian (``multiplier_matrix``); its margin is the smallest generalized
  eigenvalue of the pencil (2 * matrix, A) over the grid;
* the no-critical-point inequality ``|grad d| > 0``.

A :class:`GridProblem` holds what a check needs that does not depend on the
weight: the sample grid, A and its first derivatives there, the positivity
certificate of A, the assembly's weight-independent factors and the inverse
``L^-1`` of A's Cholesky factors, which whitens the pencil.  Its ``check``
multiplies the factors by the weight's gradient and Hessian into one
``(m, n, n)`` stack for :mod:`wavecert.linalg`, whose routines give one
pencil margin (``min_eigenvalue(2 * mats, W)``), smallest eigenvalue
(``min_eigenvalue(mats)``) and row of leading minors per point;
worst points are the first minimizers in grid order.  They run only where a
minimum can be (+inf elsewhere); a grid dump runs every row, the pencil only
at the rows the check skipped.  A rate search runs only the part that
decides the verdict on each attempt.

A full field is assembled by matrix products summed in index order, a
diagonal one entrywise (:func:`_terms`); :func:`multiplier_matrix` is that
assembly at a point or a batch.  A one-off check is
``GridProblem(field, sample(region, resolution)).check(weight)``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeff import CoefficientField, certify_positivity
from .domain import SampleGrid
from .errors import DomainError, EvaluationError
from .expr import Expression, compile, differentiate, parse
from .linalg import eigen_bounds, leading_principal_minors, min_eigenvalue, minor_bounds
from .linalg import matprod, pencil_margins, row_norms, screened
from .report import write_csv


@dataclass(frozen=True)
class WeightFunction:
    """A scalar weight with its exact symbolic gradient and Hessian.

    The weight is differentiated on first use, and its gradient and Hessian
    are compiled into one tape on first evaluation; all are kept, so a weight
    with a named constant (the rate search's ``lambda``) is evaluated at many
    values of it without being differentiated or compiled again.
    """

    expression: Expression
    dim: int

    @cached_property
    def grad(self) -> tuple:  # n expressions
        return tuple(differentiate(self.expression, k) for k in range(1, self.dim + 1))

    @cached_property
    def hess(self) -> tuple:  # hess[i][j], 0-based, symmetric sharing
        n, grad = self.dim, self.grad
        upper = {(i, j): differentiate(grad[i], j + 1) for i in range(n) for j in range(i, n)}
        return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))

    @cached_property
    def _tape(self):
        return compile([self.grad, *self.hess])

    def derivatives(self, points, consts=None) -> tuple:
        """Gradient ``(..., n)`` and Hessian ``(..., n, n)`` at a point or a
        batch; an error is the first failing entry's, gradient first."""
        out = self._tape(points, consts)
        return out[..., 0, :], out[..., 1:, :]


def weight_function(expression, dim: int) -> WeightFunction:
    """A WeightFunction of a weight expression or its text, taken by :func:`parse`."""
    return WeightFunction(expression=parse(expression, dim), dim=dim)


# ---------------------------------------------------------------------------
# matrix assembly


def _factors(a, da, diagonal):
    """The weight-independent factors of the assembly: A and its partials
    for a full field; ``a_i a_j`` and ``a_i da_j/dx_i`` for a diagonal one,
    the second also ``da_i/dx_q a_q`` at ``[q, i]`` (a product commutes)."""
    if not diagonal:
        return a, da
    ad = np.diagonal(a, axis1=-2, axis2=-1)
    dd = np.diagonal(da, axis1=-3, axis2=-2)  # [q, i]: da_i/dx_q
    return ad[..., :, None] * ad[..., None, :], ad[..., :, None] * dd


def _terms(factors, grad, hess, diagonal):
    """The three sums of the assembly, each ``(..., n, n)``, from the
    :func:`_factors` and the weight's derivatives at a point or a batch.

    ``term_h[i, j] = sum_{p,q} a^{iq} a^{pj} d_{x_p x_q}``, that is A H A;
    ``t_a[i, j] = sum_{p,q} a^{iq} da^{pj}/dx_q d_{x_p}``, that is A M with
    ``M[q, j] = sum_p d_{x_p} da^{pj}/dx_q``; and
    ``t_c[i, j] = sum_q da^{ij}/dx_q (A grad d)_q``.  The fourth sum,
    ``a^{jq} da^{pi}/dx_q d_{x_p}``, is ``t_a`` transposed.

    A full field takes them as matrix products (:func:`matprod`, A H A as
    (A H) A), each entry summed in index order.  A ``diagonal`` field keeps
    only the products that are not exact zeros, with ``a_i = a^{ii}``:
    ``(a_i a_j) d_{x_j x_i}``, ``(a_i da_j/dx_i) d_{x_j}`` and, on the
    diagonal of ``t_c``, ``sum_q (da_i/dx_q a_q) d_{x_q}`` in q order, each
    sum started from zero as the full sums are; that is their values bit for
    bit, signed zeros included.
    """
    if not diagonal:
        a, da = factors
        m_qj = matprod(grad[..., None, None, :], np.moveaxis(da, -1, -3))[..., 0, :]
        ag = matprod(a, grad[..., None])[..., None, :, :]  # (A grad d)_q as (..., 1, n, 1)
        return matprod(matprod(a, hess), a), matprod(a, m_qj), matprod(da, ag)[..., 0]
    aa, ada = factors
    term_h = 0.0 + aa * np.swapaxes(hess, -1, -2)
    t_a = 0.0 + ada * grad[..., None, :]
    t_c = np.zeros_like(term_h)
    t_c[(..., *np.diag_indices(grad.shape[-1]))] = matprod(grad[..., None, :], ada)[..., 0, :]
    return term_h, t_a, t_c


def _multiplier(factors, grad, hess, diagonal):
    """``term_h + (t_a + t_a^T - t_c) / 2`` from :func:`_terms`, symmetrized."""
    term_h, t_a, t_c = _terms(factors, grad, hess, diagonal)
    out = t_a + np.swapaxes(t_a, -1, -2)
    out -= t_c
    out *= 0.5
    out += term_h
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def multiplier_matrix(
    field: CoefficientField, weight: WeightFunction, point, consts=None
) -> np.ndarray:
    """Symmetric matrix whose uniform positivity is the certified condition.

    Entry (i, j) sums, over (p, q), the coefficient-weighted Hessian term
    ``a^{iq} a^{pj} d_{x_p x_q}`` plus half of
    ``(a^{iq} da^{pj}/dx_q + a^{jq} da^{pi}/dx_q - da^{ij}/dx_q a^{pq}) d_{x_p}``,
    assembled as documented at :func:`_terms`.  A single point (n,) gives
    one (n, n) matrix and a batch (m, n) an (m, n, n) stack.  The raw
    assembly is symmetric up to rounding, and a final exact averaging with
    the transpose makes it symmetric.
    """
    a, da = field.values(point, consts), field.partial_values(point, consts)
    grad, hess = weight.derivatives(point, consts)
    return _multiplier(_factors(a, da, field.diagonal), grad, hess, field.diagonal)


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

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


@dataclass(frozen=True)
class _Margins:
    """The part of a grid check that decides its verdict: the assembled
    multiplier matrices, the gradient norm and the pencil margin at every
    point (+inf at the rows :func:`pencil_margins` skipped, until a dump fills
    them in), the first minimizers of both, the verdict, and the grid minimum
    of the normalized pencil margin, which steers a rate search."""

    mats: np.ndarray  # (m, n, n)
    pencil: np.ndarray  # (m,)
    grad_norms: np.ndarray  # (m,)
    margin: float
    margin_idx: int
    grad_idx: int
    verdict: str
    steer: float


class GridProblem:
    """The part of a grid check that does not depend on the weight.

    Built once per (field, grid, consts): it evaluates A at the grid's
    points and certifies its positivity.  The first derivatives
    of A, the assembly :attr:`factors` and the pencil's :attr:`whitening`
    operand are computed on first use and kept, so a rate search pays for
    them once per grid, whatever the number of attempts; a field that fails
    positivity never needs them.

    :meth:`check` is :meth:`_margins` (the weight's gradient and Hessian
    times the factors, the pencil, the gradient norms and the verdict) then
    :meth:`_report` (the matrices' minimum eigenvalue and leading minors,
    the optional dump and the report).  A rate search runs :meth:`_margins`
    per attempt and :meth:`_report` for the attempt whose report it returns.
    """

    def __init__(self, field: CoefficientField, grid: SampleGrid, consts=None):
        self.field = field
        self.grid = grid
        self.consts = consts
        self.a = field.values(grid.points, consts)
        self.alpha_min, self.worst_point_alpha = certify_positivity(field, grid, self.a)

    @cached_property
    def da(self) -> np.ndarray:
        """First derivatives of A at the grid points, ``(m, n, n, n)``."""
        return self.field.partial_values(self.grid.points, self.consts)

    @cached_property
    def factors(self) -> tuple:
        """The weight-independent factors of the assembly (:func:`_factors`);
        for a full field, :attr:`a` and :attr:`da` themselves."""
        return _factors(self.a, self.da, self.field.diagonal)

    @cached_property
    def whitening(self) -> np.ndarray:
        """``W = L^-1`` for the lower Cholesky factors L of A, by which
        :func:`min_eigenvalue` whitens the pencil: for a diagonal field, its
        diagonal ``1 / sqrt(diag(A))``, with no factorization."""
        if self.field.diagonal:
            return 1.0 / np.sqrt(np.diagonal(self.a, axis1=-2, axis2=-1))
        return np.linalg.inv(np.linalg.cholesky(self.a))

    @cached_property
    def coefficient_failure(self) -> ConditionReport | None:
        """The ``failed_coefficient`` report, whatever the weight, when A is
        not positive definite on the grid; None when it is."""
        if self.alpha_min <= 0.0:
            return ConditionReport(
                verdict=VERDICT_FAILED_COEFFICIENT,
                alpha_min=self.alpha_min,
                worst_point_alpha=self.worst_point_alpha,
                resolution=self.grid.resolution,
                point_count=len(self.grid),
            )
        return None

    def check(self, weight: WeightFunction, dump_path=None) -> ConditionReport:
        """Certify both inequalities for ``weight`` on this grid, writing the
        per-point CSV to ``dump_path`` when given.

        The verdict is ``certified`` iff the coefficient matrix is positive
        definite on the grid, the pencil margin is strictly positive, and the
        weight gradient never vanishes.  Raises :class:`EvaluationError` when
        A, though positive on the grid, is too close to singular to whiten the
        pencil, and :class:`DomainError` when some multiplier matrix is not
        finite.
        """
        if self.coefficient_failure is not None:
            return self.coefficient_failure
        return self._report(self._margins(weight, self.consts, dump_path is None), dump_path)

    def _margins(self, weight: WeightFunction, consts, screen=True) -> _Margins:
        """The weight-dependent part of :meth:`check`, with the weight
        evaluated under ``consts``; A must be positive definite on the grid.
        Unless ``screen`` holds, the pencil runs on every row: a dump then fills none.

        Raises :class:`DomainError` at the first grid point whose pencil
        matrix is not finite: the weight's derivatives times A left double
        range there, and no margin can be read from it."""
        pts = self.grid.points
        grads, hess = weight.derivatives(pts, consts)
        with np.errstate(over="ignore", invalid="ignore"):
            mats = _multiplier(self.factors, grads, hess, self.field.diagonal)
            doubled = 2.0 * mats
        if not np.isfinite(doubled).all():
            first = np.argmin(np.isfinite(doubled).all(axis=(-2, -1)))
            raise DomainError("multiplier matrix is not finite", pts[first])
        grad_norms = row_norms(grads)

        try:
            pencil, steer = pencil_margins(doubled, self.whitening, screen)
        except np.linalg.LinAlgError:
            raise EvaluationError(
                "coefficient matrix A is not numerically positive definite",
                self.worst_point_alpha,
            ) from None

        margin_idx = int(np.argmin(pencil))
        grad_idx = int(np.argmin(grad_norms))
        margin = float(pencil[margin_idx])
        if margin > 0.0 and grad_norms[grad_idx] > 0.0:
            verdict = VERDICT_CERTIFIED
        elif margin <= 0.0:
            verdict = VERDICT_FAILED_POSITIVITY
        else:
            verdict = VERDICT_FAILED_GRADIENT
        return _Margins(mats, pencil, grad_norms, margin, margin_idx, grad_idx, verdict, steer)

    def _report(self, margins: _Margins, dump_path=None) -> ConditionReport:
        """The full report of one :meth:`_margins` result, with its grid dump
        written to ``dump_path`` when given: every row's smallest eigenvalue
        and minors, and the pencil filled in at its +inf rows (those the
        screen skipped; a row that ran to +inf gives +inf again)."""
        pts, mats = self.grid.points, margins.mats
        if dump_path is None:
            mineig = screened(min_eigenvalue, eigen_bounds, mats)
            minors = screened(leading_principal_minors, minor_bounds, mats)
        else:
            mineig, minors = min_eigenvalue(mats), leading_principal_minors(mats)
            skipped = margins.pencil == np.inf
            margins.pencil[skipped] = min_eigenvalue(2.0 * mats[skipped], self.whitening[skipped])
            axes = range(1, pts.shape[1] + 1)
            header = [f"x{k}" for k in axes] + ["eig_min_pencil", "eig_min_matrix", "grad_norm"]
            header += [f"minor{k}" for k in axes]
            write_csv(dump_path, header, [pts, margins.pencil, mineig, margins.grad_norms, minors])

        firsts = np.argmin(minors, axis=0)  # each minimum is read at its first minimizer
        return ConditionReport(
            verdict=margins.verdict,
            alpha_min=self.alpha_min,
            worst_point_alpha=self.worst_point_alpha,
            margin=margins.margin,
            matrix_min_eig=float(mineig[np.argmin(mineig)]),
            grad_min=float(margins.grad_norms[margins.grad_idx]),
            worst_point_margin=tuple(pts[margins.margin_idx]),
            worst_point_grad=tuple(pts[margins.grad_idx]),
            minors_min=tuple(float(v) for v in minors[firsts, np.arange(minors.shape[1])]),
            resolution=self.grid.resolution,
            point_count=pts.shape[0],
        )
