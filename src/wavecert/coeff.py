"""Coefficient matrices: symmetric fields of expressions, their symbolic
first derivatives, and the uniform positive-definiteness certificate that
gates everything downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import SampleGrid
from .expr import Expression, Num, differentiate, evaluate, parse
from .linalg import min_eigenvalue

_ZERO = Num(0.0)


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric matrix of expressions with precomputed first derivatives.

    Off-diagonal entries are stored once and shared between the (i, j) and
    (j, i) slots, so symmetry is structural.  ``partials[i][j][k]`` is the
    symbolic derivative of entry (i, j) along axis k+1.
    """

    dim: int
    diagonal: bool
    entries: tuple  # entries[i][j], 0-based, symmetric sharing
    partials: tuple  # partials[i][j][k]

    def entry(self, i: int, j: int) -> Expression:
        """Entry a^{ij} with 1-based indices."""
        return self.entries[i - 1][j - 1]

    def partial(self, i: int, j: int, k: int) -> Expression:
        """Symbolic derivative of a^{ij} along x_k, 1-based indices."""
        return self.partials[i - 1][j - 1][k - 1]

    def values(self, points, consts=None) -> np.ndarray:
        """Evaluate the full matrix: (n, n) at one point, (m, n, n) batched."""
        return _eval_matrix(self.entries, self.dim, points, consts)

    def partial_values(self, points, consts=None) -> np.ndarray:
        """Evaluate all first derivatives: (..., n, n, n), last axis is k."""
        points = np.asarray(points, dtype=float)
        batched = points.ndim == 2
        m = points.shape[0] if batched else 1
        n = self.dim
        out = np.empty((m, n, n, n))
        pts = points if batched else points[None, :]
        cache = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    e = self.partials[i][j][k]
                    key = id(e)
                    if key not in cache:
                        cache[key] = _broadcast(evaluate(e, pts, consts), m)
                    out[:, i, j, k] = cache[key]
        return out if batched else out[0]

    def diag_values(self, points, consts=None) -> np.ndarray:
        """Diagonal entries only: (..., n).  Requires a diagonal field."""
        _require_diagonal(self)
        points = np.asarray(points, dtype=float)
        batched = points.ndim == 2
        pts = points if batched else points[None, :]
        m = pts.shape[0]
        out = np.empty((m, self.dim))
        for i in range(self.dim):
            out[:, i] = _broadcast(evaluate(self.entries[i][i], pts, consts), m)
        return out if batched else out[0]

    def diag_partial_values(self, points, consts=None) -> np.ndarray:
        """Derivatives of the diagonal entries: (..., n, n), last axis is k."""
        _require_diagonal(self)
        points = np.asarray(points, dtype=float)
        batched = points.ndim == 2
        pts = points if batched else points[None, :]
        m = pts.shape[0]
        n = self.dim
        out = np.empty((m, n, n))
        for i in range(n):
            for k in range(n):
                out[:, i, k] = _broadcast(
                    evaluate(self.partials[i][i][k], pts, consts), m
                )
        return out if batched else out[0]


def _require_diagonal(field: CoefficientField):
    if not field.diagonal:
        raise ValueError("operation requires a diagonal coefficient field")


def _broadcast(values, m):
    if np.isscalar(values) or getattr(values, "ndim", 0) == 0:
        return np.full(m, float(values))
    return values


def _eval_matrix(entries, n, points, consts):
    points = np.asarray(points, dtype=float)
    batched = points.ndim == 2
    pts = points if batched else points[None, :]
    m = pts.shape[0]
    out = np.empty((m, n, n))
    cache = {}
    for i in range(n):
        for j in range(n):
            e = entries[i][j]
            key = id(e)
            if key not in cache:
                cache[key] = _broadcast(evaluate(e, pts, consts), m)
            out[:, i, j] = cache[key]
    return out if batched else out[0]


def build(entries, diagonal: bool, dim=None) -> CoefficientField:
    """Assemble a coefficient field from expressions or expression text.

    ``entries`` holds the n diagonal entries for a diagonal field, otherwise
    the n(n+1)/2 upper-triangle entries in row-major order
    (a11, a12, ..., a1n, a22, ...).  All first derivatives are precomputed
    symbolically.
    """
    entries = list(entries)
    if diagonal:
        n = len(entries)
        if n < 1:
            raise ValueError("a diagonal field needs at least one entry")
    else:
        n = int(round((math.sqrt(8 * len(entries) + 1) - 1) / 2))
        if n * (n + 1) // 2 != len(entries) or n < 1:
            raise ValueError(
                f"{len(entries)} entries do not form an upper triangle of any size"
            )
    if dim is not None and dim != n:
        raise ValueError(f"entry count implies dimension {n}, got dim={dim}")
    parsed = [parse(e, n) if isinstance(e, str) else e for e in entries]
    for e in parsed:
        if not isinstance(e, Expression):
            raise TypeError(f"entry {e!r} is not an expression")

    grid_entries = [[_ZERO] * n for _ in range(n)]
    if diagonal:
        for i in range(n):
            grid_entries[i][i] = parsed[i]
    else:
        it = iter(parsed)
        for i in range(n):
            for j in range(i, n):
                e = next(it)
                grid_entries[i][j] = e
                grid_entries[j][i] = e

    zero_partials = tuple(Num(0.0) for _ in range(n))
    partials = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = grid_entries[i][j]
            if e is _ZERO:
                ps = zero_partials
            else:
                ps = tuple(differentiate(e, k) for k in range(1, n + 1))
            partials[i][j] = ps
            partials[j][i] = ps

    return CoefficientField(
        dim=n,
        diagonal=diagonal,
        entries=tuple(tuple(row) for row in grid_entries),
        partials=tuple(tuple(row) for row in partials),
    )


def certify_positivity(field: CoefficientField, grid: SampleGrid, consts=None):
    """Smallest eigenvalue of the coefficient matrix over the grid.

    Returns ``(alpha_min, worst_point)``; a nonpositive ``alpha_min`` rejects
    the field for every downstream certification.  The worst point is the
    first grid point (lexicographic order) attaining the minimum.
    """
    pts = grid.points
    if pts.shape[0] == 0:
        raise ValueError("empty grid")
    lams = min_eigenvalue(field.values(pts, consts))
    idx = int(np.argmin(lams))
    return float(lams[idx]), tuple(pts[idx])


@dataclass(frozen=True)
class SignReport:
    """Grid range of one diagonal-entry partial and its uniform-sign verdict."""

    minimum: float
    maximum: float

    @property
    def uniform_positive(self) -> bool:
        return self.minimum > 0.0

    @property
    def uniform_negative(self) -> bool:
        return self.maximum < 0.0


def partial_sign(field: CoefficientField, i: int, k: int, grid: SampleGrid, consts=None) -> SignReport:
    """Grid min and max of the derivative of entry (i, i) along axis k."""
    _require_diagonal(field)
    values = evaluate(field.partial(i, i, k), grid.points, consts)
    values = _broadcast(values, grid.points.shape[0])
    return SignReport(minimum=float(np.min(values)), maximum=float(np.max(values)))
