"""Coefficient matrices: symmetric fields of expressions, their symbolic
first derivatives, and the uniform positive-definiteness certificate that
gates everything downstream.  Diagonal-only code reads the diagonal of the
full ``values``/``partial_values`` stacks: zero entries add no work there.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import SampleGrid
from .expr import Num, compile, differentiate, parse
from .linalg import eigen_bounds, min_eigenvalue, screened

_ZERO = Num(0.0)


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric matrix of expressions with precomputed first derivatives.

    Off-diagonal entries are stored once and shared between the (i, j) and
    (j, i) slots, so symmetry is structural.  ``partials[i][j][k]`` is the
    symbolic derivative of entry (i, j) along axis k+1.  Both tables are
    compiled once, on first evaluation, and the tapes are kept.
    """

    dim: int
    diagonal: bool
    entries: tuple  # entries[i][j], 0-based, symmetric sharing
    partials: tuple  # partials[i][j][k]

    @cached_property
    def _entries_tape(self):
        return compile(self.entries)

    @cached_property
    def _partials_tape(self):
        return compile(self.partials)

    def values(self, points, consts=None) -> np.ndarray:
        """Evaluate the full matrix: (n, n) at one point, (m, n, n) batched."""
        return self._entries_tape(points, consts)

    def partial_values(self, points, consts=None) -> np.ndarray:
        """Evaluate all first derivatives: (..., n, n, n), last axis is k."""
        return self._partials_tape(points, consts)


def require_diagonal(field: CoefficientField):
    """Raise ValueError unless ``field`` is diagonal."""
    if not field.diagonal:
        raise ValueError("operation requires a diagonal coefficient field")


def build(entries, diagonal: bool) -> CoefficientField:
    """Assemble a coefficient field from expressions or expression text.

    ``entries`` holds the n diagonal entries for a diagonal field, otherwise
    the n(n+1)/2 upper-triangle entries in row-major order
    (a11, a12, ..., a1n, a22, ...), each taken by :func:`parse`.  Once all
    are parsed, each is placed in both symmetric slots and differentiated once
    there, so a shared entry shares its partials; other slots hold zeros.
    """
    entries = list(entries)
    if diagonal:
        n = len(entries)
        if n < 1:
            raise ValueError("a diagonal field needs at least one entry")
    else:
        n = (math.isqrt(8 * len(entries) + 1) - 1) // 2
        if n * (n + 1) // 2 != len(entries) or n < 1:
            raise ValueError(f"{len(entries)} entries do not form an upper triangle of any size")
    parsed = iter([parse(e, n) for e in entries])
    grid_entries = [[_ZERO] * n for _ in range(n)]
    partials = [[(_ZERO,) * n] * n for _ in range(n)]
    for i in range(n):
        for j in [i] if diagonal else range(i, n):
            e = next(parsed)
            grid_entries[i][j] = grid_entries[j][i] = e
            partials[i][j] = partials[j][i] = tuple(differentiate(e, k) for k in range(1, n + 1))
    return CoefficientField(
        dim=n,
        diagonal=diagonal,
        entries=tuple(map(tuple, grid_entries)),
        partials=tuple(map(tuple, partials)),
    )


def certify_positivity(field: CoefficientField, grid: SampleGrid, values):
    """Smallest eigenvalue of the coefficient matrix over the grid, from
    ``values``, ``field.values`` at the grid points.

    Returns ``(alpha_min, worst_point)``; a nonpositive ``alpha_min`` rejects
    the field for every downstream certification.  The worst point is the
    first grid point (lexicographic order) attaining the minimum.  A diagonal
    field's smallest eigenvalue is its smallest diagonal entry, read off
    exactly whatever the entries' range; of tied entries (0.0 and -0.0) the
    first, as the sorted eigenvalues give.
    """
    pts = grid.points
    if pts.shape[0] == 0:
        raise ValueError("empty grid")
    if field.diagonal:
        diag = np.diagonal(values, axis1=-2, axis2=-1)
        lams = diag[np.arange(len(diag)), np.argmin(diag, axis=-1)]
    else:
        lams = screened(min_eigenvalue, eigen_bounds, values)
    idx = int(np.argmin(lams))
    return float(lams[idx]), tuple(pts[idx])

