"""Bounded domains and the deterministic sample grids used for every
"uniformly over the closed domain" check.

A region is a bounding box intersected with inequality constraints
``g(x) <= 0``.  :func:`sample` builds every grid: a tensor product of
per-axis linspaces filtered by the constraints, ordered lexicographically by
axis index, so two runs with identical inputs see the identical point list.
A :class:`SampleGrid` carries its region, so a reader needs nothing else.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RegionError
from .expr import compile, differentiate, parse
from .linalg import row_sums

# largest tensor grid ``sample`` builds (resolution ** dim points): 2**22 admits
# 129 points per axis in 3D and keeps one float64 coordinate array at 32 MiB
MAX_GRID_POINTS = 2**22


@dataclass(frozen=True)
class Region:
    """Box plus constraints; a point is inside iff it lies in the box and
    every constraint is <= 0.

    ``margin > 0`` tightens every constraint to ``g(x) <= -margin``, the
    grid analogue of testing strictly interior uniformity.  This class alone
    evaluates the constraints: grids and ray tracing both ask
    :meth:`inside`, which runs each constraint through its tape's
    straight-line kernel.
    """

    dim: int
    box: tuple  # ((lo, hi), ...) per axis
    constraints: tuple = ()
    margin: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise RegionError("dimension must be >= 1")
        if len(self.box) != self.dim:
            raise RegionError("bounding box must have one [lo, hi] pair per axis")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        for lo, hi in box:
            if not -np.inf < lo < hi < np.inf:
                raise RegionError(f"empty or unbounded box axis [{lo}, {hi}]")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.margin >= 0:  # NaN too, so ``<= -margin`` tests what it says
            raise RegionError("margin must be nonnegative")

    @cached_property
    def _corners(self):
        """Each axis's ``(lo, hi)`` bounds as 0-d arrays."""
        return tuple((np.array(lo), np.array(hi)) for lo, hi in self.box)

    @cached_property
    def _tapes(self):
        """One compiled tape per constraint, in order."""
        return [compile(g) for g in self.constraints]

    @cached_property
    def _distance(self):
        """Each constraint followed by its gradient, for boundary distances."""
        return compile(
            [[g, *(differentiate(g, k) for k in range(1, self.dim + 1))] for g in self.constraints]
        )

    def inside(self, points, consts=None, mask=True):
        """Which rows of ``points``, among those where ``mask`` holds, lie in
        the region; a row's first ``dim`` columns are its position.

        The box is tested first, then each constraint in order, and a
        constraint is evaluated only at the rows every earlier test admitted,
        so a constraint may guard the domain of the next one.  A constraint
        runs through its tape's kernel; a batch the kernel cannot finish, or
        whose values are not all finite, is replayed through the tape, which
        raises the error.
        """
        ok = mask
        for x, (lo, hi) in zip(points.T, self._corners):  # no reduction along a short axis
            ok = ok & (x >= lo) & (x <= hi)
        consts = consts or {}
        for g in self._tapes:
            rows = slice(None) if ok.all() else np.flatnonzero(ok)
            pts = points[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                values = g.kernel(pts, consts, np.empty((len(pts), 1)))
            if values is None or not np.isfinite(values).all():
                values = g(pts, consts)[:, None]
            ok[rows] = values[:, 0] <= -self.margin
        return ok

    def boundary_distance(self, points, consts=None):
        """First-order estimate of the distance to the region boundary, per
        row; the rows must lie inside the region.  A constraint's boundary
        is where ``g = -margin``, as for :meth:`inside`."""
        lo, hi = np.array(self.box).T
        x = points[:, : self.dim]
        dist = np.minimum(x - lo, hi - x).min(axis=1)
        if self.constraints:
            values = self._distance(points, consts)  # (m, c, 1 + n)
            # a gradient whose squared norm overflows is infinitely steep: reach 0
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                norm = np.sqrt(row_sums(values[:, :, 1:] ** 2))
                reach = np.maximum(0.0, -values[:, :, 0] - self.margin) / norm
            dist = np.minimum(dist, np.where(norm > 0.0, reach, np.inf).min(axis=1))
        return np.maximum(0.0, dist)


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Points of ``region`` labelled by ``resolution``; :func:`sample` gives
    the in-region points of the tensor grid at ``resolution`` per axis.  A
    grid equals and hashes as itself only, so it can key a cache."""

    region: Region
    resolution: int
    points: np.ndarray  # (m, dim), lexicographic order

    def __len__(self):
        return self.points.shape[0]


def region(dim, box, constraints=(), margin=0.0) -> Region:
    """Build a region, each constraint taken by :func:`parse`."""
    parsed = tuple(parse(c, dim) for c in constraints)
    return Region(dim=dim, box=tuple(tuple(b) for b in box), constraints=parsed, margin=margin)


def sample(r: Region, resolution: int, consts=None) -> SampleGrid:
    """Tensor grid of the box filtered by the constraints.

    The grid includes the box faces (linspace endpoints); points failing a
    constraint are dropped.  Raises :class:`RegionError` when nothing at all
    survives, which signals a region too thin for the resolution, or, before
    allocating, when the tensor grid would exceed :data:`MAX_GRID_POINTS`.
    """
    if resolution < 2:
        raise RegionError("resolution must be >= 2")
    count = int(resolution) ** r.dim
    if count > MAX_GRID_POINTS:
        raise RegionError(
            f"resolution {resolution} in dimension {r.dim} asks for {count} grid points;"
            f" the budget is {MAX_GRID_POINTS}"
        )
    axes = [np.linspace(lo, hi, resolution) for lo, hi in r.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh])
    pts = pts.compress(r.inside(pts.T, consts), axis=1).T  # the grid axis innermost
    if pts.shape[0] == 0:
        raise RegionError(
            f"region too thin for resolution {resolution}: no grid point passes the constraints"
        )
    pts.setflags(write=False)
    return SampleGrid(r, resolution, pts)
