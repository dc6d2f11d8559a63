"""Bounded domains and the deterministic sample grids used for every
"uniformly over the closed domain" check.

A region is a bounding box intersected with inequality constraints
``g(x) <= 0``.  Grids are tensor products of per-axis linspaces filtered by
the constraints, ordered lexicographically by axis index, so two runs with
identical inputs see the identical point list.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RegionError
from .expr import Expression, evaluate, parse

# largest tensor grid ``sample`` builds (resolution ** dim points): 2**22 admits
# 129 points per axis in 3D and keeps one float64 coordinate array at 32 MiB
MAX_GRID_POINTS = 2**22


@dataclass(frozen=True)
class Region:
    """Box plus constraints; a point is inside iff every constraint is <= 0.

    ``margin > 0`` tightens every constraint to ``g(x) <= -margin``, the
    grid analogue of testing strictly interior uniformity.
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
        if self.margin < 0:
            raise RegionError("margin must be nonnegative")


@dataclass(frozen=True)
class SampleGrid:
    """Ordered in-region points of the tensor grid at ``resolution`` per axis."""

    resolution: int
    points: np.ndarray  # (m, dim), lexicographic order

    def __len__(self):
        return self.points.shape[0]


def region(dim, box, constraints=(), margin=0.0) -> Region:
    """Build a region, parsing any constraint given as text."""
    parsed = tuple(
        parse(c, dim) if isinstance(c, str) else c for c in constraints
    )
    for c in parsed:
        if not isinstance(c, Expression):
            raise RegionError(f"constraint {c!r} is not an expression")
    return Region(dim=dim, box=tuple(tuple(b) for b in box), constraints=parsed, margin=margin)


def contains(r: Region, p, consts=None) -> bool:
    """True iff ``p`` lies in the box and every constraint holds."""
    p = np.asarray(p, dtype=float)
    if p.shape != (r.dim,):
        raise RegionError(f"point has dimension {p.shape}, region has {r.dim}")
    for (lo, hi), v in zip(r.box, p):
        if not (lo <= v <= hi):
            return False
    bound = -r.margin if r.margin > 0 else 0.0
    for g in r.constraints:
        if evaluate(g, p, consts) > bound:
            return False
    return True


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
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    keep = np.ones(pts.shape[0], dtype=bool)
    bound = -r.margin if r.margin > 0 else 0.0
    for g in r.constraints:
        keep &= evaluate(g, pts, consts) <= bound
    pts = pts[keep]
    if pts.shape[0] == 0:
        raise RegionError(
            f"region too thin for resolution {resolution}: no grid point passes the constraints"
        )
    pts.setflags(write=False)
    return SampleGrid(resolution=resolution, points=pts)


def disk(center, radius, dim=2, margin=0.0) -> Region:
    """Convenience disk/ball region: tight box plus one quadratic constraint."""
    center = tuple(float(c) for c in center)
    if len(center) != dim:
        raise RegionError("center dimension mismatch")
    box = tuple((c - radius, c + radius) for c in center)
    terms = []
    for k, c in enumerate(center, start=1):
        if c == 0.0:
            terms.append(f"x{k}^2")
        else:
            terms.append(f"(x{k} - {c!r})^2")
    text = " + ".join(terms) + f" - {float(radius) ** 2!r}"
    return region(dim, box, [text], margin=margin)
