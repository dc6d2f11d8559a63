import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from test_fuzz import expression

from wavecert import domain
from wavecert.bundled import EXAMPLES, config_text
from wavecert.cli import RunConfig
from wavecert.domain import Region, region, sample
from wavecert.errors import EvaluationError, RegionError
from wavecert.expr import compile

SQRT_15 = math.sqrt(1.5)

# the first constraint keeps the second's log to x1 >= 0.5
GUARDED = ((-1.0, 3.0), (-1.0, 1.0)), ["0.5 - x1", "log(x1) - 1 + x2^2"]


@pytest.fixture
def offset_disk():
    # disk of radius sqrt(1.5) centered at (2, 0)
    return region(
        2,
        [(2 - SQRT_15, 2 + SQRT_15), (-SQRT_15, SQRT_15)],
        ["(x1 - 2)^2 + x2^2 - 1.5"],
    )


def contains(r, p):
    """Whether ``r`` holds the one point ``p``, by :meth:`Region.inside`."""
    return bool(r.inside(np.array([p], dtype=float))[0])


class TestContains:
    def test_interior_slice_point(self, offset_disk):
        assert contains(offset_disk, (1.0, 0.0))

    def test_other_slice_point(self, offset_disk):
        assert contains(offset_disk, (3.0, 0.0))

    def test_outside(self, offset_disk):
        assert not contains(offset_disk, (0.0, 0.0))

    def test_margin_tightens(self):
        r = region(1, [(0.0, 2.0)], ["x1 - 1"], margin=0.5)
        assert contains(r, (0.4,))
        assert not contains(r, (0.9,))  # constraint -0.1 > -margin


class TestSample:
    def test_unit_square_tensor_count(self):
        grid = sample(region(2, [(0.0, 1.0), (0.0, 1.0)]), 3)
        assert len(grid) == 9

    def test_disk_filter_oracle(self):
        # oracle: enumerate the 9 tensor points of [-1.5, 1.5]^2 at
        # resolution 3 and keep those with x^2 + y^2 <= 2
        r = region(2, [(-1.5, 1.5), (-1.5, 1.5)], ["x1^2 + x2^2 - 2"])
        axes = np.linspace(-1.5, 1.5, 3)
        expected = [
            (a, b) for a in axes for b in axes if a * a + b * b <= 2.0
        ]
        grid = sample(r, 3)
        assert [tuple(p) for p in grid.points] == expected
        assert len(grid) == 1  # only the origin survives

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_guarding_constraint_oracle(self, margin):
        # oracle: every tensor point of the box that ``contains`` admits
        box, constraints = GUARDED
        r = region(2, box, constraints, margin=margin)
        axes = [np.linspace(lo, hi, 17) for lo, hi in box]
        expected = [(a, b) for a in axes[0] for b in axes[1] if contains(r, (a, b))]
        grid = sample(r, 17)
        assert [tuple(p) for p in grid.points] == expected
        assert 0 < len(grid) < 17 * 17

    def test_resolution_below_two_rejected(self):
        with pytest.raises(RegionError):
            sample(region(1, [(0.0, 1.0)]), 1)

    def test_too_thin_region_errors(self):
        r = region(2, [(0.0, 1.0), (0.0, 1.0)], ["x1 + x2 + 1"])  # nothing passes
        with pytest.raises(RegionError, match="too thin"):
            sample(r, 5)

    def test_grid_point_budget_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        cube = region(3, [(0.0, 1.0)] * 3)
        monkeypatch.setattr(np, "meshgrid", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(RegionError, match="budget"):
            sample(cube, 1000)
        monkeypatch.undo()
        monkeypatch.setattr(domain, "MAX_GRID_POINTS", 27)
        assert len(sample(cube, 3)) == 27
        with pytest.raises(RegionError, match="budget"):
            sample(cube, 4)

    def test_determinism(self, offset_disk):
        a = sample(offset_disk, 17)
        b = sample(offset_disk, 17)
        assert np.array_equal(a.points, b.points)

    def test_points_keep_the_grid_axis_innermost(self, offset_disk):
        pts = sample(offset_disk, 9).points
        assert pts.strides[0] == pts.itemsize and not pts.flags.writeable

    def test_points_ordered_lexicographically(self, offset_disk):
        pts = sample(offset_disk, 9).points
        order = sorted(range(len(pts)), key=lambda i: tuple(pts[i]))
        assert order == list(range(len(pts)))

    def test_every_point_contained(self, offset_disk):
        grid = sample(offset_disk, 17)
        assert all(contains(offset_disk, p) for p in grid.points)

    def test_subset_of_tensor_points(self, offset_disk):
        grid = sample(offset_disk, 9)
        axes = [np.linspace(lo, hi, 9) for lo, hi in offset_disk.box]
        tensor = {(a, b) for a in axes[0] for b in axes[1]}
        assert all(tuple(p) in tensor for p in grid.points)

    @pytest.mark.parametrize("resolution", [17, 33])
    def test_bundled_regions_nonempty(self, resolution):
        for name in EXAMPLES:
            cfg = RunConfig.from_text(config_text(name))
            assert len(sample(cfg.build_region(), resolution, cfg.constants)) > 0


class TestRegionValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(RegionError):
            Region(dim=1, box=((1.0, 1.0),))

    def test_negative_margin_rejected(self):
        with pytest.raises(RegionError):
            Region(dim=1, box=((0.0, 1.0),), margin=-0.1)

    def test_nan_margin_rejected(self):
        with pytest.raises(RegionError, match="nonnegative"):
            Region(dim=1, box=((0.0, 1.0),), margin=float("nan"))


class TestInside:
    @pytest.fixture(params=[0.0, 0.1], ids=["no-margin", "margin"])
    def regions(self, request):
        box, constraints = GUARDED
        return [
            region(2, box, constraints, margin=request.param),
            region(
                2,
                [(2 - SQRT_15, 2 + SQRT_15), (-SQRT_15, SQRT_15)],
                ["(x1 - 2)^2 + x2^2 - 1.5"],
                margin=request.param,
            ),
        ]

    def test_agrees_with_contains_on_and_off_the_grid(self, regions):
        rng = np.random.default_rng(7)
        for r in regions:
            lo, hi = np.array(r.box).T
            axes = [np.linspace(a, b, 9) for a, b in r.box]
            grid = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
            # off-grid points, a quarter of them outside the box
            spread = 0.25 * (hi - lo)
            scattered = rng.uniform(lo - spread, hi + spread, size=(400, 2))
            for pts in (grid, scattered):
                got = r.inside(pts)
                assert got.tolist() == [contains(r, p) for p in pts]
                assert got.any() and not got.all()

    def test_mask_and_extra_columns(self, regions):
        # rows may carry more columns than the region's dimension (a ray's
        # covector); only the first ``dim`` are a position
        r = regions[0]
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [1.5, 0.5], [-2.0, 0.0]])
        expected = [contains(r, p) for p in pts]
        assert r.inside(pts).tolist() == expected == [True, False, True, False]
        mask = np.array([False, True, True, True])
        assert r.inside(pts, mask=mask).tolist() == [False, False, True, False]
        wide = np.hstack([pts, np.full((4, 2), -5.0)])
        assert r.inside(wide).tolist() == expected


def interpreted_inside(r, points, consts, mask):
    """What ``Region.inside`` must return: each constraint evaluated through
    its interpreted tape at the rows every earlier test admitted."""
    lo, hi = np.array(r.box).T
    x = points[:, : r.dim]
    ok = mask & ((x >= lo) & (x <= hi)).all(axis=1)
    for g in r.constraints:
        rows = np.flatnonzero(ok)
        ok[rows] = compile(g)(points[rows], consts) <= -r.margin
    return ok


def mask_or_error(run):
    """The mask ``run()`` returns, bit for bit, or its error's class,
    message and point."""
    try:
        return run().tobytes()
    except EvaluationError as exc:
        return type(exc), str(exc), exc.point


class TestInsideKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_interpreted_tapes_on_random_constraints(self, seed):
        # fuzzer constraints over points with exact zeros and extra columns:
        # guards hit at various rows, values overflow, and ``c`` is unbound
        # in a quarter of the cases
        rng, np_rng = random.Random(seed), np.random.default_rng(seed)
        seen, guard_rows = Counter(), set()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(150):
                dim = rng.choice((1, 2, 3))
                constraints = [expression(rng, dim, 3) for _ in range(rng.randint(1, 3))]
                scale = rng.choice((1.0, 1.0, 1e160))  # squares of 1e160 overflow
                box = [(-2.0 * scale, 2.0 * scale)] * dim
                r = region(dim, box, constraints, margin=rng.choice((0.0, 0.1)))
                consts = rng.choice(({}, {"c": 0.5}, {"c": -2.0}, {"c": 1e300}))
                shape = (rng.randint(1, 24), rng.choice((dim, 2 * dim)))
                points = scale * np_rng.uniform(-2.5, 2.5, size=shape)
                points[np_rng.random(points.shape) < 0.15] = 0.0
                mask = rng.choice((True, np_rng.random(len(points)) < 0.7))
                expected = mask_or_error(lambda: interpreted_inside(r, points, consts, mask))
                assert mask_or_error(lambda: r.inside(points, consts, mask)) == expected
                if isinstance(expected, bytes):
                    seen["mask"] += 1
                else:
                    seen[expected[1].split(" at point")[0]] += 1
                    if expected[2] is not None and expected[0] is not EvaluationError:
                        rows = [tuple(p) for p in points.tolist()]
                        guard_rows.add(rows.index(expected[2]))
        assert seen["mask"] >= 50 and seen["non-finite result"] and seen["unbound constant 'c'"]
        assert len(guard_rows) >= 2


class TestBoundaryDistance:
    def test_gradient_whose_square_overflows_reaches_zero(self):
        # |grad g|^2 = 2e600 overflows; the estimate is 0, without a warning
        r = region(2, [(0.0, 1.0), (0.0, 1.0)], ["1e300*x1 + 1e300*x2 - 1e300"])
        pts = np.array([[0.1, 0.1], [0.3, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert r.boundary_distance(pts).tolist() == [0.0, 0.0]

    def test_first_order_estimate_on_a_disk(self):
        r = region(2, [(-1.0, 1.0), (-1.0, 1.0)], ["x1^2 + x2^2 - 1"])
        # g = -0.75 and |grad g| = 1 at (0.5, 0): reach 0.75, box distance 0.5
        assert r.boundary_distance(np.array([[0.5, 0.0]])).tolist() == [0.5]
        assert r.boundary_distance(np.array([[0.0, 0.0]])).tolist() == [1.0]
