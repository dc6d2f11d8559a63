import math

import numpy as np
import pytest

from wavecert import domain
from wavecert.domain import Region, contains, disk, region, sample
from wavecert.errors import RegionError

SQRT_15 = math.sqrt(1.5)


@pytest.fixture
def offset_disk():
    # disk of radius sqrt(1.5) centered at (2, 0)
    return region(
        2,
        [(2 - SQRT_15, 2 + SQRT_15), (-SQRT_15, SQRT_15)],
        ["(x1 - 2)^2 + x2^2 - 1.5"],
    )


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

    def test_dimension_mismatch(self, offset_disk):
        with pytest.raises(RegionError):
            contains(offset_disk, (1.0, 0.0, 0.0))


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
        bundled = [
            region(2, [(-math.sqrt(2), math.sqrt(2))] * 2, ["x1^2 + x2^2 - 2"]),
            region(2, [(1.0, 3.0), (-1.0, 1.0)], ["(x1 - 2)^2 + x2^2 - 1"]),
            region(2, [(1.0, 3.0), (1.0, 3.0)], ["(x1 - 2)^2 + (x2 - 2)^2 - 1"]),
            region(
                2,
                [(2 - SQRT_15, 2 + SQRT_15), (-SQRT_15, SQRT_15)],
                ["(x1 - 2)^2 + x2^2 - 1.5"],
            ),
        ]
        for r in bundled:
            assert len(sample(r, resolution)) > 0


class TestRegionValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(RegionError):
            Region(dim=1, box=((1.0, 1.0),))

    def test_negative_margin_rejected(self):
        with pytest.raises(RegionError):
            Region(dim=1, box=((0.0, 1.0),), margin=-0.1)

    def test_disk_helper_matches_region(self):
        d = disk((2.0, 0.0), 1.0)
        assert contains(d, (2.5, 0.0))
        assert not contains(d, (3.5, 0.0))
        grid = sample(d, 5)
        assert all(contains(d, p) for p in grid.points)
