import math
import warnings

import numpy as np
import pytest

from wavecert.coeff import build, certify_positivity
from wavecert.domain import region, sample
from wavecert.expr import Num, differentiate, parse
from wavecert.linalg import (
    SCREENED,
    _scaled,
    eigen_bounds,
    leading_principal_minors,
    min_eigenvalue,
    minor_bounds,
    row_norms,
    row_peaks,
    screened,
)

SQRT2 = math.sqrt(2.0)


def origin_disk():
    return region(2, [(-SQRT2, SQRT2)] * 2, ["x1^2 + x2^2 - 2"])


def solved_pencil(m, a):
    """The smallest generalized eigenvalue of each pencil (m, a), whitened by
    two solves against the Cholesky factors L of a after the same exact
    power-of-two scaling, and the pencil's spectral radius."""
    scaled, exp = _scaled(m)
    chol = np.linalg.cholesky(a)

    def whitened(sign):
        y = np.linalg.solve(chol, sign * scaled)
        c = np.swapaxes(np.linalg.solve(chol, np.swapaxes(y, -1, -2)), -1, -2)
        return np.ldexp(np.linalg.eigvalsh(0.5 * (c + np.swapaxes(c, -1, -2)))[..., 0], exp)

    low = whitened(1.0)
    return low, np.maximum(np.abs(low), np.abs(whitened(-1.0)))


def example_bad_field():
    # isotropic 1 + |x|^2 field whose partials change sign over the disk
    return build(["1 + x1^2 + x2^2", "1 + x1^2 + x2^2"], diagonal=True)


class TestBuild:
    def test_diagonal_entries_and_partials(self):
        f = example_bad_field()
        assert f.dim == 2 and f.diagonal
        assert f.entries[0][1].value == 0.0  # structural zero off-diagonal
        # da^1/dx2 = 2*x2
        from wavecert.expr import evaluate

        assert evaluate(f.partials[0][0][1], (0.5, 0.7)) == pytest.approx(1.4)

    def test_constant_field_partials_vanish(self):
        f = build(["2", "3"], diagonal=True)
        pts = np.array([[0.3, -0.8], [1.0, 1.0]])
        assert np.all(f.partial_values(pts) == 0.0)

    def test_general_triangle_count(self):
        f = build(["2", "x1*x2", "3"], diagonal=False)
        assert f.dim == 2
        assert f.entries[0][1] is f.entries[1][0]
        with pytest.raises(ValueError):
            build(["1", "2"], diagonal=False)

    def test_values_symmetry(self):
        f = build(["2", "x1*x2", "3"], diagonal=False)
        mats = f.values(np.array([[0.4, 0.9], [1.2, -0.3]]))
        assert np.array_equal(mats, np.swapaxes(mats, -1, -2))

    def test_full_layout_is_the_upper_triangle_in_row_order(self):
        # a11, a12, a13, a22, a23, a33: each entry and its partials fill both
        # symmetric slots, shared
        texts = ["x1", "x2", "x3", "x1*x2", "x2*x3", "x1*x3"]
        f = build(texts, diagonal=False)
        slots = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for text, (i, j) in zip(texts, slots):
            assert f.entries[i][j] == parse(text, 3)
            assert f.entries[i][j] is f.entries[j][i]
            assert f.partials[i][j] is f.partials[j][i]
            assert f.partials[i][j] == tuple(differentiate(f.entries[i][j], k) for k in (1, 2, 3))

    def test_diagonal_field_is_zero_off_the_diagonal(self):
        texts = ["1 + x1^2", "2 + x2", "3 + x3"]
        f = build(texts, diagonal=True)
        for i, text in enumerate(texts):
            assert f.entries[i][i] == parse(text, 3)
            for j in range(3):
                if j != i:
                    assert f.entries[i][j] == Num(0.0)
                    assert f.partials[i][j] == (Num(0.0),) * 3

    def test_diagonal_field_needs_an_entry(self):
        with pytest.raises(ValueError, match="a diagonal field needs at least one entry"):
            build([], True)

    @pytest.mark.parametrize("count", [0, 2, 4, 5])
    def test_full_entries_must_fill_a_triangle(self, count):
        message = f"{count} entries do not form an upper triangle of any size"
        with pytest.raises(ValueError, match=message):
            build(["1"] * count, diagonal=False)


def certify(field, grid):
    """:func:`certify_positivity` of ``field`` on ``grid``, from its values there."""
    return certify_positivity(field, grid, field.values(grid.points))


class TestCertifyPositivity:
    def test_constant_diagonal(self):
        f = build(["2", "3"], diagonal=True)
        grid = sample(origin_disk(), 9)
        alpha, _ = certify(f, grid)
        assert alpha == pytest.approx(2.0, abs=1e-14)

    def test_identity(self):
        f = build(["1", "1"], diagonal=True)
        grid = sample(origin_disk(), 9)
        alpha, _ = certify(f, grid)
        assert alpha == pytest.approx(1.0, abs=1e-14)

    def test_example_field_minimum_at_origin(self):
        f = example_bad_field()
        grid = sample(origin_disk(), 33)  # odd resolution puts 0 on the grid
        alpha, worst = certify(f, grid)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(worst) < 1e-12

    def test_indefinite_field_rejected(self):
        f = build(["x1", "1"], diagonal=True)  # negative for x1 < 0
        grid = sample(origin_disk(), 9)
        alpha, worst = certify(f, grid)
        assert alpha < 0.0
        assert worst[0] < 0.0


    def test_diagonal_entries_across_double_range(self):
        # rescaled by its 1e200 peak, the 1e-200 entry underflows to zero in
        # the eigenvalue route; the diagonal itself is exact
        f = build(["1e-200", "1e200"], diagonal=True)
        alpha, _ = certify(f, sample(region(2, [(1.0, 3.0)] * 2), 5))
        assert alpha == 1e-200

    def test_diagonal_exponential_minimum_is_the_smallest_entry(self):
        f = build(["exp(-600*x1)", "exp(600*x1)"], diagonal=True)
        grid = sample(region(2, [(0.0, 1.0)] * 2), 5)
        alpha, worst = certify(f, grid)
        entries = np.diagonal(f.values(grid.points), axis1=-2, axis2=-1)
        assert alpha > 0.0 and alpha == np.min(entries)
        assert worst[0] == 1.0

    def test_diagonal_signed_zero_tie_takes_the_first_entry(self):
        # as the sorted eigenvalues of diag(0.0, -0.0) do
        f = build(["x1", "-(0*x1)"], diagonal=True)
        alpha, worst = certify(f, sample(region(2, [(0.0, 1.0)] * 2), 5))
        assert alpha == 0.0 and math.copysign(1.0, alpha) == 1.0
        assert worst == (0.0, 0.0)


class TestLinalg:
    def test_cholesky_agrees_with_eigenvalues_on_known_spectra(self):
        # one stack of random symmetric matrices with prescribed eigenvalues:
        # the stacked smallest eigenvalues must match the spectra, and the
        # two positivity routes (factorization success vs smallest
        # eigenvalue) must agree matrix by matrix
        rng = np.random.default_rng(42)
        count, n = 100, 4
        spectra = rng.uniform(-2.0, 3.0, size=(count, n))
        # keep clearly away from singular
        spectra[np.abs(spectra) < 1e-3] = 1e-3
        q, _ = np.linalg.qr(rng.normal(size=(count, n, n)))
        mats = q @ (spectra[:, :, None] * np.swapaxes(q, -1, -2))
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
        eigs = min_eigenvalue(mats)
        assert eigs.shape == (count,)
        assert np.allclose(spectra.min(axis=1), eigs, rtol=1e-9, atol=1e-9)

        def factors(mat):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                return False
            return True

        assert [factors(mat) for mat in mats] == list(eigs > 0.0)
        assert eigs[0] == min_eigenvalue(mats[0])

    def test_per_matrix_power_of_two_scaling_is_exact(self):
        # each matrix of a stack keeps its own exact rescaling: one global
        # factor would push the small matrix below double range
        mat = np.array([[2.0, -0.7, 0.1], [-0.7, 1.3, 0.4], [0.1, 0.4, 0.9]])
        stack = np.stack([2.0**900 * mat, 2.0**-900 * mat])
        single = min_eigenvalue(mat)
        got = min_eigenvalue(stack)
        assert got[0] == 2.0**900 * single
        assert got[1] == 2.0**-900 * single

    def test_min_eigenvalue_one_by_one(self):
        assert min_eigenvalue(np.array([[3.5]])) == 3.5

    def test_leading_minors_of_triangular(self):
        mat = np.array([[2.0, 0.0], [7.0, 3.0]])
        assert np.allclose(leading_principal_minors(mat), [2.0, 6.0])

    def test_pencil_reduces_to_plain_eigenvalues_for_identity(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert min_eigenvalue(mat, np.eye(2)) == pytest.approx(1.0)
        assert min_eigenvalue(mat, np.ones(2)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_factor_scaling_matches_two_solves(self, n):
        # the reference whitens by two solves against the Cholesky factors;
        # the routine multiplies by W = L^-1.  m = L c L^T, so the pencil's
        # eigenvalues are c's.  Diagonal A spans 1e-290..1e290 and is
        # compared to a few ulps of the pencil's spectral radius; full A
        # has cond(A) up to 1e8, and the two whitenings differ by at most
        # 1.85 * eps * cond(A) * radius over 12000 matrices per n, so the
        # bound is 4n times that
        rng = np.random.default_rng(n)
        k = 300
        sign = rng.choice([-1.0, 1.0], size=(2, k, n, n))
        c = sign * 10.0 ** rng.uniform(-12.0, 4.0, size=(2, k, n, n))
        c[rng.random(c.shape) < 0.15] = 0.0
        c[rng.random(c.shape) < 0.15] = -0.0
        c = np.triu(c) + np.swapaxes(np.triu(c, 1), -1, -2)

        diag = 10.0 ** rng.uniform(-290.0, 290.0, size=(k, n))
        a = np.zeros((k, n, n))
        a[:, range(n), range(n)] = diag
        root = np.sqrt(diag)
        m = c[0] * (root[:, :, None] * root[:, None, :])
        got = min_eigenvalue(m, 1.0 / np.sqrt(diag))
        ref, radius = solved_pencil(m, a)
        assert np.all(np.abs(got - ref) <= 8 * n * np.finfo(float).eps * radius)

        q = np.linalg.qr(rng.normal(size=(k, n, n)))[0]
        spectrum = 10.0 ** rng.uniform(0.0, 8.0, size=(k, n))
        a = 10.0 ** rng.uniform(-250.0, 250.0, size=(k, 1, 1)) * (
            (q * spectrum[:, None, :]) @ np.swapaxes(q, -1, -2)
        )
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        chol = np.linalg.cholesky(a)
        m = chol @ c[1] @ np.swapaxes(chol, -1, -2)
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        got = min_eigenvalue(m, np.linalg.inv(chol))
        ref, radius = solved_pencil(m, a)
        bound = 4 * n * np.finfo(float).eps * np.linalg.cond(a) * radius
        assert np.all(np.abs(got - ref) <= bound)

    def test_diagonal_whitening_is_the_reciprocal_cholesky_diagonal(self):
        # W's diagonal without a factorization: bit for bit what the
        # Cholesky factors of a diagonal A give
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            diag = 10.0 ** rng.uniform(-300.0, 300.0, size=(5000, n))
            a = np.zeros((len(diag), n, n))
            a[:, range(n), range(n)] = diag
            chol = np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1)
            assert np.array_equal(1.0 / np.sqrt(diag), 1.0 / chol)

    def test_pencil_diagonal_case(self):
        # pencil (2*diag(4,9), diag(2,3)) has eigenvalues (4, 6)
        w = 1.0 / np.sqrt([2.0, 3.0])
        for whitening in (w, np.diag(w)):
            assert min_eigenvalue(2.0 * np.diag([4.0, 9.0]), whitening) == pytest.approx(4.0)


def spread_stack(rng, count):
    """Symmetric 2x2 matrices with entries of either sign over e^+-700, exact
    and signed zeros, all-zero rows of either sign, identity rows (exact
    ties) and rows one ulp apart."""
    mags = np.exp(rng.uniform(-700.0, 700.0, size=(count, 3)))
    vals = rng.choice([-1.0, 1.0], size=(count, 3)) * mags
    vals[rng.random((count, 3)) < 0.15] = 0.0
    vals[rng.random((count, 3)) < 0.1] = -0.0
    kind = rng.integers(0, 6, size=count)
    vals[kind == 0] = 0.0
    vals[kind == 1] = -0.0
    vals[kind == 2] = (1.0, 0.0, 1.0)
    for row in np.flatnonzero(kind == 3):  # a neighbour one ulp away
        vals[row] = vals[row - 1]
        vals[row, 0] = np.nextafter(vals[row, 0], -np.inf)
    mats = np.empty((count, 2, 2))
    mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1] = vals.T
    mats[:, 1, 0] = mats[:, 0, 1]
    return mats


def spread_stack3(rng, count):
    """Symmetric 3x3 matrices with entries of either sign over e^+-700, exact
    and signed zeros, all-zero rows of either sign, rows c I (whose closed
    form has p = 0), near-repeated triples s (I + 1e-9 E) for a random
    symmetric E, and rows one ulp apart."""
    mags = np.exp(rng.uniform(-700.0, 700.0, size=(count, 6)))
    vals = rng.choice([-1.0, 1.0], size=(count, 6)) * mags
    vals[rng.random((count, 6)) < 0.15] = 0.0
    vals[rng.random((count, 6)) < 0.1] = -0.0
    kind = rng.integers(0, 7, size=count)
    vals[kind == 0] = 0.0
    vals[kind == 1] = -0.0
    identity = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])  # the upper triangle, row by row
    vals[kind == 2] = vals[kind == 2, :1] * identity
    near = kind == 3
    vals[near] = vals[near, :1] * (identity + 1e-9 * rng.standard_normal((near.sum(), 6)))
    for row in np.flatnonzero(kind == 4):  # a neighbour one ulp away
        vals[row] = vals[row - 1]
        vals[row, 3] = np.nextafter(vals[row, 3], -np.inf)
    mats = np.empty((count, 3, 3))
    for k, (i, j) in enumerate(zip(*np.triu_indices(3))):
        mats[:, i, j] = mats[:, j, i] = vals[:, k]
    return mats


def whitenings(rng, count, n=2, span=350.0):
    """W's diagonal and a full lower-triangular W, entries over e^+-span."""
    diag = np.exp(rng.uniform(-span, span, size=(count, n)))
    full = np.zeros((count, n, n))
    full[:, range(n), range(n)] = diag
    for i, j in zip(*np.tril_indices(n, -1)):
        full[:, i, j] = rng.uniform(-1.0, 1.0, size=count) * diag.min(axis=1)
    return diag, full


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run(routine, *stacks):
    """``routine`` on the stacks, or the class of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return routine(*stacks)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


# stack layouts: C-ordered (matmul's products); the grid axis innermost with
# the rest C-ordered (the tapes' values) or column-major; and neither
LAYOUTS = {
    "C": np.ascontiguousarray,
    "grid-innermost": lambda x: np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0),
    "column-major": np.asfortranarray,
    "non-contiguous": lambda x: np.stack([x, x], axis=-1)[..., 0],
}


def special_rows(rng, m, k):
    """Rows of k entries mixing normal values, signed zeros, +-inf and NaN."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    x = rng.standard_normal((m, k)) * np.exp(rng.uniform(-700.0, 700.0, (m, k)))
    pick = rng.random((m, k)) < 0.2
    x[pick] = rng.choice(specials, pick.sum())
    x[: k + 1] = 0.0  # an all-zero row, then one row per position of a lone -0.0
    x[np.arange(1, k + 1), np.arange(k)] = -0.0
    return x


class TestRowPeaks:
    """Each peak is taken column by column, bitwise the axis reduction of
    the C-ordered rows, in every layout."""

    @pytest.mark.parametrize("k", range(1, 12))
    def test_peaks_are_the_axis_maximum(self, k):
        x = special_rows(np.random.default_rng(k), 400, k)
        want = np.max(np.abs(x), axis=-1)
        for layout in LAYOUTS.values():
            got = row_peaks(layout(x))
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("k", range(1, 12))
    def test_row_norms_match_the_axis_reduction(self, k):
        # from 8 columns on, numpy sums a contiguous row pairwise and a
        # strided one in order, so the layout could move the last bits
        x = special_rows(np.random.default_rng(20 + k), 400, k)
        peak = np.max(np.abs(x), axis=1)
        safe = np.where(peak > 0.0, peak, 1.0)
        with np.errstate(all="ignore"):  # NaN rows are not rescaled and overflow
            scaled = x / safe[:, None]
            want = safe * np.sqrt(np.sum(scaled * scaled, axis=1))
            for layout in LAYOUTS.values():
                got = row_norms(layout(x))
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("k", range(8, 12))
    def test_row_norms_of_ordinary_rows_keep_their_bits(self, k):
        x = np.random.default_rng(60 + k).standard_normal((2000, k))
        want = row_norms(x)
        for layout in LAYOUTS.values():
            assert np.array_equal(row_norms(layout(x)), want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaling_matches_the_axis_reduction(self, n):
        mats = special_rows(np.random.default_rng(40 + n), 400, n * n).reshape(-1, n, n)
        peak = np.max(np.abs(mats), axis=(-2, -1))
        _, exp = np.frexp(peak)
        exp = np.where(np.isfinite(peak) & (peak > 0.0), exp - 1, 0)
        want = np.ldexp(mats, -exp[..., None, None])
        for layout in LAYOUTS.values():
            scaled, got_exp = _scaled(layout(mats))
            assert np.array_equal(got_exp, exp)
            assert np.array_equal(scaled, want, equal_nan=True)
            assert np.array_equal(np.signbit(scaled), np.signbit(want))
        # one matrix is a stack of one
        assert np.array_equal(_scaled(mats[3])[0], want[3], equal_nan=True)


class TestScreened:
    """The closed-form screen changes no bit of a minimum or its first row,
    whatever the layout of the stacks it screens."""

    def check(self, routine, bounds, *stacks):
        full = run(routine, *stacks)
        for layout in LAYOUTS.values():
            self.check_layout(full, routine, bounds, *(layout(s) for s in stacks))

    @staticmethod
    def check_layout(full, routine, bounds, *stacks):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # none may escape the screen
            part = run(lambda *s: screened(routine, bounds, *s), *stacks)
        with np.errstate(all="ignore"):  # as screened calls it
            lo, hi = bounds(*stacks)[:2] if stacks[0].shape[-1] in SCREENED else (None, None)
        if full is np.linalg.LinAlgError:
            assert part is np.linalg.LinAlgError
            return
        first = np.argmin(full, axis=0)
        assert same_bits(np.min(part, axis=0), np.min(full, axis=0))
        assert same_bits(np.argmin(part, axis=0), first)
        at_first = [np.take_along_axis(v, first[None], axis=0) for v in (part, full)]
        assert same_bits(*at_first)
        if lo is not None:  # each interval holds LAPACK's value, or has a NaN end
            unknown = np.isnan(lo) | np.isnan(hi)
            assert np.all(unknown | ((lo <= full) & (full <= hi)))

    @pytest.mark.parametrize("seed", range(4))
    def test_spread_stacks_are_bitwise_the_full_minima(self, seed):
        rng = np.random.default_rng(seed)
        for count in [1, 2, 3, 5, 8] * 40 + [400]:
            mats = spread_stack(rng, count)
            diag, full = whitenings(rng, count)
            self.check(min_eigenvalue, eigen_bounds, mats)
            self.check(leading_principal_minors, minor_bounds, mats)
            self.check(min_eigenvalue, eigen_bounds, mats, diag)
            self.check(min_eigenvalue, eigen_bounds, mats, full)

    @pytest.mark.parametrize("seed", range(2))
    def test_spread_3x3_stacks_are_bitwise_the_full_minima(self, seed):
        rng = np.random.default_rng(10 + seed)
        for count in [1, 2, 3, 5, 8] * 20 + [400]:
            mats = spread_stack3(rng, count)
            diag, full = whitenings(rng, count, 3)
            self.check(min_eigenvalue, eigen_bounds, mats)
            self.check(leading_principal_minors, minor_bounds, mats)
            self.check(min_eigenvalue, eigen_bounds, mats, diag)
            self.check(min_eigenvalue, eigen_bounds, mats, full)

    def test_near_repeated_3x3_intervals_hold_lapack(self):
        # arccos loses half the digits near a repeated eigenvalue; the band
        # still holds LAPACK's value, and the screen still drops far rows
        rng = np.random.default_rng(7)
        e = rng.standard_normal((2000, 3, 3))
        size = 10.0 ** rng.uniform(-16.0, -3.0, (2000, 1, 1))
        mats = np.eye(3) + size * (e + np.swapaxes(e, 1, 2))
        mats[0] = 3.0 * np.eye(3)  # p = 0
        mats[1] = np.diag([0.5, 2.0, 2.0])  # a repeated largest pair, far below the rest
        diag, full = whitenings(rng, len(mats), 3, span=1.0)  # no wide underflow floor
        self.check(min_eigenvalue, eigen_bounds, mats)
        self.check(leading_principal_minors, minor_bounds, mats)
        self.check(min_eigenvalue, eigen_bounds, mats, diag)
        self.check(min_eigenvalue, eigen_bounds, mats, full)
        with np.errstate(all="ignore"):  # 0 / 0 at p = 0, as screened calls it
            lo, hi, _ = eigen_bounds(mats)
        assert lo[0] <= 3.0 <= hi[0] and hi[0] - lo[0] < 1e-6
        assert np.array_equal(np.flatnonzero(~(lo > np.min(hi))), [1])

    def test_nan_and_inf_rows_keep_the_full_outcome(self):
        # a NaN end keeps a row: the screen gives LAPACK's error, or its NaN
        # and infinite minima, as the full stack does
        base = np.stack([np.diag([k, k + 1.0, k + 2.0]) for k in (3.0, 1.0, 2.0)])
        for bad in (np.nan, np.inf, -np.inf):
            mats = base.copy()
            mats[2, 0, 1] = mats[2, 1, 0] = bad
            diag, full = whitenings(np.random.default_rng(3), len(mats), 3)
            self.check(min_eigenvalue, eigen_bounds, mats)
            self.check(leading_principal_minors, minor_bounds, mats)
            self.check(min_eigenvalue, eigen_bounds, mats, diag)
            self.check(min_eigenvalue, eigen_bounds, mats, full)

    def test_whitened_overflow_has_no_finite_interval(self):
        # whitened without rescaling, the entries overflow: the interval is
        # NaN, so every row runs, and LAPACK's rescaled copy stays finite
        mats = np.array([[[1e300, 2e299], [2e299, 3e299]], [[1.0, 0.0], [0.0, 1.0]]])
        w = np.array([[1e10, 1e-10], [1.0, 1.0]])
        with np.errstate(all="ignore"):
            lo, hi, _ = eigen_bounds(mats, w)
        assert np.isnan(hi[0]) and np.isfinite(hi[1])
        self.check(min_eigenvalue, eigen_bounds, mats, w)
        assert np.isfinite(min_eigenvalue(mats, w)).all()

    def test_rows_one_ulp_apart(self):
        base = np.array([[2.0, 0.5], [0.5, 1.0]])
        mats = np.stack([base] * 6)
        mats[[1, 4], 1, 1] = np.nextafter(1.0, 0.0)  # the two smallest, tied
        mats[3, 1, 1] = np.nextafter(1.0, 2.0)
        self.check(min_eigenvalue, eigen_bounds, mats)
        self.check(leading_principal_minors, minor_bounds, mats)
        assert np.argmin(screened(min_eigenvalue, eigen_bounds, mats)) == 1

    def test_separated_rows_run_only_the_minimum(self):
        calls = []

        def counted(m):
            calls.append(len(m))
            return min_eigenvalue(m)

        mats = np.stack([np.diag([k, k + 1.0]) for k in (3.0, 1.0, 2.0, 5.0)])
        out = screened(counted, eigen_bounds, mats)
        assert calls == [1] and out[1] == 1.0 and np.isinf(np.delete(out, 1)).all()

    def test_separated_3x3_rows_run_only_the_minimum(self):
        calls = []

        def counted(m):
            calls.append(len(m))
            return leading_principal_minors(m)

        mats = np.stack([np.diag([k, k + 1.0, k + 2.0]) for k in (3.0, 1.0, 2.0, 5.0)])
        assert same_bits(screened(min_eigenvalue, eigen_bounds, mats)[1], 1.0)
        out = screened(counted, minor_bounds, mats)
        assert calls == [1] and same_bits(out[1], [1.0, 2.0, 6.0])
        assert np.isinf(np.delete(out, 1, axis=0)).all()

    @pytest.mark.parametrize("n", [1, 4])
    def test_other_sizes_run_every_row(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(7, n, n))
        mats = a @ np.swapaxes(a, -1, -2)
        rows = []

        def counted(m):
            rows.append(len(m))
            return min_eigenvalue(m)

        assert same_bits(screened(counted, eigen_bounds, mats), min_eigenvalue(mats))
        assert rows == [7]
