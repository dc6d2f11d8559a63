import itertools
import math
import warnings

import numpy as np
import pytest

from wavecert import condition
from wavecert.bundled import EXAMPLES, config_text
from wavecert.cli import RunConfig
from wavecert.coeff import build
from wavecert.condition import (
    GridProblem,
    _factors,
    _Margins,
    _multiplier,
    _terms,
    multiplier_matrix,
    multiplier_matrix_diagonal,
    quadratic_form_matrix,
    weight_function,
)
from wavecert.domain import SampleGrid, region, sample
from wavecert.errors import DomainError
from wavecert.weight import (
    construct_weight,
    derivative_ratio_maxima,
    limit_matrix,
    scaled_multiplier_matrix,
)

from test_coeff import LAYOUTS

SQRT2 = math.sqrt(2.0)


def identity_field():
    return build(["1", "1"], diagonal=True)


def example_bad_field():
    return build(["1 + x1^2 + x2^2", "1 + x1^2 + x2^2"], diagonal=True)


def isotropic_exp_field():
    return build(["exp(x1 + x2)", "exp(x1 + x2)"], diagonal=True)


def quadratic_weight():
    return weight_function("(x1^2 + x2^2)/2", 2)


def offset_disk(radius=1.0, center=(2.0, 0.0)):
    cx, cy = center
    return region(
        2,
        [(cx - radius, cx + radius), (cy - radius, cy + radius)],
        [f"(x1 - {cx!r})^2 + (x2 - {cy!r})^2 - {radius * radius!r}"],
    )


def random_separable_weight(rng):
    """Quadratic-plus-linear weight with no mixed second derivatives."""
    a1, a2, b1, b2 = (float(v) for v in rng.uniform(-2.0, 2.0, size=4))
    text = f"{a1!r}*x1^2/2 + {b1!r}*x1 + {a2!r}*x2^2/2 + {b2!r}*x2"
    return weight_function(text, 2)


def random_coupled_weight(rng):
    """Quadratic weight with a mixed term; only the half-sum identity holds."""
    a1, a2, c, b1 = (float(v) for v in rng.uniform(-2.0, 2.0, size=4))
    text = f"{a1!r}*x1^2/2 + {a2!r}*x2^2/2 + {c!r}*x1*x2 + {b1!r}*x1"
    return weight_function(text, 2)


def rel_frobenius(x, y):
    denom = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
    return np.linalg.norm(x - y) / denom


def as_full(entries):
    """The upper-triangle entries of the diagonal field ``entries`` as a full
    field, so the matrix-product assembly sees the same coefficients."""
    n = len(entries)
    return [entries[i] if i == j else "0" for i in range(n) for j in range(i, n)]


DIAGONAL_2D = build(["exp(x1 + x2)", "2 + x1*x2^2"], diagonal=True)
FULL_3D = build(
    ["2 + 0.3*sin(x1*x2)", "0.1*cos(x2)", "0.05*x3", "2 + x2^2", "0.1*sin(x1*x3)", "1.5 + x1^2"],
    diagonal=False,
)
DIAGONAL_1D = build(["2 + x1^2"], diagonal=True)
EXP_2D = construct_weight(axis=1, sign_case="positive", shift=5.0, lam=1.7, dim=2)
EXP_1D = construct_weight(axis=1, sign_case="negative", shift=2.0, lam=1.3, dim=1)
COUPLED_3D = weight_function("(x1^2 + x2^2 + x3^2)/2 + x1*x3/4", 3)
POINTS = {
    1: np.array([[0.3], [1.1], [-0.7]]),
    2: np.array([[1.2, -0.4], [2.5, 0.3], [2.0, 0.9]]),
    3: np.array([[1.2, -0.4, 0.5], [2.5, 0.3, -0.9], [2.0, 0.9, 0.1]]),
}
# each assembly helper at a point (n,) or a batch (m, n), with the field
# dimension n
HELPERS = [
    pytest.param(
        lambda p: multiplier_matrix(isotropic_exp_field(), quadratic_weight(), p),
        2,
        id="multiplier-diag2",
    ),
    pytest.param(lambda p: multiplier_matrix(DIAGONAL_2D, EXP_2D, p), 2, id="multiplier-exp2"),
    pytest.param(lambda p: multiplier_matrix(FULL_3D, COUPLED_3D, p), 3, id="multiplier-full3"),
    pytest.param(lambda p: quadratic_form_matrix(DIAGONAL_2D, EXP_2D, p), 2, id="form-diag2"),
    pytest.param(lambda p: quadratic_form_matrix(FULL_3D, COUPLED_3D, p), 3, id="form-full3"),
    pytest.param(
        lambda p: multiplier_matrix_diagonal(DIAGONAL_2D, EXP_2D, p), 2, id="diagonal-diag2"
    ),
    pytest.param(
        lambda p: scaled_multiplier_matrix(DIAGONAL_2D, EXP_2D, 1, "positive", p),
        2,
        id="scaled-diag2",
    ),
    pytest.param(lambda p: limit_matrix(DIAGONAL_2D, 2, "negative", p), 2, id="limit-diag2"),
    pytest.param(lambda p: limit_matrix(DIAGONAL_1D, 1, "positive", p), 1, id="limit-diag1"),
    pytest.param(lambda p: derivative_ratio_maxima(EXP_2D, 1, p), 2, id="ratios-2d"),
    pytest.param(lambda p: derivative_ratio_maxima(EXP_1D, 1, p), 1, id="ratios-1d"),
]


class TestMultiplierMatrix:
    def test_identity_field_gives_weight_hessian(self):
        b = multiplier_matrix(identity_field(), quadratic_weight(), (0.7, -0.4))
        assert np.allclose(b, np.eye(2), atol=1e-14)

    def test_constant_diagonal_field(self):
        f = build(["2", "3"], diagonal=True)
        b = multiplier_matrix(f, quadratic_weight(), (0.7, -0.4))
        assert np.allclose(b, np.diag([4.0, 9.0]), atol=1e-13)

    def test_dual_paths_agree_on_example_field(self):
        f = example_bad_field()
        w = quadratic_weight()
        general = multiplier_matrix(f, w, (1.0, 1.0))
        diagonal = multiplier_matrix_diagonal(f, w, (1.0, 1.0))
        assert rel_frobenius(general, diagonal) < 1e-10
        full = build(as_full(["1 + x1^2 + x2^2"] * 2), diagonal=False)
        assert rel_frobenius(general, multiplier_matrix(full, w, (1.0, 1.0))) < 1e-10

    def test_diagonal_path_requires_diagonal(self):
        f = build(["2", "x1", "3"], diagonal=False)
        with pytest.raises(ValueError, match="requires a diagonal"):
            multiplier_matrix_diagonal(f, quadratic_weight(), (1.0, 1.0))

    def test_hand_expanded_entries(self):
        # field 1 + |x|^2 at (1, 0) with weight d = x1: the only nonzero
        # weight derivative is d_x1 = 1, so the four entries reduce to
        # a*da/dx1 - (1/2)*a*da/dx1 = 2 on the first diagonal,
        # -(1/2)*a*da/dx1 = -2 on the second, and zero off the diagonal
        f = example_bad_field()
        w = weight_function("x1", 2)
        b = multiplier_matrix_diagonal(f, w, (1.0, 0.0))
        assert np.allclose(b, np.diag([2.0, -2.0]), atol=1e-13)
        assert rel_frobenius(b, multiplier_matrix(f, w, (1.0, 0.0))) < 1e-10

    def test_diagonal_path_matches_general_for_exponential_weight(self):
        f = isotropic_exp_field()
        w = construct_weight(axis=1, sign_case="positive", shift=5.0, lam=1.7, dim=2)
        pt = (0.0, 0.0)
        general = multiplier_matrix(f, w, pt)
        assert rel_frobenius(general, multiplier_matrix_diagonal(f, w, pt)) < 1e-10
        full = build(as_full(["exp(x1 + x2)"] * 2), diagonal=False)
        assert rel_frobenius(general, multiplier_matrix(full, w, pt)) < 1e-10

    @pytest.mark.parametrize("helper, n", HELPERS)
    def test_batched_equals_pointwise(self, helper, n):
        # a point is a batch of one: each batch row is the single-point
        # result bit for bit, in every layout of the batch
        pts = POINTS[n]
        singles = [helper(row) for row in pts]
        for layout in LAYOUTS.values():
            batch = helper(layout(pts))
            if isinstance(batch, tuple):  # grid maxima of the derivative ratios
                assert batch == tuple(max(values) for values in zip(*singles))
                continue
            assert batch.shape == (len(pts), n, n)
            for single, mat in zip(singles, batch):
                assert single.shape == (n, n) and _bitwise_equal(single, mat)

    def test_presymmetrization_asymmetry_small(self):
        # the assembly before its final averaging is term_h + (t_a + t_a^T - t_c) / 2,
        # and t_a + t_a^T is exactly symmetric
        f = build(["2 + x1^2", "x1*x2/4", "3 + x2^2"], diagonal=False)
        w = random_coupled_weight(np.random.default_rng(0))
        pts = np.array([[0.8, -0.6]])
        factors = _factors(f.values(pts), f.partial_values(pts), False)
        term_h, _, t_c = _terms(factors, *w.derivatives(pts), False)
        for term in (term_h, t_c):
            assert np.max(np.abs(term - np.swapaxes(term, -1, -2))) < 1e-12


class TestQuadraticFormMatrix:
    def test_identity_field(self):
        m = quadratic_form_matrix(identity_field(), quadratic_weight(), (0.3, 0.4))
        assert np.allclose(m, 2.0 * np.eye(2), atol=1e-14)

    def test_constant_field_diagonal_formula(self):
        f = build(["2", "3"], diagonal=True)
        m = quadratic_form_matrix(f, quadratic_weight(), (0.3, 0.4))
        assert np.allclose(m, 2.0 * np.diag([4.0, 9.0]), atol=1e-13)

    def test_half_sum_identity_random_diagonal(self):
        rng = np.random.default_rng(11)
        f = example_bad_field()
        for _ in range(20):
            w = random_coupled_weight(rng)
            pt = rng.uniform(-1.0, 1.0, size=2)
            m = quadratic_form_matrix(f, w, pt)
            b = multiplier_matrix(f, w, pt)
            assert rel_frobenius(0.5 * (m + m.T), 2.0 * b) < 1e-10


class TestQuadraticFormOracle:
    def test_matches_finite_difference_definition(self):
        # independent oracle: entry (i, j) sums 2 a^{iq} (a^{pj} d_{x_p})_{x_q}
        # minus da^{ij}/dx_q a^{pq} d_{x_p}, with the inner derivative taken
        # by central differences of the evaluated product instead of the
        # symbolic product-rule expansion the implementation uses
        from wavecert.expr import evaluate

        field = build(["2 + x1^2", "x1*x2/4", "3 + x2^2"], diagonal=False)
        rng = np.random.default_rng(99)
        step = 1e-6

        def product_value(p_idx, j_idx, w, x):
            a_val = evaluate(field.entries[p_idx - 1][j_idx - 1], x)
            g_val = evaluate(w.grad[p_idx - 1], x)
            return a_val * g_val

        for _ in range(5):
            w = random_coupled_weight(rng)
            pt = rng.uniform(-1.0, 1.0, size=2)
            n = field.dim
            oracle = np.zeros((n, n))
            a_at = field.values(pt)
            da_at = field.partial_values(pt)
            grad_at = w.derivatives(pt)[0]
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    total = 0.0
                    for p in range(1, n + 1):
                        for q in range(1, n + 1):
                            hi = pt.copy()
                            lo = pt.copy()
                            hi[q - 1] += step
                            lo[q - 1] -= step
                            fd = (
                                product_value(p, j, w, hi)
                                - product_value(p, j, w, lo)
                            ) / (2 * step)
                            total += 2.0 * a_at[i - 1, q - 1] * fd
                            total -= (
                                da_at[i - 1, j - 1, q - 1]
                                * a_at[p - 1, q - 1]
                                * grad_at[p - 1]
                            )
                    oracle[i - 1, j - 1] = total
            m = quadratic_form_matrix(field, w, pt)
            assert np.allclose(m, oracle, rtol=1e-6, atol=1e-6)


class TestIdentities:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_half_sum_and_diagonal_identities(self, name):
        # the bundled problem's field on its box, and the same field stated
        # in full, which takes the matrix-product assembly
        rng = np.random.default_rng(2024)
        cfg = RunConfig.from_text(config_text(name))
        f, consts = cfg.build_field(), cfg.constants
        full = build(as_full(cfg.entries), diagonal=False)
        lows = np.array([b[0] for b in cfg.box])
        highs = np.array([b[1] for b in cfg.box])
        pts = rng.uniform(lows, highs, size=(100, 2))
        for k in range(pts.shape[0]):
            pt = pts[k]
            if k % 2 == 0:
                w = random_separable_weight(rng)
            else:
                lam = rng.uniform(0.5, 3.0)
                shift = rng.uniform(4.0, 7.0)
                case = "positive" if k % 4 == 1 else "negative"
                w = construct_weight(1, case, shift, lam, 2)
            m = quadratic_form_matrix(f, w, pt, consts)
            b = multiplier_matrix(f, w, pt, consts)
            assert rel_frobenius(0.5 * (m + m.T), 2.0 * b) < 1e-10
            bd = multiplier_matrix_diagonal(f, w, pt, consts)
            assert rel_frobenius(bd, b) < 1e-10
            assert rel_frobenius(multiplier_matrix(full, w, pt, consts), b) < 1e-10

    def test_half_sum_identity_general_field(self):
        rng = np.random.default_rng(55)
        f = build(["2 + x1^2", "x1*x2/4", "3 + x2^2"], diagonal=False)
        for _ in range(25):
            w = random_coupled_weight(rng)
            pt = rng.uniform(-1.0, 1.0, size=2)
            m = quadratic_form_matrix(f, w, pt)
            b = multiplier_matrix(f, w, pt)
            assert rel_frobenius(0.5 * (m + m.T), 2.0 * b) < 1e-10


class TestCheckCondition:
    def test_classical_multiplier_on_offset_disk(self):
        report = GridProblem(identity_field(), sample(offset_disk(), 33)).check(quadratic_weight())
        assert report.certified
        assert report.margin == pytest.approx(2.0, abs=1e-12)
        assert report.grad_min >= 1.0 - 1e-9

    def test_constant_diagonal_margin(self):
        report = GridProblem(build(["2", "3"], diagonal=True), sample(offset_disk(), 17)).check(
            quadratic_weight()
        )
        assert report.certified
        assert report.margin == pytest.approx(4.0, abs=1e-12)

    def test_gradient_failure_at_origin(self):
        r = region(2, [(-1.0, 1.0), (-1.0, 1.0)], ["x1^2 + x2^2 - 1"])
        report = GridProblem(identity_field(), sample(r, 33)).check(quadratic_weight())
        assert report.verdict == "failed_gradient"
        assert report.grad_min == 0.0
        assert np.allclose(report.worst_point_grad, (0.0, 0.0))

    def test_coefficient_failure_short_circuits(self):
        f = build(["x1", "1"], diagonal=True)
        r = region(2, [(-1.0, 1.0), (-1.0, 1.0)])
        report = GridProblem(f, sample(r, 9)).check(quadratic_weight())
        assert report.verdict == "failed_coefficient"
        assert report.alpha_min <= 0.0
        assert report.margin is None

    def test_positivity_failure_verdict(self):
        # weight with negative Hessian cannot certify the identity field
        w = weight_function("-(x1^2 + x2^2)/2 + 10*x1", 2)
        report = GridProblem(identity_field(), sample(offset_disk(), 9)).check(w)
        assert report.verdict == "failed_positivity"
        assert report.margin < 0.0

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_pencil_margin_scales_exactly_with_weight(self, scale):
        problem = GridProblem(isotropic_exp_field(), sample(offset_disk(), 9))
        base = problem.check(quadratic_weight())
        scaled = problem.check(weight_function(f"{scale!r}*((x1^2 + x2^2)/2)", 2))
        assert scaled.margin == pytest.approx(scale * base.margin, rel=1e-12)

    def test_radial_field_quadratic_weight_regression(self):
        # regression snapshot: the 1 + |x|^2 field with the radial weight on
        # the disk of radius sqrt(2) is not certifiable, and the binding
        # failure is the vanishing gradient at the grid's origin (the matrix
        # inequality itself holds: det(2B) = 2a^2(1 + 2|x|^2) > 0 here)
        r = region(2, [(-SQRT2, SQRT2)] * 2, ["x1^2 + x2^2 - 2"])
        report = GridProblem(example_bad_field(), sample(r, 33)).check(quadratic_weight())
        assert report.verdict == "failed_gradient"
        assert report.margin > 0.0
        assert report.grad_min == 0.0

    def test_sylvester_cross_check(self):
        # sign of leading principal minors must agree with the eigenvalue
        # verdict pointwise
        from wavecert.linalg import leading_principal_minors, min_eigenvalue

        f = isotropic_exp_field()
        w = construct_weight(axis=1, sign_case="positive", shift=5.0, lam=3.0, dim=2)
        grid = sample(offset_disk(), 17)
        mats = multiplier_matrix(f, w, grid.points)
        eig_pd = min_eigenvalue(mats) > 0.0
        minors_pd = np.all(leading_principal_minors(mats) > 0.0, axis=1)
        assert eig_pd.shape == minors_pd.shape == (grid.points.shape[0],)
        assert np.array_equal(eig_pd, minors_pd)

    def test_dump_grid_columns(self, tmp_path):
        path = tmp_path / "grid.csv"
        GridProblem(identity_field(), sample(offset_disk(), 5)).check(quadratic_weight(), path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,eig_min_pencil,eig_min_matrix,grad_norm,minor1,minor2"


def _einsum_terms(a, da, grad, hess):
    """The assembly's sums written as einsum formulas, for comparison."""
    return (
        np.einsum("miq,mpj,mpq->mij", a, a, hess),
        np.einsum("miq,mpjq,mp->mij", a, da, grad),
        np.einsum("mjq,mpiq,mp->mij", a, da, grad),
        np.einsum("mijq,mpq,mp->mij", da, a, grad),
    )


class TestAssemblyOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 7, 797])
    def test_matches_einsum_formulas(self, n, m):
        # full stacks through the matrix products, and their diagonal
        # pattern (A and its partials zero off the diagonal) through both
        # the matrix products and the elementwise diagonal assembly
        rng = np.random.default_rng(100 * n + m)
        a = rng.standard_normal((m, n, n))
        a = a + np.swapaxes(a, 1, 2)
        da = rng.standard_normal((m, n, n, n))
        da = da + np.swapaxes(da, 1, 2)
        grad = rng.standard_normal((m, n)) * np.exp(rng.uniform(-5.0, 5.0, (m, 1)))
        hess = rng.standard_normal((m, n, n))
        hess = hess + np.swapaxes(hess, 1, 2)
        eye = np.eye(n)
        pattern = (a * eye, da * eye[:, :, None], grad, hess)
        eps = np.finfo(float).eps
        for args, diagonal in (
            ((a, da, grad, hess), False),
            (pattern, False),
            (pattern, True),
        ):
            ref_h, ref_a, ref_b, ref_c = _einsum_terms(*args)
            mag_h, mag_a, mag_b, mag_c = _einsum_terms(*map(np.abs, args))
            operands = (_factors(*args[:2], diagonal), *args[2:])
            term_h, t_a, t_c = _terms(*operands, diagonal)
            for got, ref, mag in (
                (term_h, ref_h, mag_h),
                (t_a, ref_a, mag_a),
                (np.swapaxes(t_a, 1, 2), ref_b, mag_b),
                (t_c, ref_c, mag_c),
            ):
                assert np.all(np.abs(got - ref) <= 4 * eps * mag)
            want = ref_h + 0.5 * (ref_a + ref_b - ref_c)
            want = 0.5 * (want + np.swapaxes(want, 1, 2))
            bound = 8 * eps * (mag_h + 0.5 * (mag_a + mag_b + mag_c))
            assert np.all(np.abs(_multiplier(*operands, diagonal) - want) <= bound)


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagonal_branch_is_the_full_sums_bit_for_bit(self, n):
        # the (p, q) sums as running totals from zero, each product left to
        # right, on diagonal-pattern stacks with signed zeros among the factors
        rng = np.random.default_rng(n)
        m = 200

        def factor(shape):
            signs = rng.choice([1.0, 0.0, -0.0], shape, p=[0.8, 0.1, 0.1])
            return rng.standard_normal(shape) * signs

        eye = np.eye(n)
        a = (rng.uniform(0.5, 2.0, (m, n, n)) + eye) * eye
        da = factor((m, n, n, n)) * eye[:, :, None]
        grad = factor((m, n))
        hess = factor((m, n, n))
        hess = hess + np.swapaxes(hess, 1, 2)
        sums = [np.zeros((m, n, n)) for _ in range(3)]
        for p in range(n):
            for q in range(n):
                sums[0] += (a[:, :, q, None] * a[:, None, p, :]) * hess[:, p, q, None, None]
                sums[1] += (a[:, :, q, None] * da[:, None, p, :, q]) * grad[:, p, None, None]
                sums[2] += (da[..., q] * a[:, p, q, None, None]) * grad[:, p, None, None]
        for got, want in zip(_terms(_factors(a, da, True), grad, hess, True), sums):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _inline_diagonal_terms(a, da, grad, hess):
    """The diagonal assembly written inline, with no factors kept per grid:
    the reference the factor split must match bit for bit."""
    n = grad.shape[-1]
    ad = np.diagonal(a, axis1=-2, axis2=-1)  # a_i
    dd = np.diagonal(da, axis1=-3, axis2=-2)  # [q, i]: da_i/dx_q
    term_h = 0.0 + (ad[..., :, None] * ad[..., None, :]) * np.swapaxes(hess, -1, -2)
    t_a = 0.0 + (ad[..., :, None] * dd) * grad[..., None, :]
    t_c = np.zeros(term_h.shape)
    for q in range(n):
        t_c[..., range(n), range(n)] += (dd[..., q, :] * ad[..., q, None]) * grad[..., q, None]
    return term_h, t_a, t_c


def _inline_full_terms(a, da, grad, hess):
    """The full assembly at one point, entry by entry in Python floats, each
    sum over k in index order from zero: ``A H A`` as ``(A H) A``, ``A M``
    and ``t_c``; the reference the full branch must match bit for bit."""
    a, da, g, h = a.tolist(), da.tolist(), grad.tolist(), hess.tolist()
    n = len(g)

    def product(x, y):
        out = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i][j] += x[i][k] * y[k][j]
        return out

    m_qj = [[0.0] * n for _ in range(n)]  # M[q][j] = sum_p g_p da[p][j][q]
    for q in range(n):
        for j in range(n):
            for p in range(n):
                m_qj[q][j] += g[p] * da[p][j][q]
    ag = [0.0] * n
    for q in range(n):
        for p in range(n):
            ag[q] += a[q][p] * g[p]
    t_c = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for q in range(n):
                t_c[i][j] += da[i][j][q] * ag[q]
    return tuple(np.array(t) for t in (product(product(a, h), a), product(a, m_qj), t_c))


def _inline_multiplier(term_h, t_a, t_c):
    out = t_a + np.swapaxes(t_a, -1, -2)
    out -= t_c
    out *= 0.5
    out += term_h
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _bitwise_equal(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


class TestFactorSplit:
    """The per-grid factors times the weight's derivatives are the inline
    diagonal assembly bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factor_assembly_is_the_inline_assembly_bit_for_bit(self, n):
        rng = np.random.default_rng(70 + n)
        m = 600

        def spread(shape, zeros=0.1):
            # signed zeros, and magnitudes near e^-300, 1 and e^300, so
            # some rows overflow and some underflow
            p = [0.5 - zeros / 2] * 2 + [zeros / 2] * 2
            signs = rng.choice([1.0, -1.0, 0.0, -0.0], shape, p=p)
            scale = rng.choice([-300.0, 0.0, 300.0], shape, p=[0.15, 0.7, 0.15])
            return signs * np.exp(scale + rng.uniform(-1.0, 1.0, shape))

        eye = np.eye(n)
        a = np.abs(spread((m, n, n), zeros=0.0)) * eye
        da = spread((m, n, n, n), zeros=0.3) * eye[:, :, None]
        da[: m // 10] *= 0.0  # rows whose partials all vanish, with their signs
        grad, hess = spread((m, n)), spread((m, n, n))
        with np.errstate(all="ignore"):
            want = _inline_diagonal_terms(a, da, grad, hess)
            want_mult = _inline_multiplier(*want)
            points = [
                _multiplier(_factors(a[k], da[k], True), grad[k], hess[k], True)
                for k in range(0, m, 37)
            ]
        # t_c is laid out as the assembly's other terms, and its diagonal is
        # written in every layout of the factors and the derivatives
        for layout, derivatives in itertools.product(LAYOUTS.values(), repeat=2):
            d = (derivatives(grad), derivatives(hess))
            with np.errstate(all="ignore"):
                factors = [layout(f) for f in _factors(layout(a), layout(da), True)]
                got = _terms(factors, *d, True)
                mult = _multiplier(factors, *d, True)
            for g, w in zip(got, want):
                assert _bitwise_equal(g, w)
            assert _bitwise_equal(mult, want_mult)
        overflowed = ~np.isfinite(mult).all(axis=(1, 2))
        assert 0 < overflowed.sum() < m  # the data reach past double range in some rows
        # a point (n,) is that row of a batch
        for k, single in zip(range(0, m, 37), points):
            assert single.shape == (n, n) and _bitwise_equal(single, mult[k])

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_products_do_not_depend_on_the_layout(self, n):
        # each product is summed in index order by elementwise passes, so
        # neither the factors' layout nor the derivatives' moves a bit
        rng = np.random.default_rng(90 + n)
        m = 500

        def spread(shape):
            x = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
            x[rng.random(shape) < 0.1] = -0.0
            return x

        a, da, grad, hess = spread((m, n, n)), spread((m, n, n, n)), spread((m, n)), spread((m, n, n))
        want = _terms(_factors(a, da, False), grad, hess, False)
        want_mult = _multiplier(_factors(a, da, False), grad, hess, False)
        for layout in LAYOUTS.values():
            factors = _factors(layout(a), layout(da), False)
            for derivatives in LAYOUTS.values():
                d = (derivatives(grad), derivatives(hess))
                for g, w in zip(_terms(factors, *d, False), want):
                    assert _bitwise_equal(g, w)
                assert _bitwise_equal(_multiplier(factors, *d, False), want_mult)

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_products_are_the_index_order_sums(self, n):
        # every entry of a full field's products is summed over k in index
        # order from zero, at a point and in a batch, in every layout
        rng = np.random.default_rng(110 + n)
        m = 300
        a, da = rng.standard_normal((m, n, n)), rng.standard_normal((m, n, n, n))
        grad, hess = rng.standard_normal((m, n)), rng.standard_normal((m, n, n))
        for x in (a, da, grad, hess):
            x *= np.exp(rng.uniform(-5.0, 5.0, x.shape))
            x[rng.random(x.shape) < 0.1] = -0.0
        rows = [_inline_full_terms(a[k], da[k], grad[k], hess[k]) for k in range(m)]
        want = tuple(np.stack(t) for t in zip(*rows))
        want_mult = _inline_multiplier(*want)
        for layout in LAYOUTS.values():
            d = (layout(grad), layout(hess))
            factors = _factors(layout(a), layout(da), False)
            for got, w in zip(_terms(factors, *d, False), want):
                assert _bitwise_equal(got, w)
            assert _bitwise_equal(_multiplier(factors, *d, False), want_mult)
        for k in range(0, m, 29):  # a point (n,) is that row of a batch
            point = _terms(_factors(a[k], da[k], False), grad[k], hess[k], False)
            for got, w in zip(point, rows[k]):
                assert got.shape == (n, n) and _bitwise_equal(got, w)

    def test_full_grid_problem_keeps_one_copy_of_a(self):
        ball = region(3, [(1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)], ["(x1 - 2)^2 + x2^2 + x3^2 - 1"])
        problem = GridProblem(FULL_3D, sample(ball, 7))
        assert problem.a.strides[0] == problem.a.itemsize  # as the tape gives it
        a, da = problem.factors  # the grid's own arrays, with no copy
        assert problem.a is a and problem.da is da

    def test_grid_problem_keeps_the_factors_of_its_grid(self):
        problem = GridProblem(isotropic_exp_field(), sample(offset_disk(), 17))
        first = problem.factors
        problem.check(quadratic_weight())
        assert problem.factors is first
        for got, want in zip(first, _factors(problem.a, problem.da, True)):
            assert np.array_equal(got, want)


def _grid_case(dim):
    """A field, a region and a weight that certifies on it: a diagonal 2-D
    field, or a full 3-D one."""
    if dim == 2:
        return isotropic_exp_field(), offset_disk(), EXP_2D
    box = [(1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)]
    reg = region(3, box, ["(x1 - 2)^2 + x2^2 + x3^2 - 1"])
    return FULL_3D, reg, weight_function("(x1^2 + x2^2 + x3^2)/2", 3)


class TestGridProblem:
    def test_a_reused_problem_checks_as_a_fresh_one(self, tmp_path):
        f = isotropic_exp_field()
        problem = GridProblem(f, sample(offset_disk(), 17))
        for lam in (1.0, 1.5, 3.0):
            w = construct_weight(axis=1, sign_case="positive", shift=5.0, lam=lam, dim=2)
            assert problem.check(w) == GridProblem(f, sample(offset_disk(), 17)).check(w)
        w = quadratic_weight()
        problem.check(w, dump_path=tmp_path / "a.csv")
        GridProblem(f, sample(offset_disk(), 17)).check(w, dump_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_grid_of_some_points_dumps_their_rows_of_the_full_grid(self, tmp_path, dim):
        # each row of a check depends on its point alone, so a grid of every
        # other point of a sampled grid dumps those rows, bit for bit
        field, reg, weight = _grid_case(dim)
        grid = sample(reg, 9)
        GridProblem(field, grid).check(weight, tmp_path / "full.csv")
        part = SampleGrid(reg, 9, grid.points[::2])
        report = GridProblem(field, part).check(weight, tmp_path / "part.csv")
        header, *rows = (tmp_path / "full.csv").read_text().splitlines()
        assert (tmp_path / "part.csv").read_text().splitlines() == [header, *rows[::2]]
        assert (report.resolution, report.point_count) == (9, len(rows[::2]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_dump_leaves_the_report_as_it_is(self, tmp_path, dim):
        # the report does not name its dump: the CLI decides which reports do
        field, reg, weight = _grid_case(dim)
        problem = GridProblem(field, sample(reg, 9))
        dumped = problem.check(weight, tmp_path / "grid.csv")
        assert dumped == problem.check(weight) and dumped.certified
        assert (tmp_path / "grid.csv").exists()

    def test_non_finite_multiplier_raises_at_first_point(self):
        f = build(["exp(x1^3 + x2^3)", "exp(x1^3 + x2^3)"], diagonal=True)
        disk = region(2, [(1.0, 3.0), (1.0, 3.0)], ["(x1 - 2)^2 + (x2 - 2)^2 - 1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="multiplier matrix is not finite") as err:
                GridProblem(f, sample(disk, 33)).check(weight_function("exp(230*x1)", 2))
        pts = sample(disk, 33).points
        with np.errstate(over="ignore", invalid="ignore"):
            mats = 2.0 * multiplier_matrix(f, weight_function("exp(230*x1)", 2), pts)
        first = int(np.argmin(np.isfinite(mats).all(axis=(1, 2))))
        assert err.value.point == tuple(pts[first])

    def test_whitening_follows_the_factor_shape(self, monkeypatch):
        linalg = {name: getattr(np.linalg, name) for name in ("solve", "cholesky", "inv")}
        counts = {}

        def counting(name):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return linalg[name](*args, **kwargs)

            return counted

        for name in linalg:
            monkeypatch.setattr(np.linalg, name, counting(name))
        # a diagonal field is whitened by 1 / sqrt(diag A), with no factorization
        diagonal = GridProblem(isotropic_exp_field(), sample(offset_disk(), 17))
        diagonal.check(quadratic_weight())
        assert diagonal.whitening.shape == (len(diagonal.grid), 2) and counts == {}
        chol = linalg["cholesky"](diagonal.a)
        assert np.array_equal(diagonal.whitening, 1.0 / np.diagonal(chol, axis1=1, axis2=2))
        # a full field is factored and inverted once per grid, not per check
        full = GridProblem(build(["2", "0.5", "3"], diagonal=False), sample(offset_disk(), 17))
        full.check(quadratic_weight())
        assert full.whitening.shape == (len(full.grid), 2, 2)
        assert counts == {"cholesky": 1, "inv": 1}
        full.check(weight_function("exp(x1)", 2))
        assert counts == {"cholesky": 1, "inv": 1}
        assert np.array_equal(full.whitening, linalg["inv"](linalg["cholesky"](full.a)))

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_reported_minima_are_first_minimizers(self, zeros, monkeypatch):
        # np.min chooses between 0.0 and -0.0 by its reduction order; a report
        # reads every minimum at its first minimizer in grid order.  LAPACK's
        # det gives no -0.0, so the minors here are the matrices' first rows.
        monkeypatch.setattr(condition, "leading_principal_minors", lambda m: m[..., 0, :].copy())
        problem = GridProblem(identity_field(), sample(region(2, [(-1.0, 1.0), (-1.0, 1.0)]), 3))
        m = len(problem.grid)
        mats = np.tile(np.eye(2), (m, 1, 1))
        mats[2, 0, 0], mats[m - 2, 0, 0] = zeros
        margins = _Margins(mats, None, np.ones(m), 1.0, 0, 0, "pass", 1.0)
        report = problem._report(margins)
        assert math.copysign(1.0, report.matrix_min_eig) == math.copysign(1.0, zeros[0])
        assert math.copysign(1.0, report.minors_min[0]) == math.copysign(1.0, zeros[0])

    def test_failed_coefficient_skips_partials_and_factor(self):
        f = build(["x1", "1"], diagonal=True)
        problem = GridProblem(f, sample(region(2, [(-1.0, 1.0), (-1.0, 1.0)]), 9))
        report = problem.check(quadratic_weight())
        assert report.verdict == "failed_coefficient"
        assert "da" not in vars(problem) and "whitening" not in vars(problem)
