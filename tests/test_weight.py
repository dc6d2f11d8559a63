import math
import re
import warnings

import numpy as np
import pytest

from wavecert.coeff import build
from wavecert.condition import GridProblem
from wavecert.domain import region, sample
from wavecert.errors import LambdaMaxExceededError, WeightOverflowError
from wavecert.expr import evaluate
from wavecert.linalg import leading_principal_minors
from wavecert.weight import (
    AdmissibleIndex,
    compute_shift,
    construct_weight,
    derivative_ratio_maxima,
    detect_index,
    find_lambda,
    limit_matrix,
    pick_index,
    scaled_multiplier_matrix,
    sign_margin,
    sign_ranges,
)

from test_coeff import LAYOUTS

SQRT2 = math.sqrt(2.0)


def isotropic_exp_field():
    return build(["exp(x1 + x2)", "exp(x1 + x2)"], diagonal=True)


def cubic_exp_field():
    return build(["exp(x1^3 + x2^3)", "exp(x1^3 + x2^3)"], diagonal=True)


def example_bad_field():
    return build(["1 + x1^2 + x2^2", "1 + x1^2 + x2^2"], diagonal=True)


def offset_disk():
    return region(2, [(1.0, 3.0), (-1.0, 1.0)], ["(x1 - 2)^2 + x2^2 - 1"])


def shifted_disk():
    return region(2, [(1.0, 3.0), (1.0, 3.0)], ["(x1 - 2)^2 + (x2 - 2)^2 - 1"])


def origin_disk():
    return region(2, [(-SQRT2, SQRT2)] * 2, ["x1^2 + x2^2 - 2"])


def search(problem, axis=None, sign_case=None, **options):
    """``find_lambda`` on ``problem`` for the pair that ``construct`` picks:
    ``axis`` is forced when given, and ``sign_case``, when given, is the
    case the pick must come to."""
    chosen = pick_index(sign_ranges(problem.da), problem.field.dim, axis)
    assert sign_case in (None, chosen.sign_case)
    return find_lambda(problem, chosen, **options)


class TestIndexSignRanges:
    def test_isotropic_exponential_positive(self):
        grid = sample(offset_disk(), 17)
        ranges = sign_ranges(isotropic_exp_field().partial_values(grid.points))
        lo, hi = ranges[(1, 2)]  # da^22/dx1 = exp(x1 + x2)
        assert 0.0 < lo <= hi

    def test_example_field_straddles_zero(self):
        grid = sample(origin_disk(), 17)
        ranges = sign_ranges(example_bad_field().partial_values(grid.points))
        lo, hi = ranges[(2, 1)]  # da^11/dx2 = 2*x2
        assert lo < 0.0 < hi


    def test_signed_zero_ends_do_not_depend_on_the_layout(self):
        # da^11/dx2 is >= 0 with zeros of both signs; numpy's min picks one
        # by the stride it reads, so a zero end takes its sign by rule: -0.0
        # for a minimum whenever a -0.0 attains it, +0.0 for a maximum
        field = build(["exp(x1) + x1*(x1*x2 - x2^3/30)", "exp(-x1^2)"], diagonal=True)
        da = field.partial_values(sample(region(2, [(0.0, 2.0), (-1.0, 1.0)]), 5).points)
        values = da[:, 0, 0, 1]
        assert np.min(values) == 0.0 and len(set(np.signbit(values[values == 0.0]))) == 2
        want = sign_ranges(np.ascontiguousarray(da))
        assert np.signbit(want[(2, 1)][0])
        for layout in LAYOUTS.values():
            got = sign_ranges(layout(da))
            assert got == want
            assert [np.signbit(v) for r in got.values() for v in r] == [
                np.signbit(v) for r in want.values() for v in r
            ]

    @pytest.mark.parametrize(
        "values,signs",
        [
            ([-1.0, -0.0, 0.0, -2.0], (True, False)),  # max: +0.0 attains it
            ([-0.0, -1.0, -0.0], (True, True)),  # max: only -0.0 attains it
            ([0.0, 1.0, -0.0, 0.0], (True, False)),  # min: -0.0 attains it
            ([0.0, 1.0], (False, False)),  # min: only +0.0 attains it
        ],
    )
    def test_signed_zero_ends_follow_the_rule(self, values, signs):
        da = np.ones((9 * len(values), 2, 2, 2))  # long enough for numpy's SIMD loops
        da[:, 0, 0, 1] = np.tile(values, 9)
        for layout in LAYOUTS.values():
            lo, hi = sign_ranges(layout(da))[(2, 1)]
            assert (lo, hi) == (min(values), max(values))
            assert (np.signbit(lo), np.signbit(hi)) == signs


class TestDetectIndex:
    def test_isotropic_exponential_both_axes(self):
        grid = sample(offset_disk(), 17)
        found = detect_index(GridProblem(isotropic_exp_field(), grid))
        assert [(c.axis, c.sign_case) for c in found] == [
            (1, "positive"),
            (2, "positive"),
        ]
        assert all(c.sign_margin > 0 for c in found)

    def test_example_field_inadmissible(self):
        grid = sample(origin_disk(), 33)
        assert detect_index(GridProblem(example_bad_field(), grid)) == []

    def test_one_dimensional_vacuous(self):
        f = build(["1 + x1^2"], diagonal=True)
        grid = sample(region(1, [(0.0, 1.0)]), 5)
        found = detect_index(GridProblem(f, grid))
        assert [(c.axis, c.sign_case) for c in found] == [
            (1, "negative"),
            (1, "positive"),
        ]
        assert all(math.isinf(c.sign_margin) for c in found)

    @pytest.mark.parametrize(
        "ranges,dim,force_axis,want",
        [
            # unforced: the largest margin, the first on a tie, None if none is admissible
            ({(1, 2): (1.0, 2.0), (2, 1): (1.0, 3.0)}, 2, None, (1, "positive", 1.0)),
            ({(1, 2): (0.5, 2.0), (2, 1): (-3.0, -1.5)}, 2, None, (2, "negative", 1.5)),
            ({(1, 2): (-1.0, 1.0), (2, 1): (-2.0, 2.0)}, 2, None, None),
            # forced, admissible: that pair as is, though another axis is larger
            ({(1, 2): (0.5, 2.0), (2, 1): (-3.0, -1.5)}, 2, 1, (1, "positive", 0.5)),
            # forced, inadmissible: the larger measured margin, positive on a tie
            ({(1, 2): (-1.0, 2.0), (2, 1): (1.0, 3.0)}, 2, 1, (1, "positive", -1.0)),
            ({(1, 2): (-2.0, 1.0), (2, 1): (1.0, 3.0)}, 2, 1, (1, "negative", -1.0)),
            ({(1, 2): (-1.0, 1.0), (2, 1): (1.0, 3.0)}, 2, 1, (1, "positive", -1.0)),
            # one dimension: both cases admissible, negative picked
            ({}, 1, None, (1, "negative", math.inf)),
            ({}, 1, 1, (1, "negative", math.inf)),
        ],
        ids=[
            "unforced-tie", "unforced-largest", "unforced-none", "forced-admissible",
            "forced-positive-larger", "forced-negative-larger", "forced-tie",
            "one-dimensional", "one-dimensional-forced",
        ],
    )
    def test_pick_index_rule(self, ranges, dim, force_axis, want):
        got = pick_index(ranges, dim, force_axis)
        assert got == (None if want is None else AdmissibleIndex(*want))

    def test_pick_index_rejects_an_axis_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pick_index({(1, 2): (1.0, 2.0), (2, 1): (1.0, 3.0)}, 2, 3)

    def test_requires_diagonal(self):
        f = build(["2", "x1", "3"], diagonal=False)
        grid = sample(origin_disk(), 5)
        with pytest.raises(ValueError, match="requires a diagonal"):
            detect_index(GridProblem(f, grid))


class TestComputeShift:
    def test_unit_square_negative_case(self):
        grid = sample(region(2, [(0.0, 1.0), (0.0, 1.0)]), 9)
        assert compute_shift(grid, 1, "negative") == pytest.approx(2.0)

    def test_unit_square_positive_case(self):
        grid = sample(region(2, [(0.0, 1.0), (0.0, 1.0)]), 9)
        assert compute_shift(grid, 1, "positive") == pytest.approx(3.0)

    def test_many_axes_are_summed_as_rows(self):
        # each row is summed in index order, as numpy sums fewer than 8
        # terms; from 8 on it sums a contiguous row pairwise
        rng = np.random.default_rng(9)
        for dim in (9, 10, 11) * 10:
            box = [(-rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)) for _ in range(dim)]
            grid = sample(region(dim, box), 2)
            sums = 0.0
            for k in range(1, dim):
                sums = sums + np.abs(grid.points[:, k])
            want = 1.0 + float(np.max(sums)) - float(np.min(grid.points[:, 0]))
            assert compute_shift(grid, 1, "negative") == want

    def test_one_dimensional_empty_sum(self):
        grid = sample(region(1, [(0.0, 1.0)]), 9)
        assert compute_shift(grid, 1, "negative") == pytest.approx(1.0)
        assert compute_shift(grid, 1, "positive") == pytest.approx(2.0)


class TestConstructWeight:
    def test_negative_case_formula(self):
        w = construct_weight(axis=1, sign_case="negative", shift=2.0, lam=1.0, dim=2)
        x = (0.3, -0.8)
        expected = math.exp(2.0 + x[0]) + math.exp(x[1])
        assert evaluate(w.expression, x) == pytest.approx(expected, rel=1e-15)

    def test_positive_case_formula(self):
        w = construct_weight(axis=1, sign_case="positive", shift=3.0, lam=1.0, dim=2)
        x = (0.3, -0.8)
        expected = math.exp(-(x[0] - 3.0)) + math.exp(-x[1])
        assert evaluate(w.expression, x) == pytest.approx(expected, rel=1e-15)

    def test_negative_case_derivative_signs(self):
        w = construct_weight(axis=2, sign_case="negative", shift=4.0, lam=2.5, dim=3)
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(20, 3))
        grads, hess = w.derivatives(pts)
        assert np.all(grads > 0.0)
        for i in range(3):
            assert np.all(hess[:, i, i] > 0.0)

    def test_positive_case_derivative_signs(self):
        w = construct_weight(axis=2, sign_case="positive", shift=4.0, lam=2.5, dim=3)
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(20, 3))
        grads, hess = w.derivatives(pts)
        assert np.all(grads < 0.0)
        for i in range(3):
            assert np.all(hess[:, i, i] > 0.0)

    def test_mixed_second_derivatives_vanish(self):
        w = construct_weight(axis=1, sign_case="negative", shift=2.0, lam=3.0, dim=2)
        assert w.hess[0][1].value == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            construct_weight(1, "negative", 2.0, 0.0, 2)
        with pytest.raises(ValueError):
            construct_weight(3, "negative", 2.0, 1.0, 2)
        with pytest.raises(ValueError):
            construct_weight(1, "sideways", 2.0, 1.0, 2)


class TestFindLambda:
    def test_isotropic_certificate(self):
        cert = search(GridProblem(isotropic_exp_field(), sample(offset_disk(), 33)), 1, "positive")
        assert cert.report.certified
        assert cert.report.margin > 0.0
        assert cert.lam <= 1024.0
        assert cert.shift == pytest.approx(5.0)
        assert cert.sign_margin > 0.0
        # near-minimal: the true threshold for this instance is exactly 1
        assert 1.0 < cert.lam <= 2.0
        assert cert.refinement_report.certified  # threshold is grid independent here

    def test_cubic_certificate(self):
        cert = search(GridProblem(cubic_exp_field(), sample(shifted_disk(), 33)), 1, "positive")
        assert cert.report.certified
        assert cert.lam <= 2**20
        # the near-minimal rate certifies its own grid; whether it still
        # certifies the doubled grid is recorded, not hidden
        assert cert.refinement_report is not None
        print(
            f"cubic refinement at resolution {cert.refinement_report.resolution}: "
            f"{cert.refinement_report.verdict} (margin {cert.refinement_report.margin:.3e})"
        )

    def test_lambda_independent_work_runs_once_per_grid(self, monkeypatch):
        import wavecert.condition as condition
        import wavecert.weight as weight
        from wavecert.coeff import CoefficientField

        counts = dict.fromkeys(("sample", "values", "partial_values", "cholesky", "_factors"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(weight, "sample", counted("sample", weight.sample))
        monkeypatch.setattr(condition, "_factors", counted("_factors", condition._factors))
        for name in ("values", "partial_values"):
            monkeypatch.setattr(
                CoefficientField, name, counted(name, getattr(CoefficientField, name))
            )
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        cert = search(GridProblem(cubic_exp_field(), sample(shifted_disk(), 17)), 1, "positive")
        assert cert.report.certified
        # the search grid and the refinement grid, whatever the attempt count,
        # assembly factors included; the search samples only the refinement
        # grid, and the diagonal field is whitened without a factorization
        assert counts == {
            "sample": 1, "values": 2, "partial_values": 2, "cholesky": 0, "_factors": 2
        }

    def test_recheck_runs_on_the_given_problems_region(self):
        # the re-check refines the search grid's own region
        field, disk = cubic_exp_field(), shifted_disk()
        square = region(2, [(1.0, 3.0), (1.0, 3.0)])
        problem = GridProblem(field, sample(disk, 17))
        cert = search(problem, 1, "positive")
        assert cert.report.point_count == len(problem.grid)
        assert cert.refinement_report.resolution == 33
        assert cert.refinement_report.point_count == len(sample(disk, 33)) < len(sample(square, 33))

    def test_inadmissible_forced_axis_exhausts_budget(self):
        with pytest.raises(LambdaMaxExceededError, match="lambda_max exceeded") as err:
            search(
                GridProblem(example_bad_field(), sample(origin_disk(), 17)), 1, "positive", lambda_max=64
            )
        assert err.value.best_report is not None
        assert err.value.best_report.margin < 0.0

    def test_overflow_guard_with_large_budget(self):
        # without a budget cap the exponent range of this geometry leaves
        # double range near rate 256, and the search says so
        with pytest.raises(WeightOverflowError, match="translate the domain"):
            search(GridProblem(example_bad_field(), sample(origin_disk(), 17)), 1, "positive")

    def test_non_finite_multiplier_is_weight_overflow(self):
        # the exponentials stay below 1e300 at rate 64, but the Hessian
        # times A^2 does not stay below double range
        disk = region(2, [(3.0, 5.0), (3.0, 5.0)], ["(x1 - 4)^2 + (x2 - 4)^2 - 1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(WeightOverflowError, match="at lambda=64; translate") as err:
                search(GridProblem(cubic_exp_field(), sample(disk, 33)), 1, "positive")
        assert err.value.best_lambda is not None

    def test_one_dimensional_construction_certifies(self):
        f = build(["1 + x1^2"], diagonal=True)
        r = region(1, [(1.0, 2.0)])
        cert = search(GridProblem(f, sample(r, 33)), 1, "negative")
        assert cert.report.certified
        assert math.isinf(cert.sign_margin)


def _counting(monkeypatch, counts, owner, name):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestSearchWork:
    """A rate-search attempt runs only the work that depends on the rate."""

    @pytest.mark.parametrize("sign_case", ["negative", "positive"])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 3.0, 48.21875])
    def test_rate_constant_matches_literal_bit_for_bit(self, sign_case, lam):
        from wavecert.expr import Const
        from wavecert.weight import _RATE

        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 3))
        literal = construct_weight(2, sign_case, 4.0, lam, 3)
        named = construct_weight(2, sign_case, 4.0, Const(_RATE), 3)
        bound = {_RATE: lam}
        for got, want in zip(named.derivatives(pts, bound), literal.derivatives(pts)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "axis,margin", [(1, -2.842170943040401e-14), (2, -5.684341886080802e-14)]
    )
    def test_isotropic_rate_one_verdict_rests_on_the_assembly_order(self, axis, margin):
        # on the bundled isotropic-exp problem the rate-1 attempt fails by a
        # few ulps of its matrices; a reassociated diagonal assembly could
        # certify it instead and move the certified rate
        from wavecert.bundled import config_text
        from wavecert.cli import RunConfig

        cfg = RunConfig.from_text(config_text("isotropic-exp"))
        field, disk = cfg.build_field(), cfg.build_region()
        problem = GridProblem(field, sample(disk, cfg.options["resolution"]))
        shift = compute_shift(problem.grid, axis, "positive")
        weight = construct_weight(axis, "positive", shift, 1.0, 2)
        assert problem._margins(weight, None).margin == margin
        cert = search(problem, axis, "positive")
        assert cert.lam == 1.0009765625

    def test_attempts_neither_differentiate_nor_compile(self, monkeypatch):
        import wavecert.coeff as coeff
        import wavecert.condition as condition
        import wavecert.expr as expr

        counts, weight_counts = {}, {}
        for module in (expr, coeff, condition):
            for name in ("differentiate", "compile"):
                _counting(monkeypatch, counts, module, name)
        for name in ("differentiate", "compile"):  # the weight's, and only its
            _counting(monkeypatch, weight_counts, condition, name)
        deltas = []
        margins = GridProblem._margins

        def attempt(self, weight, consts, **screen):
            before = dict(counts)
            found = margins(self, weight, consts, **screen)
            grown = {k: v - before.get(k, 0) for k, v in counts.items()}
            deltas.append((self.grid.resolution, {k: d for k, d in grown.items() if d}))
            return found

        monkeypatch.setattr(GridProblem, "_margins", attempt)
        cert = search(GridProblem(cubic_exp_field(), sample(shifted_disk(), 17)), 1, "positive")
        assert cert.report.certified
        *attempts, (resolution, recheck) = deltas
        assert len(attempts) > 10 and all(r == 17 for r, _ in attempts)
        # the first attempt differentiates the search weight (2 gradient and 3
        # Hessian entries) and compiles its one derivative tape, A's partials
        # having been built before it; no later attempt compiles or
        # differentiates anything, nor does the re-check on the refined grid,
        # which runs the same tape
        assert attempts[0][1] == {"differentiate": 5, "compile": 1}
        assert all(delta == {} for _, delta in attempts[1:])
        assert resolution == 33 and recheck == {}
        assert weight_counts == {"differentiate": 5, "compile": 1}
        assert "grad" not in vars(cert.weight)  # the rendered weight is never differentiated

    def test_spectral_tests_run_once_for_certificate_and_once_for_refinement(
        self, monkeypatch
    ):
        import wavecert.condition as condition

        counts = {}
        for name in ("min_eigenvalue", "leading_principal_minors", "pencil_margins"):
            _counting(monkeypatch, counts, condition, name)
        cert = search(GridProblem(cubic_exp_field(), sample(shifted_disk(), 17)), 1, "positive")
        assert cert.report.certified and cert.refinement_report is not None
        attempts = counts["pencil_margins"] - 1  # one pencil per attempt, one the refinement's
        assert attempts > 10
        assert counts["min_eigenvalue"] == 2
        assert counts["leading_principal_minors"] == 2

    def test_attempts_whiten_by_one_reciprocal_per_grid(self, monkeypatch):
        import wavecert.condition as condition

        counts, operands = {}, []
        _counting(monkeypatch, counts, np.linalg, "solve")
        pencil_margins = condition.pencil_margins

        def recorded(m, w, *rest):
            operands.append(w)  # the whitening, as the attempt passes it
            return pencil_margins(m, w, *rest)

        monkeypatch.setattr(condition, "pencil_margins", recorded)
        problem = GridProblem(cubic_exp_field(), sample(shifted_disk(), 17))
        cert = search(problem, 1, "positive")
        assert cert.report.certified
        assert counts == {}
        # every attempt scales by the search grid's one reciprocal; the last
        # pencil is the refinement's, on its own grid
        *attempts, refinement = operands
        assert len(attempts) > 10
        assert all(r is problem.whitening for r in attempts)
        assert attempts[0].ndim == 2  # (m, n): W's diagonal
        assert refinement.shape[0] > attempts[0].shape[0]

    def test_cubic_exp_attempts_send_few_rows_to_lapack(self, monkeypatch):
        # the closed-form screen leaves LAPACK only the rows that can attain
        # each minimum, of a grid of several hundred
        from wavecert.bundled import config_text
        from wavecert.cli import RunConfig

        cfg = RunConfig.from_text(config_text("cubic-exp"))
        field, reg = cfg.build_field(), cfg.build_region()
        problem = GridProblem(field, sample(reg, cfg.options["resolution"]))
        rows, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
        cert = search(problem)
        assert cert.report.certified
        assert len(problem.grid) > 500
        assert len(rows) > 10 and max(rows) <= 4

    def test_best_failing_report_equals_a_full_check(self):
        from wavecert.bundled import config_text
        from wavecert.cli import RunConfig

        cfg = RunConfig.from_text(config_text("cubic-exp"), {"lambda_max": 8})
        field, reg = cfg.build_field(), cfg.build_region()
        resolution = cfg.options["resolution"]
        problem = GridProblem(field, sample(reg, resolution))
        chosen = pick_index(sign_ranges(problem.da), field.dim)
        shift = compute_shift(problem.grid, chosen.axis, chosen.sign_case)
        with pytest.raises(LambdaMaxExceededError, match="lambda_max exceeded") as err:
            find_lambda(problem, chosen, lambda_max=8)
        exc = err.value
        assert exc.best_lambda is not None
        weight = construct_weight(chosen.axis, chosen.sign_case, shift, exc.best_lambda, 2)
        full = GridProblem(field, sample(reg, resolution)).check(weight)
        assert not full.certified
        assert repr(exc.best_report) == repr(full)
        assert exc.best_report == full

    def test_field_not_definite_makes_no_attempt(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a search attempt ran")

        monkeypatch.setattr(GridProblem, "_margins", refuse)
        field = build(["x2 - 0.5", "x1 - 0.5"], diagonal=True)
        square = region(2, [(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(LambdaMaxExceededError, match="not positive definite") as err:
            search(GridProblem(field, sample(square, 17)), 1, "positive")
        assert err.value.best_lambda is None
        assert err.value.best_report.verdict == "failed_coefficient"
        assert err.value.best_report.alpha_min == -0.5

    @pytest.mark.parametrize("name,attempts", [("isotropic-exp", 3), ("cubic-exp", 13)])
    def test_bundled_searches_take_few_attempts(self, name, attempts, monkeypatch):
        # doubling then ten bisection rounds would make 12 and 17 attempts;
        # the steered walk ends on the same rate in fewer
        from wavecert.bundled import config_text

        rates, cert = search_rates(config_text(name), monkeypatch)
        assert len(rates) == attempts
        assert cert.lam == {"isotropic-exp": 1.0009765625, "cubic-exp": 48.53125}[name]
        if name == "isotropic-exp":  # rate 1 fails, 2 passes, the first lattice point passes
            assert rates == [1.0, 2.0, cert.lam]

    def test_kinked_steering_profile_search(self, monkeypatch):
        # steep on the failing side of the threshold and nearly flat on the
        # passing side: regula falsi creeps, and the safeguard's midpoints
        # keep the walk at 5 growth attempts plus 11 steps
        rates, cert = search_rates(KINKED, monkeypatch)
        assert len(rates) == 16 and cert.lam == 10.609375
        assert rates[:5] == [1.0, 2.0, 4.0, 8.0, 16.0]


KINKED = """
[problem]
A.diagonal = true
A.entries = ["1*exp(1.880*x1^3 + 0.260*x2^2)", "1*exp(0.941*x1^3 + 1.040*x2^1)"]
[region]
dim = 2
box = [[0.261, 1.939], [0.955, 2.633]]
constraints = ["(x1 - 1.1)^2 + (x2 - 1.794)^2 - 0.703921"]
[options]
resolution = 17
"""


def search_rates(text, monkeypatch):
    """The rates a ``construct`` of config ``text`` tries on its search grid,
    in order, and its certificate."""
    from wavecert.cli import RunConfig

    cfg = RunConfig.from_text(text)
    problem = GridProblem(cfg.build_field(), sample(cfg.build_region(), cfg.options["resolution"]))
    rates, margins = [], GridProblem._margins

    def attempt(self, weight, consts, **screen):
        if self is problem:  # not the refinement's re-check
            rates.append(consts["lambda"])
        return margins(self, weight, consts, **screen)

    monkeypatch.setattr(GridProblem, "_margins", attempt)
    return rates, search(problem)


def bisection(passes, lo, hi):
    """Ten bisection rounds between a failing ``lo`` and a passing ``hi``:
    the last passing rate, and every rate tried."""
    tried = []
    for _ in range(10):
        tried.append(0.5 * (lo + hi))
        lo, hi = (lo, tried[-1]) if passes(tried[-1]) else (tried[-1], hi)
    return hi, tried


class TestLatticeSearch:
    """The rate search's walk of bisection's lattice, on synthetic oracles
    with no grid."""

    STEERING = {
        "linear": lambda k, t: (k - t + 0.5) / 1024,
        "concave": lambda k, t: np.tanh(8.0 * (k - t + 0.5) / 1024),
        "kinked": lambda k, t: (k - t + 0.5) / 1024 if k < t else 1e-3,
        "nan": lambda k, t: math.nan,
        "wrong sign": lambda k, t: (1.0 + k) * (-1.0 if k >= t else 1.0),
    }

    @staticmethod
    def search(p, passes, value):
        """``rate_search`` where every rate below 2**p fails and ``passes(k)``
        and ``value(k)`` hold on the lattice of [2**p, 2**(p + 1)]: its rate
        and found, and every rate it tried inside that binade."""
        from types import SimpleNamespace

        from wavecert.weight import rate_search

        lo = 2.0**p
        step, grown, tried = lo / 1024, [], []

        def attempt(lam):
            if lam < lo:
                grown.append(lam)
                return SimpleNamespace(steer=-1.0, lam=lam), False
            k = (lam - lo) / step
            assert k == int(k) and 0 <= k <= 1024  # a lattice point of the binade
            if 0 < k < 1024:
                tried.append(lam)
            return SimpleNamespace(steer=value(int(k)), lam=lam), passes(int(k))

        lam, found = rate_search(attempt, 2.0**20)
        assert grown == [2.0**j for j in range(p)]  # doubling up to the binade
        return lam, found, tried

    @pytest.mark.parametrize("shape", STEERING)
    @pytest.mark.parametrize("p", [0, 3, 11, 19])
    def test_monotone_oracles_end_on_bisections_rate(self, shape, p):
        lo, hi = 2.0**p, 2.0 ** (p + 1)
        steer = self.STEERING[shape]
        for threshold in range(1, 1025):
            lam, found, tried = self.search(
                p, lambda k: k >= threshold, lambda k: steer(k, threshold)
            )
            want, probes = bisection(lambda x: x >= lo + threshold * (hi - lo) / 1024, lo, hi)
            assert lam == want and found.lam == lam
            assert len(tried) <= 30
            if shape in ("nan", "wrong sign"):  # no usable value: every step is the midpoint
                assert tried == probes

    @pytest.mark.parametrize("seed", range(4))
    def test_other_oracles_end_on_an_adjacent_pair(self, seed):
        # pass/fail in no order, with steering values of either sign or NaN
        rng = np.random.default_rng(seed)
        lo, hi = 4.0, 8.0
        step = (hi - lo) / 1024
        for _ in range(200):
            passes = np.append(np.insert(rng.random(1023) < rng.random(), 0, False), True)
            values = rng.normal(size=1025) * 10.0 ** rng.integers(-12, 1, 1025)
            values[rng.random(1025) < 0.05] = math.nan
            lam, found, tried = self.search(2, passes.__getitem__, values.__getitem__)
            k = int((lam - lo) / step)
            assert found.lam == lam and passes[k] and not passes[k - 1]
            assert all(lo + j * step in tried + [lo, hi] for j in (k - 1, k))
            assert len(tried) <= 30

    def test_interpolation_that_stalls_falls_back_to_the_midpoint(self):
        # each interpolated step moves the passing end by one point; the
        # safeguard's midpoints still halve the bracket every three attempts
        lam, found, tried = self.search(0, lambda k: k >= 1, lambda k: -1.0 if k == 0 else 1e-300)
        assert lam == bisection(lambda x: x >= 1.0 + 1 / 1024, 1.0, 2.0)[0]
        assert 10 < len(tried) <= 30

    @staticmethod
    def walk(threshold, lambda_max):
        """``rate_search`` with every rate from ``threshold`` on passing and a
        linear steering value: its result, and every rate it tried."""
        from types import SimpleNamespace

        from wavecert.weight import rate_search

        tried = []

        def attempt(lam):
            tried.append(lam)
            return SimpleNamespace(steer=lam / threshold - 1.0, lam=lam), lam >= threshold

        return rate_search(attempt, lambda_max), tried

    def test_threshold_at_rate_one_takes_one_attempt(self):
        (lam, found), tried = self.walk(1.0, 2.0**20)
        assert lam == found.lam == 1.0 and tried == [1.0]

    def test_threshold_above_the_tenth_doubling_is_reached_by_growth(self):
        threshold = 3000.3
        (lam, found), tried = self.walk(threshold, 2.0**20)
        assert lam == found.lam == bisection(lambda x: x >= threshold, 2048.0, 4096.0)[0]
        assert tried[:13] == [2.0**j for j in range(13)]
        assert len(tried) - 13 <= 30 and max(tried) == 4096.0

    @pytest.mark.parametrize("lambda_max", [64.0, 100.0])
    def test_exhausted_budget(self, lambda_max):
        # no rate passes below the threshold: the walk stops before a rate
        # above the budget and tries nothing past it
        result, tried = self.walk(1e6, lambda_max)
        assert result is None and tried == [2.0**j for j in range(7)]


class TestScaledAndLimitMatrices:
    def test_limit_matrix_example_field(self):
        # isotropic 1 + |x|^2 field at (1, 1), first axis, negative case:
        # diagonal (9, -3), coupling 3 in the first column
        lim = limit_matrix(example_bad_field(), 1, "negative", (1.0, 1.0))
        assert np.allclose(lim, np.array([[9.0, 0.0], [3.0, -3.0]]), atol=1e-13)
        # a negative diagonal entry correctly flags this case as hopeless
        assert lim[1, 1] < 0.0

    def test_limit_matrix_isotropic_at_origin(self):
        lim = limit_matrix(isotropic_exp_field(), 1, "positive", (0.0, 0.0))
        assert np.allclose(lim, np.array([[1.0, 0.0], [-0.5, 0.5]]), atol=1e-14)
        assert np.all(leading_principal_minors(lim) > 0.0)

    def test_limit_matrix_constant_field_singular(self):
        f = build(["2", "3"], diagonal=True)
        lim = limit_matrix(f, 1, "negative", (0.4, 0.4))
        assert np.allclose(lim, np.diag([4.0, 0.0]), atol=1e-14)
        assert leading_principal_minors(lim)[-1] == 0.0

    def test_limit_matrix_requires_diagonal(self):
        f = build(["2", "x1", "3"], diagonal=False)
        with pytest.raises(ValueError, match="requires a diagonal"):
            limit_matrix(f, 1, "negative", (0.4, 0.4))

    def test_scaled_rows_converge_to_limit_constant_field(self):
        f = build(["2", "3"], diagonal=True)
        grid = sample(region(2, [(0.0, 1.0), (0.0, 1.0)]), 5)
        shift = compute_shift(grid, 1, "negative")
        lim = limit_matrix(f, 1, "negative", grid.points)
        gaps = []
        for lam in (5.0, 10.0, 20.0):
            w = construct_weight(1, "negative", shift, lam, 2)
            scaled = scaled_multiplier_matrix(f, w, 1, "negative", grid.points)
            gaps.append(float(np.max(np.abs(scaled - lim))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_axis_row_approaches_squared_coefficient(self):
        f = isotropic_exp_field()
        pt = (2.0, 0.5)
        w = construct_weight(1, "positive", 5.0, 60.0, 2)
        scaled = scaled_multiplier_matrix(f, w, 1, "positive", pt)
        expected_jj = math.exp(pt[0] + pt[1]) ** 2
        assert scaled[0, 0] == pytest.approx(expected_jj, rel=1e-2)
        assert abs(scaled[0, 1]) < 1e-2 * expected_jj

    def test_limit_structure_and_minor_product(self):
        # nonzeros only on the diagonal and in the axis column; leading
        # minors equal cumulative diagonal products even for a middle axis
        f3 = build(
            ["exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)"],
            diagonal=True,
        )
        pt = (0.2, -0.1, 0.4)
        lim = limit_matrix(f3, 2, "positive", pt)
        n = 3
        for i in range(n):
            for j in range(n):
                if i != j and j != 1:
                    assert lim[i, j] == 0.0
        minors = leading_principal_minors(lim)
        assert np.allclose(minors, np.cumprod(np.diag(lim)), rtol=1e-12)


def _case_callers():
    """The functions that take an axis or a sign case, each as
    ``call(axis, sign_case)`` on ``exp(x1 + x2)`` over the disk at (2, 0)."""
    field, grid = isotropic_exp_field(), sample(offset_disk(), 9)
    weight = construct_weight(1, "negative", 2.0, 1.0, 2)
    ranges, point = sign_ranges(GridProblem(field, grid).da), (2.0, 0.0)
    return {
        "scaled_multiplier_matrix": lambda axis, case: scaled_multiplier_matrix(
            field, weight, axis, case, point
        ),
        "sign_margin": lambda axis, case: sign_margin(ranges, 2, axis, case),
        "compute_shift": lambda axis, case: compute_shift(grid, axis, case),
        "limit_matrix": lambda axis, case: limit_matrix(field, axis, case, point),
        "derivative_ratio_maxima": lambda axis, _: derivative_ratio_maxima(
            weight, axis, grid.points
        ),
    }


_CASE_FUNCTIONS = ("scaled_multiplier_matrix", "sign_margin", "compute_shift", "limit_matrix")


@pytest.mark.parametrize(
    "name, axis, sign_case",
    [
        (name, axis, "positive")
        for name in _CASE_FUNCTIONS + ("derivative_ratio_maxima",)  # it takes no sign case
        for axis in (0, 3)
    ]
    + [(name, 1, "Positive") for name in _CASE_FUNCTIONS],
)
def test_a_bad_axis_or_sign_case_is_rejected(name, axis, sign_case):
    # each of these once read axis 0 as the last axis, or a misspelled case
    # as one of the two
    message = f"axis {axis} out of range for dimension 2"
    if axis == 1:
        message = f"unknown sign case {sign_case!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _case_callers()[name](axis, sign_case)


LADDER = (5.0, 10.0, 20.0, 40.0, 80.0)


def scaled_limit_gap(field, axis, sign_case, shift, lam, points):
    """Largest entrywise gap between the row-scaled matrix of the rate-``lam``
    weight and its rate-to-infinity limit over ``points``."""
    weight = construct_weight(axis, sign_case, shift, lam, field.dim)
    scaled = scaled_multiplier_matrix(field, weight, axis, sign_case, points)
    return float(np.max(np.abs(scaled - limit_matrix(field, axis, sign_case, points))))


class TestAsymptotics:
    @pytest.mark.parametrize(
        "make_field,make_region",
        [(isotropic_exp_field, offset_disk), (cubic_exp_field, shifted_disk)],
    )
    def test_ratio_families_strictly_decrease(self, make_field, make_region):
        field = make_field()
        grid = sample(make_region(), 17)
        shift = compute_shift(grid, 1, "positive")
        rows = []
        for lam in LADDER:
            w = construct_weight(1, "positive", shift, lam, 2)
            rows.append(derivative_ratio_maxima(w, 1, grid.points))
        for col in range(3):
            series = [row[col] for row in rows]
            assert all(a > b for a, b in zip(series, series[1:])), series

    @pytest.mark.parametrize(
        "make_field,make_region",
        [(isotropic_exp_field, offset_disk), (cubic_exp_field, shifted_disk)],
    )
    def test_scaled_limit_distance_decreases_tenfold(self, make_field, make_region):
        field = make_field()
        grid = sample(make_region(), 17)
        shift = compute_shift(grid, 1, "positive")
        dists = [
            scaled_limit_gap(field, 1, "positive", shift, lam, grid.points)
            for lam in LADDER
        ]
        assert all(a > b for a, b in zip(dists, dists[1:])), dists
        assert dists[-1] < 0.1 * dists[0]


class TestThreeDimensional:
    def test_construction_certifies_on_middle_axis(self):
        # the machinery is dimension generic; exercise n = 3 with the
        # middle axis so the row scalings and the limit's arrow structure
        # see a nontrivial index layout
        f = build(
            ["exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)"],
            diagonal=True,
        )
        r = region(3, [(0.0, 1.0)] * 3)
        grid = sample(r, 7)
        problem = GridProblem(f, grid)
        found = detect_index(problem)
        assert (2, "positive") in [(c.axis, c.sign_case) for c in found]
        shift = compute_shift(grid, 2, "positive")
        assert shift == pytest.approx(1.0 + 2.0 + 1.0)  # 1 + max(|x1|+|x3|) + max x2
        cert = search(problem, 2, "positive")
        assert cert.report.certified
        assert cert.report.margin > 0.0

    def test_scaled_matrix_converges_in_three_dimensions(self):
        f = build(
            ["exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)", "exp(x1 + x2 + x3)"],
            diagonal=True,
        )
        r = region(3, [(0.0, 1.0)] * 3)
        grid = sample(r, 5)
        shift = compute_shift(grid, 2, "positive")
        gaps = [
            scaled_limit_gap(f, 2, "positive", shift, lam, grid.points)
            for lam in (5.0, 10.0, 20.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_ratio_maxima_one_dimensional_edge(self):
        w = construct_weight(1, "negative", 2.0, 3.0, dim=1)
        grid = sample(region(1, [(0.0, 1.0)]), 9)
        fam1, fam2, fam3 = derivative_ratio_maxima(w, 1, grid.points)
        assert fam1 == pytest.approx(1.0 / 3.0)  # d'/d'' = 1/rate
        assert fam2 == 0.0 and fam3 == 0.0


class TestCaseSymmetry:
    def test_full_reflection_maps_positive_to_negative_case(self):
        # reflecting all coordinates turns increasing partials into
        # decreasing ones and maps the constructed weights onto each other
        pos_field = isotropic_exp_field()
        neg_field = build(["exp(-x1 - x2)", "exp(-x1 - x2)"], diagonal=True)
        pos_region = offset_disk()
        neg_region = region(
            2, [(-3.0, -1.0), (-1.0, 1.0)], ["(x1 + 2)^2 + x2^2 - 1"]
        )
        cert_pos = search(GridProblem(pos_field, sample(pos_region, 17)), 1, "positive")
        cert_neg = search(GridProblem(neg_field, sample(neg_region, 17)), 1, "negative")
        assert cert_neg.shift == pytest.approx(cert_pos.shift)
        assert cert_neg.lam == pytest.approx(cert_pos.lam)
        assert cert_neg.report.margin == pytest.approx(
            cert_pos.report.margin, rel=1e-9
        )
