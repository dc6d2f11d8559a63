"""Constructive search for exponential certification weights.

When every off-index diagonal coefficient keeps one strict sign of its
partial along some axis j, an explicit weight of the form

* ``exp(lambda*(shift + x_j)) + sum_{i != j} exp(lambda*x_i)``
  (negative case: the off-index partials are < 0), or
* ``exp(-lambda*(x_j - shift)) + sum_{i != j} exp(-lambda*x_i)``
  (positive case: the partials are > 0)

certifies the condition once the rate ``lambda`` is large enough.  This
module detects admissible axes by one rule, :func:`sign_margin`, which also
gives a certificate's margin; :func:`pick_index` chooses the axis and sign
case a construction searches, a forced axis included.  It picks the
smallest grid-feasible shift, searches the rate by one steered walk of
bisection's lattice from rate 1 (:func:`rate_search`), and exposes the
row-scaled matrix together with its explicit rate-to-infinity limit so the
proof asymptotics can be checked numerically.

Note on the shift in the positive case: the bound actually used mirrors the
negative case, ``shift >= 1 + max sum_{i != j} |x_i| + max x_j``, because a
one-sided bound through ``min sum |x_i|`` degenerates on domains touching
the coordinate axes and no longer controls the derivative ratios the large
rate analysis needs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField, require_diagonal
from .condition import (
    VERDICT_CERTIFIED,
    ConditionReport,
    GridProblem,
    WeightFunction,
    multiplier_matrix_diagonal,
    weight_function,
)
from .domain import SampleGrid, sample
from .errors import (
    DomainError,
    ExpOverflowError,
    LambdaMaxExceededError,
    WeightOverflowError,
)
from .expr import BinOp, Call, Const, Expression, Neg, Num, Var
from .linalg import row_sums

SIGN_NEGATIVE = "negative"
SIGN_POSITIVE = "positive"
_SIGN_ORDER = (SIGN_NEGATIVE, SIGN_POSITIVE)

DEFAULT_LAMBDA_MAX = 2**20
_LATTICE = 2**10  # the rates ten bisection rounds can reach
_RATE = "lambda"  # the rate's constant name in the search weight


@dataclass(frozen=True)
class AdmissibleIndex:
    """An axis whose off-index partials keep one strict sign over the grid."""

    axis: int
    sign_case: str
    sign_margin: float  # distance of the closest-to-zero partial from 0


@dataclass(frozen=True)
class WeightCertificate:
    """A certified exponential weight: construction parameters plus report.

    ``refinement_report`` re-checks the same weight on the nested grid of
    doubled resolution (2r - 1).  A near-minimal rate certifies its own grid
    by construction but can sit below the finer grid's threshold; that
    outcome is recorded here rather than hidden.
    """

    axis: int
    sign_case: str
    shift: float
    lam: float
    weight: WeightFunction
    report: ConditionReport
    sign_margin: float
    refinement_report: ConditionReport


def _check_case(dim: int, axis: int, sign_case: str = SIGN_NEGATIVE):
    """Raise ValueError unless ``1 <= axis <= dim`` and ``sign_case`` names a case."""
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    if sign_case not in _SIGN_ORDER:
        raise ValueError(f"unknown sign case {sign_case!r}")


def sign_ranges(da):
    """Grid range of every off-index partial, ``{(axis, entry): (min, max)}``,
    from the partials of A at the grid points, ``(m, n, n, n)``, last axis k.
    A zero minimum is -0.0 whenever a -0.0 attains it, and a zero maximum
    +0.0 whenever a +0.0 does, in any memory layout."""
    n = da.shape[-1]
    ranges = {}
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i == j:
                continue
            vals = da[:, i - 1, i - 1, j - 1]
            lo, hi = float(np.min(vals)), float(np.max(vals))
            signs = np.signbit(vals[vals == 0.0])
            lo = -0.0 if lo == 0.0 and signs.any() else lo
            hi = 0.0 if hi == 0.0 and not signs.all() else hi
            ranges[(j, i)] = (lo, hi)
    return ranges


def sign_margin(ranges, dim: int, axis: int, sign_case: str) -> float:
    """The admissibility rule: ``-max`` of the maxima of the off-index partials
    along ``axis`` (negative case) or ``min`` of their minima (positive case);
    the pair is admissible iff it is > 0.  Infinite in one dimension."""
    _check_case(dim, axis, sign_case)
    others = [ranges[(axis, i)] for i in range(1, dim + 1) if i != axis]
    if not others:
        return float("inf")
    if sign_case == SIGN_NEGATIVE:
        return -max(hi for _, hi in others)
    return min(lo for lo, _ in others)


def detect_index(problem: GridProblem):
    """All admissible (axis, sign) pairs of ``problem``'s diagonal field on
    its grid, from the partials it holds, ordered by axis then sign.

    The axis's own partial along itself is deliberately not tested.  For a
    one-dimensional field the hypothesis is vacuous and both sign cases are
    admissible with an infinite margin sentinel.
    """
    require_diagonal(problem.field)
    return admissible_indices(sign_ranges(problem.da), problem.field.dim)


def admissible_indices(ranges, dim: int):
    """:func:`detect_index` from measured sign ranges of a ``dim``-field."""
    found = []
    for j in range(1, dim + 1):
        for sign in _SIGN_ORDER:
            margin = sign_margin(ranges, dim, j, sign)
            if margin > 0.0:
                found.append(AdmissibleIndex(j, sign, margin))
    return found


def pick_index(ranges, dim: int, force_axis=None):
    """The (axis, sign) pair a construction searches, from the measured sign
    ranges of a ``dim``-field; None when no axis is forced and none is
    admissible.

    Unforced, it is the admissible pair with the largest margin (the first
    on a tie).  A forced axis takes its admissible pair as is; without one,
    the search still runs on it, in the sign case with the larger measured
    margin (positive on a tie).  In one dimension both cases are admissible,
    and the negative one is picked.
    """
    candidates = admissible_indices(ranges, dim)
    if force_axis is None:
        return max(candidates, key=lambda cand: cand.sign_margin, default=None)
    _check_case(dim, force_axis)
    for cand in candidates:
        if cand.axis == force_axis:
            return cand
    margins = {s: sign_margin(ranges, dim, force_axis, s) for s in (SIGN_POSITIVE, SIGN_NEGATIVE)}
    sign_case = max(margins, key=margins.get)  # the first on a tie
    return AdmissibleIndex(force_axis, sign_case, margins[sign_case])


def compute_shift(grid: SampleGrid, axis: int, sign_case: str) -> float:
    """Smallest grid-feasible shift for the given axis and sign case.

    Negative case: ``1 + max sum_{i != axis} |x_i| - min x_axis``; positive
    case is the mirror with ``+ max x_axis`` (see the module note).
    """
    pts = grid.points
    _check_case(pts.shape[1], axis, sign_case)
    j = axis - 1
    abs_sum_max = float(np.max(row_sums(np.delete(np.abs(pts), j, axis=1))))
    if sign_case == SIGN_NEGATIVE:
        return 1.0 + abs_sum_max - float(np.min(pts[:, j]))
    return 1.0 + abs_sum_max + float(np.max(pts[:, j]))


def construct_weight(
    axis: int, sign_case: str, shift: float, lam: float | Expression, dim: int
) -> WeightFunction:
    """The explicit exponential weight for one case, with exact derivatives.

    The rate ``lam`` is a positive number, which becomes a literal, or an
    :class:`Expression`: the rate search passes the constant ``_RATE`` and
    binds it per attempt.  Differentiation folds neither, so both give trees
    of the same shape (``rate*(rate*e)`` in the Hessian) and the same values
    bit for bit.  In the negative case every first and second partial is
    positive; in the positive case first partials are negative and second
    partials positive.
    """
    if not isinstance(lam, Expression):
        if lam <= 0.0:
            raise ValueError("rate must be positive")
        lam = Num(float(lam))
    _check_case(dim, axis, sign_case)
    shift_lit, others = Num(float(shift)), [Var(i) for i in range(1, dim + 1) if i != axis]
    if sign_case == SIGN_NEGATIVE:
        terms = [Call("exp", BinOp("*", lam, BinOp("+", shift_lit, Var(axis))))]
        terms += [Call("exp", BinOp("*", lam, x)) for x in others]
    else:
        terms = [Call("exp", Neg(BinOp("*", lam, BinOp("-", Var(axis), shift_lit))))]
        terms += [Call("exp", Neg(BinOp("*", lam, x))) for x in others]
    expr = terms[0]
    for t in terms[1:]:
        expr = BinOp("+", expr, t)
    return weight_function(expr, dim)


def _rate(k):
    """The rate at lattice index ``k``: ``2**(k // 1024) * (1 + (k % 1024) / 1024)``."""
    return math.ldexp(_LATTICE + k % _LATTICE, k // _LATTICE - 10)


def rate_search(attempt, lambda_max):
    """The passing rate of the adjacent (fail, pass) pair that a walk of
    bisection's lattice ends on, and its attempt's ``found``; None when the
    rate would exceed ``lambda_max`` before any attempt passes.

    Index k is the rate :func:`_rate` (k): k = 0 is rate 1, k + 1024 doubles
    it, and a binade holds the 1025 rates ten bisection rounds reach in it.
    ``attempt(rate)`` gives ``(found, passed)``.  The walk adds 1024 to k
    until an attempt passes.  Inside the bracket a step is regula falsi on
    ``found.steer`` (Anderson and Björck's variant of the Illinois method),
    or the midpoint when a value is NaN or of the wrong sign for its side,
    or after two interpolated steps that together did not halve the bracket:
    so three attempts at most halve it, and at most 30 run inside it.  If
    pass/fail is monotone, ten bisection rounds in that binade end on the
    same pair.
    """
    ends = [None, None]  # [k, value, found] of the failing and the passing end
    k, moved, pair = 0, None, []
    while True:
        found, passed = attempt(_rate(k))
        passed = bool(passed)  # it indexes ends
        if passed == moved and ends[not passed] is not None:
            # the other end is kept twice: Anderson and Björck's factor scales it, or 1/2
            old = ends[passed][1]
            scale = 1.0 - found.steer / old if old else 0.0
            ends[not passed][1] *= scale if scale > 0.0 else 0.5
        ends[passed], moved = [k, found.steer, found], passed
        if ends[1] is None:  # no rate has passed: double it
            k += _LATTICE
            if _rate(k) > lambda_max:
                return None
        elif ends[0] is None or ends[1][0] - ends[0][0] == 1:
            return _rate(ends[1][0]), ends[1][2]
        else:
            (a, fa, _), (b, fb, _) = ends
            if len(pair) == 2:  # the brackets before two interpolated steps
                pair = [] if 2 * (b - a) <= pair[0] else None
            if pair is not None and fa <= 0.0 < fb:
                pair.append(b - a)
                k = min(max(a + int((b - a) * fa / (fa - fb) + 0.5), a + 1), b - 1)
            else:
                pair, k = [], (a + b) // 2


def find_lambda(
    problem: GridProblem,
    chosen: AdmissibleIndex,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
    target_margin: float = 0.0,
    dump_path=None,
) -> WeightCertificate:
    """Search the exponential rate for the pair ``chosen`` (as
    :func:`pick_index` gives it) on the prepared search grid ``problem``.

    :func:`rate_search` walks ``lambda`` from 1, doubling it until the
    condition certifies with margin at least ``target_margin * alpha_min``
    and then steering inside the last doubling, and returns a certificate at
    the near-minimal passing rate it ends on.  Its shift is
    :func:`compute_shift` on the search grid and its sign margin is
    ``chosen.sign_margin``.  The certificate also carries a re-check of that
    weight on the refined grid of the same region, ``sample(grid.region,
    2 * grid.resolution - 1)`` (see :class:`WeightCertificate.refinement_report`).

    Only the work that depends on the rate runs per attempt.  Every attempt
    is checked on ``problem``, and the re-check on one problem of the
    refined grid, so the grid, A, its partials and its Cholesky factors are
    computed once per grid.  One weight, with the rate as a named constant
    bound per attempt, is differentiated and compiled once per search, and
    the re-check runs its tape too.  An attempt computes only the pencil
    margin and the gradient minimum; the minimum eigenvalue and the minors
    are computed once per grid, for the reports returned.  ``dump_path``,
    when given, receives the search grid's per-point CSV of the certified
    attempt, as :meth:`GridProblem.check` writes it for the certificate's
    weight, which has the rate as a literal.

    Raises :class:`LambdaMaxExceededError` (best failing report attached)
    when the budget runs out, or before any attempt (with the
    ``failed_coefficient`` report and no rate) when A is not positive
    definite on the grid.  Raises :class:`WeightOverflowError` when the
    weight's exponentials, or the multiplier matrices built from them, leave
    double range first; translating the domain toward the origin shrinks the
    exponent range in that case.  Before any attempt, raises what
    :func:`sample` raises when the re-check's grid cannot be sampled.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    axis, sign_case, grid = chosen.axis, chosen.sign_case, problem.grid
    shift = compute_shift(grid, axis, sign_case)
    weight = construct_weight(axis, sign_case, shift, Const(_RATE), problem.field.dim)
    if problem.coefficient_failure is not None:
        raise LambdaMaxExceededError(
            "no rate can certify: the coefficient matrix is not positive definite on the grid",
            best_report=problem.coefficient_failure,
        )
    refined_grid = sample(grid.region, 2 * grid.resolution - 1, problem.consts)

    def report_at(grid_problem, lam):  # the search weight's full report at rate lam
        if grid_problem.coefficient_failure is not None:
            return grid_problem.coefficient_failure
        return grid_problem._report(grid_problem._margins(weight, {_RATE: lam}))

    best_lam = best_margin = None  # the failing rate with the largest margin seen

    def attempt(lam):
        nonlocal best_lam, best_margin
        try:
            found = problem._margins(weight, {_RATE: lam})
        except (ExpOverflowError, DomainError) as exc:
            what = "multiplier matrix left double range"
            if isinstance(exc, ExpOverflowError):
                what = "weight exponential exceeded 1e300"
            raise WeightOverflowError(
                f"{what} at lambda={lam:g}; translate the domain toward the origin and retry",
                best_report=best_report(),
                best_lambda=best_lam,
            ) from exc
        passed = (
            found.verdict == VERDICT_CERTIFIED
            and found.margin >= target_margin * problem.alpha_min
        )
        if not passed and (best_lam is None or found.margin > best_margin):
            best_lam, best_margin = lam, found.margin
        return found, passed

    def best_report():  # not through attempt, which calls it: a cycle would hold the grid
        return None if best_lam is None else report_at(problem, best_lam)

    searched = rate_search(attempt, lambda_max)
    if searched is None:
        raise LambdaMaxExceededError(
            "lambda_max exceeded", best_report=best_report(), best_lambda=best_lam
        )
    lam_pass, found_pass = searched
    refinement = report_at(GridProblem(problem.field, refined_grid, problem.consts), lam_pass)

    return WeightCertificate(
        axis=axis,
        sign_case=sign_case,
        shift=shift,
        lam=float(lam_pass),
        weight=construct_weight(axis, sign_case, shift, lam_pass, weight.dim),
        report=problem._report(found_pass, dump_path),
        sign_margin=chosen.sign_margin,
        refinement_report=refinement,
    )


# ---------------------------------------------------------------------------
# proof asymptotics


def scaled_multiplier_matrix(
    field: CoefficientField,
    weight: WeightFunction,
    axis: int,
    sign_case: str,
    point,
    consts=None,
) -> np.ndarray:
    """Row-normalized multiplier matrix whose large-rate limit is explicit.

    Rows other than ``axis`` are divided by the weight's first partial along
    the axis (negated in the positive case so the scaling stays positive);
    the axis row is divided by the axis second partial.  Exponential weights
    make both divisors nonvanishing.
    """
    _check_case(field.dim, axis, sign_case)
    mats = multiplier_matrix_diagonal(field, weight, point, consts)
    grad, hess = weight.derivatives(point, consts)
    j = axis - 1
    scale = np.repeat(grad[..., j, None], field.dim, axis=-1)
    if sign_case == SIGN_POSITIVE:
        scale = -scale
    scale[..., j] = hess[..., j, j]
    return mats / scale[..., :, None]


def limit_matrix(
    field: CoefficientField, axis: int, sign_case: str, point, consts=None
) -> np.ndarray:
    """Explicit limit of the row-scaled matrix as the rate goes to infinity.

    Nonzeros sit on the diagonal and in column ``axis``: with ``s = -1`` for
    the negative case and ``s = +1`` for the positive case,

    * entry (axis, axis) is ``(a^axis)^2``,
    * entry (i, i), i != axis, is ``s/2 * a^axis * da^i/dx_axis``,
    * entry (i, axis), i != axis, is ``-s/2 * a^i * da^axis/dx_i``.
    """
    require_diagonal(field)
    n = field.dim
    _check_case(n, axis, sign_case)
    idx = np.arange(n)
    a = field.values(point, consts)[..., idx, idx]
    da = field.partial_values(point, consts)[..., idx, idx, :]
    j = axis - 1
    half = 0.5 if sign_case == SIGN_POSITIVE else -0.5  # s/2
    out = np.zeros(a.shape + (n,))
    for i in range(n):
        if i == j:
            out[..., j, j] = a[..., j] ** 2
        else:
            out[..., i, i] = half * a[..., j] * da[..., i, j]
            out[..., i, j] = -half * a[..., i] * da[..., j, i]
    return out


def derivative_ratio_maxima(
    weight: WeightFunction, axis: int, points, consts=None
) -> tuple:
    """Grid maxima of the three ratio families the large-rate analysis kills.

    Returns ``(max |d_i / d_jj| over all i, max |d_i / d_j| over i != j,
    max |d_ii / d_j| over i != j)`` with j the given axis.
    """
    _check_case(weight.dim, axis)
    grad, hess = weight.derivatives(points, consts)
    j = axis - 1
    dj = grad[..., j, None]
    fam1 = float(np.max(np.abs(grad / hess[..., j, j, None])))
    others = [i for i in range(weight.dim) if i != j]
    if not others:  # one-dimensional: the off-axis families are empty
        return fam1, 0.0, 0.0
    fam2 = float(np.max(np.abs(grad[..., others] / dj)))
    diag2 = np.diagonal(hess, axis1=-2, axis2=-1)[..., others]
    fam3 = float(np.max(np.abs(diag2 / dj)))
    return fam1, fam2, fam3
