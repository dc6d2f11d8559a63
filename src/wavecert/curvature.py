"""Sectional curvature of 2D diagonal metrics and the sign comparison.

Two curvature expressions, each evaluated by :func:`~wavecert.expr.evaluate`,
are built for coefficients ``diag(a1, a2)``:

* :func:`curvature_closed_form_expression` - the compact closed form
  ``[a2 a1_x1 a2_x1 + a1 (a2_x1)^2 - 2 a1 a2 a2_x1x1] / (4 (a1 a2)^2)``,
  valid when both coefficients depend on x1 only (all its derivatives are
  along x1);
* :func:`gauss_curvature_expression` - the standard orthogonal-metric
  Gaussian curvature built symbolically for the metric ``a1 dx1^2 + a2 dx2^2``,
  valid for any 2D diagonal coefficients.

Both routes use exact symbolic derivatives and describe the same geometric
object: the closed form is precisely the x1-only specialization of the
orthogonal-metric formula with components (a1, a2), which the tests enforce
to 1e-8.  Note the convention: it is the *components* metric, not the
inverse-components one; on the reference exponential family the
inverse-components curvature is strictly negative and carries no sign
information, while the components convention reproduces the documented sign
change between the slices x1 = 1 and x1 = 3.
"""

from dataclasses import dataclass

import numpy as np

from .domain import SampleGrid
from .expr import (
    BinOp,
    Call,
    Expression,
    Neg,
    Num,
    Pow,
    differentiate,
    evaluate,
    parse,
)
from .report import write_csv

DEGENERATE_TOLERANCE = 1e-12

CLASS_POSITIVE = "uniformly_positive"
CLASS_NEGATIVE = "uniformly_negative"
CLASS_SIGN_CHANGING = "sign_changing"
CLASS_DEGENERATE = "degenerate"


def curvature_closed_form_expression(a1, a2) -> Expression:
    """Symbolic closed-form curvature for x1-only diagonal coefficients,
    each taken by :func:`parse` in two dimensions."""
    a1, a2 = parse(a1, 2), parse(a2, 2)
    a1_x = differentiate(a1, 1)
    a2_x = differentiate(a2, 1)
    a2_xx = differentiate(a2_x, 1)
    num = BinOp(
        "-",
        BinOp(
            "+",
            BinOp("*", BinOp("*", a2, a1_x), a2_x),
            BinOp("*", a1, Pow(a2_x, 2)),
        ),
        BinOp("*", BinOp("*", BinOp("*", Num(2.0), a1), a2), a2_xx),
    )
    den = BinOp("*", Num(4.0), Pow(BinOp("*", a1, a2), 2))
    return BinOp("/", num, den)


def gauss_curvature_expression(a1, a2) -> Expression:
    """Symbolic Gaussian curvature of the metric ``a1 dx1^2 + a2 dx2^2``.

    Orthogonal-metric formula: with E = a1, G = a2 and s = sqrt(E G),
    ``K = -(1/(2 s)) * (d/dx1 (G_x1 / s) + d/dx2 (E_x2 / s))``.
    Second derivatives of the coefficients enter through repeated symbolic
    differentiation; each coefficient is taken by :func:`parse` in two dimensions.
    """
    metric_e, metric_g = parse(a1, 2), parse(a2, 2)
    s = Call("sqrt", BinOp("*", metric_e, metric_g))
    term1 = differentiate(BinOp("/", differentiate(metric_g, 1), s), 1)
    term2 = differentiate(BinOp("/", differentiate(metric_e, 2), s), 2)
    total = BinOp("+", term1, term2)
    return BinOp("/", Neg(total), BinOp("*", Num(2.0), s))


@dataclass(frozen=True)
class CurvatureReport:
    """Sign classification of the curvature over a sample grid."""

    classification: str
    k_min: float
    k_max: float
    witness_positive: tuple | None
    witness_negative: tuple | None
    resolution: int
    point_count: int


def classify_sign(a1, a2, grid: SampleGrid, consts=None, dump_path=None) -> CurvatureReport:
    """Sweep the Gaussian curvature over ``grid`` and classify its sign.

    ``sign_changing`` iff the grid minimum and maximum straddle zero, with
    the extremal points reported as witnesses; ``degenerate`` when |k| never
    exceeds 1e-12.
    """
    pts = grid.points
    k_expr = gauss_curvature_expression(a1, a2)
    values = evaluate(k_expr, pts, consts)
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    k_min = float(values[i_min])
    k_max = float(values[i_max])

    if max(abs(k_min), abs(k_max)) <= DEGENERATE_TOLERANCE:
        classification = CLASS_DEGENERATE
    elif k_min < 0.0 < k_max:
        classification = CLASS_SIGN_CHANGING
    else:
        # an exact zero at the minimum, with positive values elsewhere, is positive
        classification = CLASS_POSITIVE if k_min >= 0.0 else CLASS_NEGATIVE

    if dump_path is not None:
        header = [f"x{k}" for k in range(1, pts.shape[1] + 1)] + ["k"]
        write_csv(dump_path, header, [pts, values])

    return CurvatureReport(
        classification=classification,
        k_min=k_min,
        k_max=k_max,
        witness_positive=tuple(pts[i_max]) if k_max > 0.0 else None,
        witness_negative=tuple(pts[i_min]) if k_min < 0.0 else None,
        resolution=grid.resolution,
        point_count=pts.shape[0],
    )


@dataclass(frozen=True)
class SignChangeWindow:
    """Per-inequality detail for the exponential-family parameter window."""

    mu1_positive: bool
    mu2_positive: bool
    sum_below_two: bool  # mu1 + 2*mu2 < 2
    weighted_above_two: bool  # 3*mu1 + 18*mu2 > 2

    @property
    def ok(self) -> bool:
        return (
            self.mu1_positive
            and self.mu2_positive
            and self.sum_below_two
            and self.weighted_above_two
        )


def check_sign_change_window(mu1: float, mu2: float) -> SignChangeWindow:
    """Parameter window making ``diag(exp(mu1*x1), exp(-mu2*x1^2))`` change
    curvature sign between the slices x1 = 1 and x1 = 3.

    All four inequalities are reported individually: mu1 > 0, mu2 > 0,
    mu1 + 2*mu2 < 2, and 3*mu1 + 18*mu2 > 2.
    """
    return SignChangeWindow(
        mu1_positive=mu1 > 0.0,
        mu2_positive=mu2 > 0.0,
        sum_below_two=mu1 + 2.0 * mu2 < 2.0,
        weighted_above_two=3.0 * mu1 + 18.0 * mu2 > 2.0,
    )
