"""Curvature sign versus the axis-sign construction.

The pair a1 = e^{mu1*x1}, a2 = e^{-mu2*x1^2} has a uniformly negative
first-axis partial of a2 on a domain with x1 > 0, so the exponential-weight
construction applies.  Yet for parameters inside the window below the
sectional curvature of the associated 2D metric changes sign across the
domain, so a curvature-sign criterion stays silent on this instance.
"""

import math

import numpy as np

from wavecert import (
    GridProblem,
    build,
    check_sign_change_window,
    classify_sign,
    curvature_closed_form_expression,
    detect_index,
    evaluate,
    gauss_curvature_expression,
    sample,
)
from wavecert.domain import region

MU = {"mu1": 0.5, "mu2": 0.1}
A1, A2 = "exp(mu1*x1)", "exp(-mu2*x1^2)"
K = gauss_curvature_expression(A1, A2)

window = check_sign_change_window(MU["mu1"], MU["mu2"])
print("parameter window:")
print("  mu1 > 0:            ", window.mu1_positive)
print("  mu2 > 0:            ", window.mu2_positive)
print("  mu1 + 2 mu2 < 2:    ", window.sum_below_two)    # 0.7 < 2
print("  3 mu1 + 18 mu2 > 2: ", window.weighted_above_two)  # 3.3 > 2

r15 = math.sqrt(1.5)
disk = region(2, [(2 - r15, 2 + r15), (-r15, r15)], ["(x1 - 2)^2 + x2^2 - 1.5"])

# one grid, read by both sides of the comparison
grid = sample(disk, 33)

# the construction hypothesis holds: da2/dx1 = -2 mu2 x1 e^{...} < 0 here
field = build([A1, A2], diagonal=True)
for cand in detect_index(GridProblem(field, grid, MU)):
    print(f"admissible: axis {cand.axis}, {cand.sign_case}, margin {cand.sign_margin:.4f}")

# but the curvature changes sign: positive on the slice x1 = 1, negative on
# the slice x1 = 3
report = classify_sign(A1, A2, grid, MU)
print("\ncurvature classification:", report.classification)
print(f"k range: [{report.k_min:.5f}, {report.k_max:.5f}]")
print("positive witness:", np.round(report.witness_positive, 4))
print("negative witness:", np.round(report.witness_negative, 4))
for x1 in (1.0, 3.0):
    print(f"k at ({x1}, 0): {evaluate(K, (x1, 0.0), MU):+.5f}")

# the compact closed form (valid for x1-only coefficients) agrees with the
# general orthogonal-metric route
pt = (1.7, 0.4)
print("\nclosed form:", evaluate(curvature_closed_form_expression(A1, A2), pt, MU))
print("general:    ", evaluate(K, pt, MU))
