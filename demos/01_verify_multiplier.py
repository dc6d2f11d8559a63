"""Verify a given multiplier weight against a coefficient field.

The classical sanity case: constant identity coefficients with the radial
weight |x|^2 / 2 on a disk that avoids the origin.  The certification margin
is the smallest generalized eigenvalue of (2 * multiplier matrix, A) over
the sample grid, and the gradient floor is min |grad d|.
"""

import numpy as np

from wavecert import GridProblem, build, sample, weight_function
from wavecert.domain import region

# identity coefficients, disk of radius 1 centered at (2, 0)
field = build(["1", "1"], diagonal=True)
disk = region(2, [(1, 3), (-1, 1)], ["(x1 - 2)^2 + x2^2 - 1"])
weight = weight_function("(x1^2 + x2^2)/2", dim=2)

report = GridProblem(field, sample(disk, 33)).check(weight)
print("verdict:           ", report.verdict)
print("pencil margin:     ", report.margin)          # expect exactly 2
print("raw matrix min eig:", report.matrix_min_eig)  # expect exactly 1
print("min |grad d|:      ", report.grad_min)        # expect 1 at (1, 0)
print("worst margin point:", np.round(report.worst_point_margin, 6))

# the same weight fails on a disk containing the origin: the gradient of
# |x|^2 / 2 vanishes there, so the no-critical-point condition breaks
centered = region(2, [(-1, 1), (-1, 1)], ["x1^2 + x2^2 - 1"])
report_bad = GridProblem(field, sample(centered, 33)).check(weight)
print()
print("origin-centered disk verdict:", report_bad.verdict)
print("min |grad d| there:          ", report_bad.grad_min)

# a variable field with the same quadratic weight: the margin now reflects
# the interplay between the coefficient derivatives and the weight
variable = build(["exp(x1 + x2)", "exp(x1 + x2)"], diagonal=True)
report_var = GridProblem(variable, sample(disk, 33)).check(weight)
print()
print("variable field verdict:", report_var.verdict)
print("variable field margin: ", report_var.margin)
