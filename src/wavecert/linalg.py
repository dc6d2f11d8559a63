"""Dense symmetric-matrix tests on whole stacks of small matrices (n <= 8).

Every routine takes a stack ``(..., n, n)`` and returns one value (or row)
per matrix; one ``(n, n)`` matrix is a stack of one.  Eigenvalues come from
LAPACK (``np.linalg.eigvalsh``): :func:`min_eigenvalue` ``(m)`` of a stack, or
``(m, w)`` of a pencil whitened by the caller's inverse Cholesky factors
``w`` (two-sided scaling when diagonal); leading principal minors, from
batched determinants, cross-check positive definiteness.

Grid stacks keep the grid axis innermost in memory, as the tapes give them.
Products and row sums outside LAPACK add in index order (:func:`matprod`,
:func:`row_sums`), so every value has the same bits in any layout; no
routine reshapes a stack (that copies a column-major one).

A grid check needs only minima over the rows.  :func:`screened` runs a
routine only on the rows whose closed-form interval (2x2 and 3x3 stacks,
:data:`SCREENED`), from the interval routine of the same ``(m, w)``
arguments, reaches the smallest upper end: a band far above the
rounding of LAPACK and of the closed form, plus a floor for what the
rescaling below loses to underflow.  LAPACK acts per matrix, so the minimum
and its first row are the full stack's bit for bit.

Each matrix is first rescaled by its own exact power of two (lossless) and
the results are scaled back: entries near double range at large exponential
rates then square and multiply in range, and a stack mixing tiny and huge
matrices gives each one the result it would get alone.
"""

import numpy as np

SCREENED = (2, 3)  # the matrix sizes whose grid minima have a closed-form screen


def _scaled(mats):
    """The stack rescaled per matrix, and the exponents that undo it.

    Each matrix is divided by ``2**floor(log2(peak))`` for its largest entry
    (by 1 when that entry is zero or not finite).
    """
    mats = np.asarray(mats, dtype=float)
    peak = row_peaks(row_peaks(mats))  # no reshape, which copies a column-major stack
    _, exp = np.frexp(peak)  # peak = mantissa * 2**exp, mantissa in [0.5, 1)
    exp = np.where(np.isfinite(peak) & (peak > 0.0), exp - 1, 0)
    return np.ldexp(mats, -exp[..., None, None]), exp


def min_eigenvalue(m, w=None) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in the stack, or, given
    ``w``, of each pencil (m, a), a = L L^T positive definite: of ``W m W^T``,
    symmetrized, for ``w = W = L^-1`` of the shape of ``m``, or for W's
    diagonal ``w = 1 / sqrt(diag(a))``, ``(..., n)``, by the scaling
    ``(m_ij * w_i) * w_j``; ``m`` is first rescaled by exact powers of two."""
    ev, exp = _spectrum(m, w)
    return np.ldexp(ev[..., 0], exp)


def _spectrum(m, w):
    """The eigenvalues of :func:`min_eigenvalue`, ascending, scaled by
    ``2**-exp``, and ``exp``."""
    c, exp = _scaled(m)
    if w is not None:
        c = _whiten(c, w)
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
    return np.linalg.eigvalsh(c), exp


def leading_principal_minors(mats) -> np.ndarray:
    """Determinants of the top-left k-by-k blocks, k = 1..n: shape (..., n).

    Computed on the power-of-two rescaled matrices and scaled back; a minor
    whose true value exceeds double range is reported as a signed infinity,
    preserving the sign pattern the cross-checks rely on.
    """
    scaled, exp = _scaled(mats)
    n = scaled.shape[-1]
    with np.errstate(over="ignore"):
        return np.stack(
            [np.ldexp(np.linalg.det(scaled[..., :k, :k]), k * exp) for k in range(1, n + 1)],
            axis=-1,
        )


def pencil_margins(m, w, screen=True):
    """:func:`min_eigenvalue` ``(m, w)``, :func:`screened` by :func:`eigen_bounds`
    when ``screen`` holds, and the grid minimum of each row's smallest
    eigenvalue over its largest magnitude, which steers a rate search: the
    closed form's when it screens, else LAPACK's; NaN if a row's is."""
    if not screen or m.shape[-1] not in SCREENED:  # the power-of-two scale cancels in the ratio
        ev, exp = _spectrum(m, w)
        with np.errstate(invalid="ignore"):  # 0 / 0 at a zero matrix
            ratio = ev[..., 0] / np.maximum(-ev[..., 0], ev[..., -1])
        return np.ldexp(ev[..., 0], exp), float(np.min(ratio))
    with np.errstate(all="ignore"):
        bounds = eigen_bounds(m, w)
        steer = float(np.min(bounds[2]))
    return screened(min_eigenvalue, lambda *_: bounds, m, w), steer


def _whiten(m, w):
    """``W m W^T``, or ``(m_ij * w_i) * w_j`` for W's diagonal ``w``."""
    if np.ndim(w) < np.ndim(m):
        return (m * w[..., :, None]) * w[..., None, :]
    return matprod(matprod(w, m), np.swapaxes(w, -1, -2))


def screened(routine, bounds, *stacks) -> np.ndarray:
    """``routine(*stacks)``, +inf at the rows (axis 0) that cannot attain its
    minimum: for stacks of a size in :data:`SCREENED`, the rows whose ``lo``
    is above the smallest ``hi`` in every column, for ``lo, hi`` the first
    two items of ``bounds(*stacks)`` (a NaN runs a row).  The first minimizer
    along axis 0, and its value, are the full values' bit for bit."""
    if bounds is None or stacks[0].shape[-1] not in SCREENED:
        return routine(*stacks)
    with np.errstate(all="ignore"):
        lo, hi = bounds(*stacks)[:2]
    keep = ~(lo > np.min(hi, axis=0))
    rows = np.flatnonzero(keep.reshape(len(keep), -1).any(axis=1))
    part = routine(*(s[rows] for s in stacks))
    out = np.full((len(keep),) + part.shape[1:], np.inf)
    out[rows] = part
    return out


def eigen_bounds(m, w=None):
    """Intervals ``(lo, hi)`` around :func:`min_eigenvalue` ``(m, w)`` of a 2x2
    or 3x3 stack, then each row's smallest eigenvalue over its largest
    magnitude, ``low / max(-low, high)``.  They come from the closed form of
    the whitened stack: ``h - hypot((p - q) / 2, r)`` for the diagonal ``p``,
    ``q``, their mean ``h`` and the symmetrized ``r``, or Smith's
    (:func:`_smith`).  The floor, for what the rescaling loses to underflow,
    reads ``max |m|`` and ``max |w|``, and is infinite where LAPACK's copy can
    overflow.  The pencil whitens its kept rows again, rescaled by powers of
    two: LAPACK's values rest on those bits."""
    c = m if w is None else _whiten(m, w)
    if c.shape[-1] == 2:
        p, q = c[..., 0, 0], c[..., 1, 1]
        h, s = 0.5 * (p + q), np.hypot(0.5 * (p - q), 0.5 * (c[..., 0, 1] + c[..., 1, 0]))
        low, high, band, exp = h - s, h + s, 2.0**-40 * (np.abs(h) + s), 0
    else:
        low, high, band, exp = _smith(c)
    w_peak = 1.0 if w is None else np.max(np.abs(w))
    floor = 2.0**-1000 + (2.0**-1070 * (1.0 + np.max(np.abs(m)))) * (4.0 + 4.0 * w_peak) ** 2
    lo, hi = np.ldexp(low - band, exp) - floor, np.ldexp(low + band, exp) + floor
    return lo, hi, low / np.maximum(-low, high)


def _smith(c):
    """Smith's closed form (CACM 4(4), 1961) of each symmetric 3x3 matrix of
    ``c`` (its symmetrized entries), rescaled by its own power of two: the
    smallest and largest eigenvalues, ``q + 2 p cos(phi + 2 pi / 3)`` and
    ``q + 2 p cos(phi)`` for the diagonal's mean ``q``, ``6 p**2 = |c - q I|**2``
    (Frobenius) and ``3 phi = arccos(det(c - q I) / (2 p**3))``; a band that
    holds LAPACK's smallest; and the exponents that scale all three back.

    The band is ``2**-24`` of ``|q| + 2 p``, which bounds every eigenvalue.
    Near a repeated eigenvalue arccos turns an error of u in its argument
    (one from the rounded mean's trace, one from the determinant) into
    sqrt(u) (Kopp, arXiv:physics/0610206).  That bounds the error by about
    ``3 * 2**-26`` of the scale; near-repeated triples reach ``0.7 * 2**-26``.
    """
    c, exp = _scaled(c)
    a, b, d = c[..., 0, 0], c[..., 1, 1], c[..., 2, 2]
    e, f, g = (0.5 * (c[..., i, j] + c[..., j, i]) for i, j in ((0, 1), (0, 2), (1, 2)))
    q = (a + b + d) / 3.0
    a, b, d = a - q, b - q, d - q
    p2 = (a * a + b * b + d * d + 2.0 * (e * e + f * f + g * g)) / 6.0
    p = np.sqrt(p2)
    det = a * (b * d - g * g) - e * (e * d - g * f) + f * (e * g - b * f)
    p3 = p2 * p
    r = np.clip(np.where(p3 > 0.0, det / (2.0 * p3), 0.0), -1.0, 1.0)  # 0 / 0 at c = q I
    phi = np.arccos(r) / 3.0
    low, high = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), q + 2.0 * p * np.cos(phi)
    return low, high, 2.0**-24 * (np.abs(q) + 2.0 * p), exp


def minor_bounds(m):
    """Intervals around :func:`leading_principal_minors` of a 2x2 or 3x3
    stack, by cofactor expansion of its power-of-two rescaled matrices: each
    minor's band is ``2**-40`` of its terms' magnitudes, plus ``2**-37`` for
    a 3x3 determinant, which bounds what LU's pivoted products add at a
    rescaled peak below 2, or else ``2**-1060`` for what underflows there."""
    s, exp = _scaled(m)
    e = [[s[..., i, j] for j in range(s.shape[-1])] for i in range(s.shape[-1])]
    terms = [[e[0][0]], [e[0][0] * e[1][1], -(e[0][1] * e[1][0])]]
    if len(e) == 3:
        (a, b, c), (d, f, g), (h, i, j) = e
        terms.append([a * (f * j), -(a * (g * i)), -(b * (d * j)), b * (g * h),
                      c * (d * i), -(c * (f * h))])
    lo, hi = [], []
    for k, parts in enumerate(terms, start=1):
        value = sum(parts)
        band = 2.0**-40 * sum(np.abs(t) for t in parts) + (2.0**-37 if k == 3 else 2.0**-1060)
        lo.append(np.ldexp(value - band, k * exp))
        hi.append(np.ldexp(value + band, k * exp))
    return np.stack(lo, axis=-1) - 2.0**-1000, np.stack(hi, axis=-1) + 2.0**-1000


def row_peaks(rows) -> np.ndarray:
    """``np.max(np.abs(rows), axis=-1)``, taken column by column: a maximum
    does not depend on the order, and NaN propagates."""
    rows = np.abs(rows)
    peak = rows[..., 0]
    for k in range(1, rows.shape[-1]):
        peak = np.maximum(peak, rows[..., k])
    return peak


def row_sums(rows) -> np.ndarray:
    """``np.sum(rows, axis=-1)`` added column by column in index order from 0,
    so the same bits in any layout; a row of no columns sums to 0."""
    return sum((rows[..., k] for k in range(rows.shape[-1])), np.zeros(rows.shape[:-1]))


def matprod(x, y) -> np.ndarray:
    """``x @ y`` for stacks, each entry summed over k in index order from 0 by
    elementwise passes: the same bits in any layout, and at a point as in a batch."""
    return sum(x[..., :, k, None] * y[..., None, k, :] for k in range(x.shape[-1]))


def row_norms(rows) -> np.ndarray:
    """Euclidean norms of the rows of an (m, n) array, overflow-safe."""
    peak = row_peaks(rows)
    safe = np.where(peak > 0.0, peak, 1.0)
    scaled = rows / safe[:, None]
    return safe * np.sqrt(row_sums(scaled * scaled))
