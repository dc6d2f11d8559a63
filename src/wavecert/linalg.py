"""Dense symmetric-matrix tests on whole stacks of small matrices (n <= 8).

Every routine takes a stack ``(..., n, n)`` and returns one value (or row)
per matrix; one ``(n, n)`` matrix is a stack of one.  Eigenvalues come from
LAPACK (``np.linalg.eigvalsh``); the pencil is whitened by the caller's
inverse Cholesky factors (two-sided scaling when diagonal); leading principal
minors, from batched determinants, cross-check positive definiteness.

Grid stacks keep the grid axis innermost in memory, as the tapes give them;
a full field's products are C-ordered.  Every value has the same bits in
either layout, and no routine reshapes a stack (that copies a column-major one).

A grid check needs only minima over the rows.  :func:`screened` runs a
routine only on the rows whose closed-form interval (2x2 only) reaches the
smallest upper end: ``2**-40`` of the value's scale, far above the rounding
of LAPACK and of the closed form, plus a floor for what the rescaling below
loses to underflow.  LAPACK acts per matrix, so the minimum and its first
row are the full stack's bit for bit.

Each matrix is first rescaled by its own exact power of two (lossless) and
the results are scaled back: entries near double range at large exponential
rates then square and multiply in range, and a stack mixing tiny and huge
matrices gives each one the result it would get alone.
"""

import numpy as np


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


def min_eigenvalue(mats) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in the stack."""
    scaled, exp = _scaled(mats)
    return np.ldexp(np.linalg.eigvalsh(scaled)[..., 0], exp)


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


def pencil_min_eigenvalue(m, w) -> np.ndarray:
    """Smallest generalized eigenvalue of each pencil (m, a), a = L L^T
    positive definite with lower Cholesky factor L.

    Computed as the smallest eigenvalue of ``W m W^T`` for ``W = L^-1``,
    after exact power-of-two rescaling of ``m``.  ``w`` is W, of the shape
    of ``m``, or, when a is diagonal, W's diagonal ``1 / sqrt(diag(a))``,
    ``(..., n)``, which whitens by the scaling ``(m_ij * w_i) * w_j``.
    """
    ev, exp = _pencil(m, w)
    return np.ldexp(ev[..., 0], exp)


def _pencil(m, w):
    """The pencil's eigenvalues, ascending, scaled by ``2**-exp``, and ``exp``."""
    scaled, exp = _scaled(m)
    c = _whiten(scaled, w)
    c = 0.5 * (c + np.swapaxes(c, -1, -2))
    return np.linalg.eigvalsh(c), exp


def pencil_margins(m, w, wmax):
    """:func:`pencil_min_eigenvalue` :func:`screened` by :func:`eigen_bounds`
    (``wmax = max |w|``), and the normalized margin's grid minimum, which
    steers a rate search: ``(h - s) / (|h| + s)`` from the 2x2 screen, else
    LAPACK's smallest eigenvalue over the largest magnitude; NaN if a row's is."""
    if m.shape[-1] != 2:  # the power-of-two scale cancels in the ratio
        ev, exp = _pencil(m, w)
        with np.errstate(invalid="ignore"):  # 0 / 0 at a zero matrix
            ratio = ev[..., 0] / np.maximum(-ev[..., 0], ev[..., -1])
        return np.ldexp(ev[..., 0], exp), float(np.min(ratio))
    with np.errstate(all="ignore"):
        lo, hi, low, size = _eigen_bounds(m, w, wmax)
        steer = float(np.min(low / size))
    return screened(pencil_min_eigenvalue, lambda *_: (lo, hi), m, w), steer


def _whiten(m, w):
    """``W m W^T``, or ``(m_ij * w_i) * w_j`` for W's diagonal ``w``."""
    if np.ndim(w) < np.ndim(m):
        return (m * w[..., :, None]) * w[..., None, :]
    return w @ m @ np.swapaxes(w, -1, -2)


def screened(routine, bounds, *stacks) -> np.ndarray:
    """``routine(*stacks)``, +inf at the rows (axis 0) that cannot attain its
    minimum: for 2x2 stacks, the rows whose ``lo`` is above the smallest
    ``hi`` in every column, for ``(lo, hi) = bounds(*stacks)`` (a NaN runs a
    row).  The first minimizer along axis 0, and its value, are the full
    values' bit for bit."""
    if bounds is None or stacks[0].shape[-1] != 2:
        return routine(*stacks)
    with np.errstate(all="ignore"):
        lo, hi = bounds(*stacks)
    keep = ~(lo > np.min(hi, axis=0))
    rows = np.flatnonzero(keep.reshape(len(keep), -1).any(axis=1))
    part = routine(*(s[rows] for s in stacks))
    out = np.full((len(keep),) + part.shape[1:], np.inf)
    out[rows] = part
    return out


def eigen_bounds(m, w=None):
    """Intervals around :func:`pencil_min_eigenvalue` ``(m, w)`` (or
    :func:`min_eigenvalue` ``(m)``) of a 2x2 stack: ``h - hypot((p - q) / 2,
    r)`` for the whitened diagonal ``p``, ``q``, their mean ``h`` and the
    symmetrized ``r``; the floor is infinite where LAPACK's copy can overflow.
    The pencil whitens its kept rows again, rescaled by powers of two:
    LAPACK's values rest on those bits."""
    return _eigen_bounds(m, w, 1.0 if w is None else np.max(np.abs(w)))[:2]


def _eigen_bounds(m, w, wmax):
    """:func:`eigen_bounds` for ``wmax = max |w|``, then each row's ``h - s``, ``|h| + s``."""
    c = m if w is None else _whiten(m, w)
    p, q = c[..., 0, 0], c[..., 1, 1]
    h, s = 0.5 * (p + q), np.hypot(0.5 * (p - q), 0.5 * (c[..., 0, 1] + c[..., 1, 0]))
    floor = (2.0**-1070 * (1.0 + np.max(np.abs(m)))) * (4.0 + 4.0 * wmax) ** 2
    low, size = h - s, np.abs(h) + s
    band = 2.0**-40 * size + 2.0**-1000 + floor
    return low - band, low + band, low, size


def minor_bounds(m):
    """Intervals around :func:`leading_principal_minors` of a 2x2 stack
    ``[[p, r], [t, q]]``, ``p`` and ``p q - r t``."""
    p, pq, rt = m[..., 0, 0], m[..., 0, 0] * m[..., 1, 1], m[..., 0, 1] * m[..., 1, 0]
    peak = 1.0 + np.max(np.abs(m))
    value = np.stack([p, pq - rt], axis=-1)
    band = 2.0**-40 * np.stack([np.abs(p), np.abs(pq) + np.abs(rt)], axis=-1)
    band += 2.0**-1000 + (2.0**-1070 * peak) * peak
    return value - band, value + band


def row_peaks(rows) -> np.ndarray:
    """``np.max(np.abs(rows), axis=-1)``, taken column by column: a maximum
    does not depend on the order, and NaN propagates."""
    rows = np.abs(rows)
    peak = rows[..., 0]
    for k in range(1, rows.shape[-1]):
        peak = np.maximum(peak, rows[..., k])
    return peak


def row_norms(rows) -> np.ndarray:
    """Euclidean norms of the rows of an (m, n) array, overflow-safe."""
    rows = np.asarray(rows, dtype=float)
    peak = row_peaks(rows)
    safe = np.where(peak > 0.0, peak, 1.0)
    # numpy sums 8 or more terms pairwise only along a contiguous row, as C-ordered rows are
    scaled = np.divide(rows, safe[:, None], order="K" if rows.shape[1] < 8 else "C")
    return safe * np.sqrt(np.sum(scaled * scaled, axis=1))
