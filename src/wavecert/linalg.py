"""Dense symmetric-matrix tests on whole stacks of small matrices (n <= 8).

Every routine takes a stack ``(..., n, n)`` and returns one value (or one
row) per matrix; a single ``(n, n)`` matrix is a stack of one.  Eigenvalues
come from LAPACK through ``np.linalg.eigvalsh``, the pencil is whitened by
multiplying with the caller's inverse Cholesky factors (a two-sided scaling
when they are diagonal), and leading principal minors come from batched
determinants; the minors (Sylvester's criterion) are an independent
cross-check of positive definiteness.

Exponential weights at large rates produce matrices whose entries approach
the double-precision range, so each matrix is first rescaled by its own
exact power of two (a lossless mantissa-preserving operation) and the
results are scaled back; squares and products of entries then stay inside
the representable range, and a stack mixing tiny and huge matrices gives
each one the result it would get alone.
"""

import numpy as np


def _scaled(mats):
    """The stack rescaled per matrix, and the exponents that undo it.

    Each matrix is divided by ``2**floor(log2(peak))`` for its largest entry
    (by 1 when that entry is zero or not finite).
    """
    mats = np.asarray(mats, dtype=float)
    peak = np.max(np.abs(mats), axis=(-2, -1))
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
    scaled, exp = _scaled(m)
    if np.ndim(w) < scaled.ndim:
        c = (scaled * w[..., :, None]) * w[..., None, :]
    else:
        c = w @ scaled @ np.swapaxes(w, -1, -2)
    c = 0.5 * (c + np.swapaxes(c, -1, -2))
    return np.ldexp(np.linalg.eigvalsh(c)[..., 0], exp)


def row_norms(rows) -> np.ndarray:
    """Euclidean norms of the rows of an (m, n) array, overflow-safe."""
    rows = np.asarray(rows, dtype=float)
    peak = np.max(np.abs(rows), axis=1)
    safe = np.where(peak > 0.0, peak, 1.0)
    scaled = rows / safe[:, None]
    return safe * np.sqrt(np.sum(scaled * scaled, axis=1))
