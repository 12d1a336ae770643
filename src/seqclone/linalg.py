"""Dense complex linear algebra used by the rest of the package.

All matrices are ``numpy.ndarray`` of complex128 with ``ndim == 2``.
Conventions fixed here and relied upon everywhere else:

* singular values are returned in non-increasing order,
* QR factors are thin (``q`` has ``min(m, n)`` orthonormal columns) and
  come straight from LAPACK's ``zgeqrf``/``zungqr``, with no phase fix,
  through numpy's private ``numpy.linalg.lapack_lite`` (no scipy import):
  :func:`qr` copies its input into LAPACK's column-major layout, which is
  the C-contiguous transpose, and the ALS sweep passes such an array of its
  own, with buffers it keeps, to the private in-place :func:`_householder`,
* SVD phases are made deterministic (the first entry of every left singular
  vector whose magnitude is within a relative ``PIVOT_RTOL`` of the largest
  is real and positive),
* a singular value counts as numerically nonzero iff it exceeds
  ``RANK_RTOL`` times the largest one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import lapack_lite

from .errors import NumericalFailure

# Relative threshold below which a singular value is treated as zero.
RANK_RTOL = 1e-10
# Entries this close (relatively) to a singular vector's largest magnitude
# tie for its phase pivot; the first of them wins.
PIVOT_RTOL = 1e-9


class SVDResult(NamedTuple):
    """Decomposition ``a = left @ diag(singulars) @ right.conj().T``.

    ``left`` and ``right`` both have orthonormal columns; ``singulars`` is a
    real vector sorted in non-increasing order.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"a must be a nonempty 2-d array, got shape {a.shape}")
    return a


def svd(a: np.ndarray) -> SVDResult:
    """Thin SVD with a deterministic phase convention.

    Each left singular vector is rotated so its pivot is real-positive (the
    compensating phase goes into the right vector).  The pivot is the first
    entry whose magnitude is at least ``1 - PIVOT_RTOL`` times the largest,
    so entries that tie up to rounding (such as ``+-0.5``) do not let noise
    pick it: repeated decompositions of the same matrix are bit-stable, and
    matrices equal up to rounding get the same gauge.

    Raises:
        ValueError: empty input.
        NumericalFailure: the underlying LAPACK iteration did not converge.
    """
    a = _as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"SVD failed to converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    u = np.asarray(u, dtype=np.complex128)
    vh = np.asarray(vh, dtype=np.complex128)
    # columns of u have unit norm, so every pivot magnitude is positive
    mags = np.abs(u)
    pivots = np.argmax(mags >= (1.0 - PIVOT_RTOL) * mags.max(axis=0), axis=0)
    cols = np.arange(u.shape[1])
    phase = u[pivots, cols] / mags[pivots, cols]
    u *= phase.conj()
    vh *= phase[:, None]
    return SVDResult(left=u, singulars=s, right=vh.conj().T)


def _householder(p, tau, work, with_r=False):
    """:func:`qr` of ``a = p.T`` in place: ``(q, r)``, ``r`` only ``with_r``.

    ``p``, a C-contiguous complex128 ``n x m`` array, is the ``m x n``
    matrix ``a`` in LAPACK's column-major layout; the ``zgeqrf``/``zungqr``
    pair overwrites it, and ``q``, ``m x k`` with ``k = min(m, n)``, is the
    view ``p[:k].T``.  ``tau`` and ``work`` are complex128 buffers of at
    least ``n`` and ``3 n`` entries, reusable across calls and shapes.  No
    size is checked (LAPACK would write past a short buffer) and nothing is
    allocated, so a loop of small factorizations (the ALS sweep, which sizes
    its buffers once) pays for the two LAPACK calls alone.
    """
    n, m = p.shape
    k = m if m < n else n  # cheaper than calling min() on every sweep visit
    info = lapack_lite.zgeqrf(m, n, p, m, tau, work, 3 * n, 0)["info"]
    # zungqr overwrites the packed factor, whose upper triangle is r
    r = np.triu(p.T[:k]) if with_r else None
    if info == 0:
        info = lapack_lite.zungqr(m, k, k, p, m, tau, work, 3 * k, 0)["info"]
    if info != 0:
        raise NumericalFailure(f"QR failed (LAPACK info {info}) for a {m}x{n} matrix")
    return p[:k].T, r


def qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR ``a = q @ r`` by one ``zgeqrf``/``zungqr`` pair.

    For an ``m x n`` input, ``q`` is ``m x k`` with orthonormal columns and
    ``r`` is ``k x n`` upper triangular, ``k = min(m, n)``.  These are the
    routines behind ``numpy.linalg.qr(a)``, called without its per-call cost
    through ``numpy.linalg.lapack_lite``.  That module is private but present
    in numpy (numpy's own API tests list it so); the QR tests fail if a numpy
    release drops or changes it.  Up to ``k = 128``, LAPACK's unblocked
    range, the factors are the same bits as ``numpy.linalg.qr``'s.  Above
    it the block size follows the workspace, here ``3 n`` (``3 k`` for
    ``zungqr``) as in scipy's LAPACK wrappers, and the bits may differ.
    The ALS sweep runs the same pair through :func:`_householder` on
    buffers it owns.

    Raises:
        ValueError: empty input.
        NumericalFailure: LAPACK reported an error.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    tau, work = np.empty(n, np.complex128), np.empty(3 * n, np.complex128)
    return _householder(a.T.copy(), tau, work, with_r=True)  # the copy: LAPACK's layout
