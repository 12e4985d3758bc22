"""Least squares through one QR, the kernel of every rvar regression, and the
one module that imports scipy.

The R of ``[X | y]`` holds X's own R and, in its last column, ``z = Qᵀy`` above
``±‖resid‖``.  A trailing block of coefficients has Wald statistic ``‖z_block‖²/σ²``
and the last one t-statistic ``z_last·sign(R_ll)/σ``; neither forms ``XᵀX``.
These regressions are far too small to gain from BLAS threads, so scipy's
OpenBLAS, which runs their LAPACK calls, is pinned to one for good. scipy loads
and is pinned on the first statistic, before any pool forks: every call into
scipy goes through ``scipy_routines``, so a command that runs no statistic never
imports it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..blas import pin_threads, scipy_openblas


class ScipyRoutines(NamedTuple):
    """The scipy functions rvar calls."""

    dgeqrf: Callable
    dlange: Callable
    dtrtri: Callable
    dtrtrs: Callable
    qr: Callable  # scipy.linalg.qr, for the pivoted QR that names collinear columns
    chdtrc: Callable  # chi-square upper tail
    ndtr: Callable  # standard normal lower tail


@functools.cache
def scipy_routines() -> ScipyRoutines:
    """The scipy functions rvar calls, imported on the first call, which also
    pins scipy's OpenBLAS to one thread.

    Importing ``scipy.special`` alone loads that library and starts its thread
    server, so the import and the pin are one call: a pool forked between the
    two would have each worker restart the server. ``run_search`` calls this
    before its pool starts, so forked workers inherit the pin.
    """
    import scipy
    from scipy.linalg import qr
    from scipy.linalg.lapack import dgeqrf, dlange, dtrtri, dtrtrs
    from scipy.special import chdtrc, ndtr

    if (handle := scipy_openblas(scipy)) is not None:
        pin_threads(handle, 1)
    return ScipyRoutines(dgeqrf, dlange, dtrtri, dtrtrs, qr, chdtrc, ndtr)


@dataclass(frozen=True)
class LeastSquares:
    beta: np.ndarray
    resid: np.ndarray
    r: np.ndarray  # R of [X | y]


def numerical_rank(r: np.ndarray, rows: int) -> int:
    """Rank of a ``rows``-row design from its R, at numpy's SVD solver cutoff."""
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.count_nonzero(s > s[0] * max(rows, r.shape[1]) * np.finfo(float).eps))


def _clearly_full_rank(head: np.ndarray, rows: int) -> bool:
    """Whether ``σ_min ≥ 1/‖R⁻¹‖_F`` and ``σ_max ≤ ‖R‖_F`` clear ``numerical_rank``'s
    cutoff with a 2× margin; a singular or non-finite R reads False."""
    lapack = scipy_routines()
    inv, info = lapack.dtrtri(head)
    # LAPACK's Frobenius norm scales as it sums, so it cannot overflow
    cutoff = 2 * max(rows, head.shape[1]) * np.finfo(float).eps * lapack.dlange("f", head)
    return info == 0 and 1 / lapack.dlange("f", inv) > cutoff


def ols(x: np.ndarray, y: np.ndarray) -> LeastSquares | None:
    """Fit ``y ≈ x β``; None when ``x`` is rank deficient."""
    lapack = scipy_routines()
    rows, m = x.shape
    a = np.empty((rows, m + 1), order="F")  # LAPACK's layout, so dgeqrf factors it in place
    a[:, :m] = x
    a[:, m] = y
    r = np.triu(lapack.dgeqrf(a, overwrite_a=1)[0][: min(rows, m + 1)])
    head = r[:m, :m]
    if not (0 < m <= rows and _clearly_full_rank(head, rows)):
        if numerical_rank(head, rows) < m:  # the SVD decides what the bound cannot
            return None
    beta = lapack.dtrtrs(head, r[:m, m])[0]  # back substitution on the upper triangle
    return LeastSquares(beta, y - x @ beta, r)
