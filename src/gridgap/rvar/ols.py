"""Least squares through one QR, the kernel of every rvar regression.

The R of ``[X | y]`` holds X's own R and, in its last column, ``z = Qᵀy`` above
``±‖resid‖``.  A trailing block of coefficients has Wald statistic ``‖z_block‖²/σ²``
and the last one t-statistic ``z_last·sign(R_ll)/σ``; neither forms ``XᵀX``.
These regressions are far too small to gain from BLAS threads, so importing
this module pins scipy's OpenBLAS, which runs its LAPACK calls, to one for good.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dlange, dtrtri, dtrtrs

from ..blas import pin_threads, scipy_openblas

if (_SCIPY_BLAS := scipy_openblas()) is not None:
    pin_threads(_SCIPY_BLAS, 1)


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
    inv, info = dtrtri(head)
    # LAPACK's Frobenius norm scales as it sums, so it cannot overflow
    cutoff = 2 * max(rows, head.shape[1]) * np.finfo(float).eps * dlange("f", head)
    return info == 0 and 1 / dlange("f", inv) > cutoff


def ols(x: np.ndarray, y: np.ndarray) -> LeastSquares | None:
    """Fit ``y ≈ x β``; None when ``x`` is rank deficient."""
    rows, m = x.shape
    a = np.empty((rows, m + 1), order="F")  # LAPACK's layout, so dgeqrf factors it in place
    a[:, :m] = x
    a[:, m] = y
    r = np.triu(dgeqrf(a, overwrite_a=1)[0][: min(rows, m + 1)])
    head = r[:m, :m]
    if not (0 < m <= rows and _clearly_full_rank(head, rows)):
        if numerical_rank(head, rows) < m:  # the SVD decides what the bound cannot
            return None
    beta = dtrtrs(head, r[:m, m])[0]  # back substitution on the upper triangle
    return LeastSquares(beta, y - x @ beta, r)
