"""Least squares through one QR, the kernel of every rvar regression.

The R of ``[X | y]`` holds X's own R and, in its last column, ``z = Qᵀy`` above
``±‖resid‖``.  A trailing block of coefficients has Wald statistic ``‖z_block‖²/σ²``
and the last one t-statistic ``z_last·sign(R_ll)/σ``; neither forms ``XᵀX``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs


@dataclass(frozen=True)
class LeastSquares:
    beta: np.ndarray
    resid: np.ndarray
    r: np.ndarray  # R of [X | y]


def numerical_rank(r: np.ndarray, rows: int) -> int:
    """Rank of a ``rows``-row design from its R, at numpy's SVD solver cutoff."""
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.count_nonzero(s > s[0] * max(rows, r.shape[1]) * np.finfo(float).eps))


def ols(x: np.ndarray, y: np.ndarray) -> LeastSquares | None:
    """Fit ``y ≈ x β``; None when ``x`` is rank deficient."""
    rows, m = x.shape
    r = np.linalg.qr(np.column_stack([x, y]), mode="r")
    if numerical_rank(r[:m, :m], rows) < m:
        return None
    beta = dtrtrs(r[:m, :m], r[:m, m])[0]  # back substitution on the upper triangle
    return LeastSquares(beta, y - x @ beta, r)
