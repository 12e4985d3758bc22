"""Restriction-mask construction and variance-explanation scoring.

Masks encode which lag coefficients are pinned to zero before estimation.
Rule 1 cuts feedback from the first (target) variable into every driver
equation; rules 2 and 3 additionally cut driver pairs whose precedence test
is too weak, at thresholds 0.1 and 0.05.
"""

from __future__ import annotations

import numpy as np

from ..frames import TimeSeriesFrame
from ..rvar import FevdResult, granger_wald, zero_mask

GRANGER_THRESHOLDS = {1: None, 2: 0.1, 3: 0.05}


def _target_cut(n: int) -> np.ndarray:
    """Rule 1 as an (n, n) mask: the target's lags stay out of every other equation."""
    cut = np.zeros((n, n), dtype=bool)
    cut[1:, 0] = True
    return cut


def granger_pvalues(frame: TimeSeriesFrame, lags: int) -> np.ndarray:
    """Precedence-test p-values that rules 2 and 3 threshold.

    Entry ``[i, j]`` tests column ``j`` as a cause of column ``i``; pairs on
    the diagonal or already cut by rule 1 are not tested and hold NaN.
    """
    n = frame.n_columns
    skip = _target_cut(n) | np.eye(n, dtype=bool)
    pvalues = np.full((n, n), np.nan)
    for i, effect in enumerate(frame.names):
        for j, cause in enumerate(frame.names):
            if not skip[i, j]:
                pvalues[i, j] = granger_wald(frame, cause=cause, effect=effect, lags=lags).pvalue
    return pvalues


def rule_mask(p: int, n: int, rule: int, pvalues: np.ndarray | None) -> np.ndarray:
    """Zero-restriction tensor of ``rule`` at order ``p``, shape (p, n, n), identical across lags.

    Rules 2 and 3 need the ``granger_pvalues`` tested at ``lags=p``.
    """
    mask = zero_mask(p, n)
    mask[:] = _target_cut(n)
    threshold = GRANGER_THRESHOLDS[rule]
    if threshold is not None:
        mask[:, pvalues > threshold] = True
    return mask


def explainable_rate(fevd: FevdResult, target: str) -> float:
    """Percent of the target's forecast error variance driven by other shocks:
    100 x (1 - own-shock share) at the decomposition's final step."""
    i = fevd.names.index(target)
    return float(100.0 * (1.0 - fevd.shares[-1, i, i]))
