"""Restriction-mask construction and variance-explanation scoring.

Masks encode which lag coefficients are pinned to zero before estimation.
Rule 1 cuts feedback from the first (target) variable into every driver
equation; rules 2 and 3 additionally cut driver pairs whose precedence test
is too weak, at thresholds 0.1 and 0.05.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..frames import TimeSeriesFrame
from ..rvar import FevdResult, granger_wald, zero_mask

GRANGER_THRESHOLDS = {1: None, 2: 0.1, 3: 0.05}


def build_restriction_mask(frame: TimeSeriesFrame, p: int, rule: int) -> np.ndarray:
    """Zero-restriction tensor of shape (p, n, n), identical across lags.

    The precedence tests run at ``lags=p``, the candidate order under
    evaluation.
    """
    if rule not in GRANGER_THRESHOLDS:
        raise ParameterError(f"rule must be 1, 2 or 3, got {rule}")
    if p < 1:
        raise ParameterError(f"order must be >= 1, got {p}")
    pvalues = None
    if GRANGER_THRESHOLDS[rule] is not None:
        pvalues = granger_pvalues(frame, p)
    return rule_mask(p, frame.n_columns, rule, pvalues)


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
    """Mask of ``rule`` at order ``p``; rules 2 and 3 need ``granger_pvalues``."""
    mask = zero_mask(p, n)
    mask[:] = _target_cut(n)
    threshold = GRANGER_THRESHOLDS[rule]
    if threshold is not None:
        mask[:, pvalues > threshold] = True
    return mask


def explainable_rate(fevd: FevdResult, target, horizon: int | None = None) -> float:
    """Percent of the target's forecast error variance driven by other shocks.

    100 x (1 - own-shock share) at ``horizon`` (default: the decomposition's
    final step).
    """
    h = fevd.horizon if horizon is None else horizon
    if not 1 <= h <= fevd.horizon:
        raise ParameterError(f"horizon must be in 1..{fevd.horizon}, got {h}")
    i = fevd.names.index(target) if isinstance(target, str) else int(target)
    return float(100.0 * (1.0 - fevd.shares[h - 1, i, i]))
