"""Pairwise two-step cointegration screen.

For each pair of columns, the later column is regressed on the earlier one
(with a constant) and the residuals get a Dickey-Fuller test without
deterministic terms.  The p-value uses the two-series MacKinnon surface,
which accounts for the first-stage fit.  A small p-value means the residuals
look stationary, i.e. that the pair shares a common stochastic trend; such a
pair would make an unrestricted VAR in differences misspecified, so the
model search rejects a window when any pair's p-value is below its level.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateSeriesError, InsufficientDataError, ParameterError
from ..frames import TimeSeriesFrame
from .adf import adf_stat_fixed_lag, default_max_lag, mackinnon_pvalue, select_adf_lag
from .ols import ols


def engle_granger(frame: TimeSeriesFrame) -> tuple[float, ...]:
    """P-value of each column pair's cointegration test, pairs in (i, j), i < j order.

    The test presumes each input is integrated in levels; the caller owns
    that screening (the model search tests each column's differences first).
    Each residual test picks its lag by AIC up to Schwert's rule. Like
    ``adf_test``, it needs at least 20 observations.
    """
    if frame.n_columns < 2:
        raise ParameterError("cointegration needs at least two columns")
    n = len(frame)
    if n < 20:  # adf_test's floor, in its words
        raise InsufficientDataError(f"need at least 20 observations for max_lag=0, have {n}")
    lag = max(0, min(default_max_lag(n), n - 20))
    pvalues = []
    for i in range(frame.n_columns):
        for j in range(i + 1, frame.n_columns):
            design = np.column_stack([np.ones(n), frame.values[:, i]])
            fit = ols(design, frame.values[:, j])
            if fit is None:
                left, right = frame.names[i], frame.names[j]
                raise DegenerateSeriesError(f"first stage {right!r} on {left!r} is rank deficient")
            resid = fit.resid
            stat = adf_stat_fixed_lag(resid, select_adf_lag(resid, lag, "n"), regression="n")
            pvalues.append(mackinnon_pvalue(stat, nseries=2))
    return tuple(pvalues)
