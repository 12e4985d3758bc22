"""Pairwise two-step cointegration screen.

For each pair of columns, the later column is regressed on the earlier one
(with a constant) and the residuals get a Dickey-Fuller test without
deterministic terms.  The p-value uses the two-series MacKinnon surface,
which accounts for the first-stage fit.  A small p-value means the residuals
look stationary, i.e. that the pair shares a common stochastic trend; such a
pair would make an unrestricted VAR in differences misspecified, so the
screen passes only when no pair is cointegrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateSeriesError, ParameterError
from ..frames import TimeSeriesFrame
from .adf import adf_stat_fixed_lag, default_max_lag, mackinnon_pvalue, select_adf_lag
from .ols import ols


@dataclass(frozen=True)
class CointegrationPair:
    left: str
    right: str
    stat: float
    pvalue: float
    cointegrated: bool


@dataclass(frozen=True)
class CointegrationResult:
    pairs: tuple[CointegrationPair, ...]
    alpha: float

    @property
    def cointegrated(self) -> bool:
        return any(p.cointegrated for p in self.pairs)

    @property
    def screen_ok(self) -> bool:
        return not self.cointegrated


def engle_granger(frame: TimeSeriesFrame, alpha: float) -> CointegrationResult:
    """Screen every column pair for cointegration at level ``alpha``.

    The test presumes each input is integrated in levels; the caller owns
    that screening (the model search tests each column's differences first).
    Each residual test picks its lag by AIC up to Schwert's rule.
    """
    if frame.n_columns < 2:
        raise ParameterError("cointegration needs at least two columns")
    lag = max(0, min(default_max_lag(len(frame)), len(frame) - 20))
    pairs = []
    for i in range(frame.n_columns):
        for j in range(i + 1, frame.n_columns):
            left, right = frame.names[i], frame.names[j]
            design = np.column_stack([np.ones(len(frame)), frame.values[:, i]])
            fit = ols(design, frame.values[:, j])
            if fit is None:
                raise DegenerateSeriesError(f"first stage {right!r} on {left!r} is rank deficient")
            resid = fit.resid
            stat = adf_stat_fixed_lag(resid, select_adf_lag(resid, lag, "n"), regression="n")
            pvalue = mackinnon_pvalue(stat, nseries=2)
            pairs.append(CointegrationPair(left, right, stat, pvalue, pvalue < alpha))
    return CointegrationResult(tuple(pairs), alpha)
