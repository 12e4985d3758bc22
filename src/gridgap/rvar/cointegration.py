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

from ..errors import DomainError, ParameterError
from ..frames import TimeSeriesFrame
from .adf import adf_stat_fixed_lag, adf_test, default_max_lag, mackinnon_pvalue, select_adf_lag


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


def engle_granger(
    frame: TimeSeriesFrame,
    alpha: float = 0.05,
    max_lag: int | None = None,
    check_inputs: bool = True,
) -> CointegrationResult:
    """Screen every column pair for cointegration.

    The test presumes each input is integrated in levels; with
    ``check_inputs`` a column that already rejects its unit root at ``alpha``
    is refused.  Callers that have run their own stationarity screening (the
    model search does) can skip the recheck.
    """
    if frame.n_columns < 2:
        raise ParameterError("cointegration needs at least two columns")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if check_inputs:
        for name in frame.names:
            result = adf_test(frame.column(name), regression="c", max_lag=max_lag)
            if result.rejects_unit_root(alpha):
                raise DomainError(
                    f"column {name!r} already looks stationary in levels "
                    f"(ADF p={result.pvalue:.4f}); cointegration is undefined"
                )
    lag = max_lag if max_lag is not None else default_max_lag(len(frame))
    lag = max(0, min(lag, len(frame) - 20))
    pairs = []
    for i in range(frame.n_columns):
        for j in range(i + 1, frame.n_columns):
            left, right = frame.names[i], frame.names[j]
            x = frame.values[:, i]
            y = frame.values[:, j]
            design = np.column_stack([np.ones(len(x)), x])
            beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ beta
            stat = adf_stat_fixed_lag(resid, select_adf_lag(resid, lag, "n"), regression="n")
            pvalue = mackinnon_pvalue(stat, regression="c", nseries=2)
            pairs.append(CointegrationPair(left, right, stat, pvalue, pvalue < alpha))
    return CointegrationResult(tuple(pairs), alpha)

