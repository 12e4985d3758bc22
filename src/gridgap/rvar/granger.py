"""Bivariate Granger causality via a Wald test on lag coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from ..errors import CollinearityError, InsufficientDataError, ParameterError
from ..frames import TimeSeriesFrame


@dataclass(frozen=True)
class GrangerResult:
    cause: str
    effect: str
    lags: int
    stat: float
    pvalue: float

    def causal(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha


def granger_wald(frame: TimeSeriesFrame, cause: str, effect: str, lags: int) -> GrangerResult:
    """Test whether ``cause`` helps predict ``effect`` beyond its own lags.

    The unrestricted regression has a constant and ``lags`` lags of both
    series; the Wald statistic on the cause-lag block is compared against a
    chi-square with ``lags`` degrees of freedom.
    """
    if lags < 1:
        raise ParameterError(f"lags must be >= 1, got {lags}")
    if cause == effect:
        raise ParameterError("cause and effect must name different columns")
    x_cause = frame.column(cause)
    y = frame.column(effect)
    t = len(y)
    nparams = 1 + 2 * lags
    if t - lags < nparams + 1:
        raise InsufficientDataError(
            f"need at least {lags + nparams + 1} rows for lags={lags}, have {t}"
        )
    rows = t - lags
    cols = [np.ones(rows)]
    for k in range(1, lags + 1):
        cols.append(y[lags - k : lags - k + rows])
    for k in range(1, lags + 1):
        cols.append(x_cause[lags - k : lags - k + rows])
    design = np.column_stack(cols)
    resp = y[lags:]
    beta, _, rank, _ = np.linalg.lstsq(design, resp, rcond=None)
    if rank < design.shape[1]:
        raise CollinearityError(
            f"regressors for {effect!r} on {cause!r} are collinear "
            "(identical or linearly dependent columns)",
            (cause, effect),
        )
    resid = resp - design @ beta
    sigma2 = float(resid @ resid) / (rows - nparams)
    xtx_inv = np.linalg.inv(design.T @ design)
    sel = slice(1 + lags, 1 + 2 * lags)
    b = beta[sel]
    cov = sigma2 * xtx_inv[sel, sel]
    stat = float(b @ np.linalg.solve(cov, b))
    # chdtrc is nan below 0, where the chi-square survival is 1
    pvalue = float(chdtrc(lags, max(stat, 0.0)))
    return GrangerResult(cause, effect, lags, stat, pvalue)
