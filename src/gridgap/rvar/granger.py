"""Bivariate Granger causality via a Wald test on lag coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from ..errors import CollinearityError, InsufficientDataError, ParameterError
from ..frames import TimeSeriesFrame
from .ols import ols


@dataclass(frozen=True)
class GrangerResult:
    stat: float
    pvalue: float


def granger_wald(frame: TimeSeriesFrame, cause: str, effect: str, lags: int) -> GrangerResult:
    """Test whether ``cause`` helps predict ``effect`` beyond its own lags.

    The unrestricted regression has a constant and ``lags`` lags of both
    series, the cause lags last; their Wald statistic, nonnegative by
    construction, is compared against a chi-square with ``lags`` df.
    """
    if lags < 1:
        raise ParameterError(f"lags must be >= 1, got {lags}")
    if cause == effect:
        raise ParameterError("cause and effect must name different columns")
    y, x_cause = frame.column(effect), frame.column(cause)
    t = len(y)
    nparams = 1 + 2 * lags
    if t - lags < nparams + 1:
        raise InsufficientDataError(
            f"need at least {lags + nparams + 1} rows for lags={lags}, have {t}"
        )
    rows = t - lags
    lagged = [s[lags - k : t - k] for s in (y, x_cause) for k in range(1, lags + 1)]
    fit = ols(np.column_stack([np.ones(rows), *lagged]), y[lags:])
    if fit is None:
        raise CollinearityError(
            f"regressors for {effect!r} on {cause!r} are collinear "
            "(identical or linearly dependent columns)"
        )
    sigma2 = float(fit.resid @ fit.resid) / (rows - nparams)
    z = fit.r[1 + lags : -1, -1]  # Qᵀy of the cause lags, the trailing block
    stat = float(z @ z) / sigma2
    return GrangerResult(stat, float(chdtrc(lags, stat)))
