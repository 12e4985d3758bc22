"""Augmented Dickey-Fuller unit-root test.

The regression is

    dy_t = gamma * y_{t-1} + sum_{i=1..k} delta_i * dy_{t-i} + c + e_t

with the lag order k chosen by minimizing the Akaike criterion over a common
sample, and the p-value of the t-statistic on gamma read from the MacKinnon
(1994, updated 2010) response-surface approximation for a regression with a
constant.  The surface's second row gives the distribution of the statistic
on residuals of a two-series cointegrating fit, which the pairwise
cointegration screen relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateSeriesError, InsufficientDataError, ParameterError
from .ols import ols, scipy_routines

# MacKinnon response-surface coefficients of the constant-only regression,
# one row per nseries (1, 2).  The small-p polynomial applies below tau_star,
# the large-p one above it, and outside [tau_min, tau_max] the p-value
# saturates at 0 or 1.
_TAU_STAR = (-1.61, -2.62)
_TAU_MIN = (-18.83, -18.86)
_TAU_MAX = (2.74, 0.92)
_TAU_SMALLP = np.array(
    [
        [2.1659, 1.4412, 3.8269],
        [2.92, 1.5012, 3.9796],
    ]
) * np.array([1.0, 1.0, 1e-2])
_TAU_LARGEP = np.array(
    [
        [1.7339, 9.3202, -1.2745, -1.0368],
        [2.1945, 6.4695, -2.9198, -4.2377],
    ]
) * np.array([1.0, 1e-1, 1e-1, 1e-2])


def mackinnon_pvalue(stat: float, nseries: int = 1) -> float:
    """Response-surface p-value for a Dickey-Fuller tau statistic.

    ``nseries`` is 1 for a plain unit-root test and 2 for the statistic
    computed on residuals of a first-stage regression on one other
    integrated series.
    """
    if nseries not in (1, 2):
        raise ParameterError(f"nseries must be 1 or 2, got {nseries}")
    row = nseries - 1
    if stat > _TAU_MAX[row]:
        return 1.0
    if stat < _TAU_MIN[row]:
        return 0.0
    coef = _TAU_SMALLP[row] if stat <= _TAU_STAR[row] else _TAU_LARGEP[row]
    return float(scipy_routines().ndtr(np.polyval(coef[::-1], stat)))


@dataclass(frozen=True)
class AdfResult:
    stat: float
    pvalue: float


def default_max_lag(n: int) -> int:
    """Schwert's rule of thumb, capped at 12 lags."""
    return min(12, int(np.floor(12.0 * (n / 100.0) ** 0.25)))


def _adf_design(y: np.ndarray, lags: int, regression: str):
    """``[y_{t-1}, constant if "c", dy_{t-1}, ..., dy_{t-lags}]`` and ``dy_t`` for t > lags.

    ``regression`` is ``"n"`` (no deterministic term) or ``"c"`` (a constant).
    """
    if regression not in ("n", "c"):
        raise ParameterError(f"regression must be 'n' or 'c', got {regression!r}")
    dy = np.diff(y)
    rows = len(dy) - lags
    cols = [y[lags : lags + rows]]
    if regression == "c":
        cols.append(np.ones(rows))
    cols.extend(dy[lags - i : lags - i + rows] for i in range(1, lags + 1))
    return np.column_stack(cols), dy[lags:]


def adf_stat_fixed_lag(series, lag: int, regression: str = "n") -> float:
    """Tau statistic of the regression at a fixed lag order, on every usable row."""
    x, dy = _adf_design(np.asarray(series, dtype=np.float64).ravel(), lag, regression)
    fit = ols(np.roll(x, -1, axis=1), dy)
    if fit is None:
        raise DegenerateSeriesError("ADF regression design is rank deficient")
    sigma = np.sqrt(float(fit.resid @ fit.resid) / (x.shape[0] - x.shape[1]))
    # y_{t-1}, moved last, owns R's next-to-last row: its t-statistic is z_last·sign(R_ll)/σ
    return float(fit.r[-2, -1] * np.sign(fit.r[-2, -2]) / sigma)


def select_adf_lag(y: np.ndarray, max_lag: int, regression: str) -> int:
    """Lag order in 0..max_lag with least AIC, all fitted on one common sample.

    The columns are ordered ``[y_{t-1}, constant if "c", dy_{t-1}, ...,
    dy_{t-max_lag}]`` so that every lag order is a column prefix, and one QR
    of ``[X | dy]`` gives every order's residual sum of squares: the squares
    of R's last column from that prefix's width down.
    """
    x, dy = _adf_design(y, max_lag, regression)
    rows = len(dy)
    if rows <= x.shape[1]:
        raise InsufficientDataError(
            f"ADF regression at max_lag={max_lag} needs more than {x.shape[1]} rows, has {rows}"
        )
    fit = ols(x, dy)  # a deficient prefix makes the whole design deficient
    if fit is None:
        raise DegenerateSeriesError("ADF regression design is rank deficient")
    tail = fit.r[:, -1]
    ssr = np.cumsum(tail[::-1] ** 2)[::-1]  # ssr[p]: sum of tail[p:] ** 2
    nparams = np.arange(x.shape[1] - max_lag, x.shape[1] + 1)
    aic = rows * np.log(ssr[nparams] / rows) + 2.0 * nparams
    return int(np.argmin(aic))  # the first minimum keeps the lowest order on ties


def adf_test(series) -> AdfResult:
    """Unit-root test with a constant and AIC lag selection up to Schwert's rule.

    ``series`` is a 1-D array.  The null hypothesis is a unit root; small
    p-values argue for stationarity.
    """
    y = np.asarray(series, dtype=np.float64).ravel()
    n = len(y)
    max_lag = max(0, min(default_max_lag(n), n - 21))
    if n < 20 + max_lag:
        raise InsufficientDataError(
            f"need at least {20 + max_lag} observations for max_lag={max_lag}, have {n}"
        )
    if np.ptp(y) == 0.0:
        raise DegenerateSeriesError("series is constant")
    # pick the lag on a common sample, then refit with every usable row
    used_lag = select_adf_lag(y, max_lag, "c")
    stat = adf_stat_fixed_lag(y, used_lag, "c")
    return AdfResult(stat, mackinnon_pvalue(stat))
