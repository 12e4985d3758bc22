"""Augmented Dickey-Fuller unit-root test.

The regression is

    dy_t = gamma * y_{t-1} + sum_{i=1..k} delta_i * dy_{t-i} + deterministics + e_t

with the lag order k chosen by minimizing the Akaike criterion over a common
sample, and the p-value of the t-statistic on gamma read from the MacKinnon
(1994, updated 2010) response-surface approximation.  The surface tables also
cover regressions on residuals of a first-stage cointegrating fit (nseries
greater than 1), which the pairwise cointegration screen relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ..errors import DegenerateSeriesError, InsufficientDataError, ParameterError
from .ols import ols

REGRESSIONS = ("n", "c", "ct")

# MacKinnon response-surface coefficients.  First axis is nseries-1, second
# (for the small-p/large-p tables) the polynomial coefficients; the small-p
# polynomial applies below tau_star, the large-p one above it, and outside
# [tau_min, tau_max] the p-value saturates at 0 or 1.
_TAU_STAR = {
    "n": [-1.04, -1.53, -2.68, -3.09, -3.07, -3.77],
    "c": [-1.61, -2.62, -3.13, -3.47, -3.78, -3.93],
    "ct": [-2.89, -3.19, -3.50, -3.65, -3.80, -4.36],
}
_TAU_MIN = {
    "n": [-19.04, -19.62, -21.21, -23.25, -21.63, -25.74],
    "c": [-18.83, -18.86, -23.48, -28.07, -25.96, -23.27],
    "ct": [-16.18, -21.15, -25.37, -26.63, -26.53, -26.18],
}
_TAU_MAX = {
    "n": [np.inf, 1.51, 0.86, 0.88, 1.05, 1.24],
    "c": [2.74, 0.92, 0.55, 0.61, 0.79, 1.0],
    "ct": [0.7, 0.63, 0.71, 0.93, 1.19, 1.42],
}
_SMALL_SCALING = np.array([1.0, 1.0, 1e-2])
_TAU_SMALLP = {
    "n": np.array(
        [
            [0.6344, 1.2378, 3.2496],
            [1.9129, 1.3857, 3.5322],
            [2.7648, 1.4502, 3.4186],
            [3.4336, 1.4835, 3.19],
            [4.0999, 1.5533, 3.59],
            [4.5388, 1.5344, 2.9807],
        ]
    )
    * _SMALL_SCALING,
    "c": np.array(
        [
            [2.1659, 1.4412, 3.8269],
            [2.92, 1.5012, 3.9796],
            [3.4699, 1.4856, 3.164],
            [3.9673, 1.4777, 2.6315],
            [4.5509, 1.5338, 2.9545],
            [5.1399, 1.6036, 3.4445],
        ]
    )
    * _SMALL_SCALING,
    "ct": np.array(
        [
            [3.2512, 1.6047, 4.9588],
            [3.6646, 1.5419, 3.6448],
            [4.0983, 1.5173, 2.9898],
            [4.5844, 1.5338, 2.8796],
            [5.0722, 1.5634, 2.9472],
            [5.53, 1.5914, 3.0392],
        ]
    )
    * _SMALL_SCALING,
}
_LARGE_SCALING = np.array([1.0, 1e-1, 1e-1, 1e-2])
_TAU_LARGEP = {
    "n": np.array(
        [
            [0.4797, 9.3557, -0.6999, 3.3066],
            [1.5578, 8.558, -2.083, -3.3549],
            [2.2268, 6.8093, -3.2362, -5.4448],
            [2.7654, 6.4502, -3.0811, -4.4946],
            [3.2684, 6.8051, -2.6778, -3.4972],
            [3.7268, 7.167, -2.3648, -2.8288],
        ]
    )
    * _LARGE_SCALING,
    "c": np.array(
        [
            [1.7339, 9.3202, -1.2745, -1.0368],
            [2.1945, 6.4695, -2.9198, -4.2377],
            [2.5893, 4.5168, -3.6529, -5.0074],
            [3.0387, 4.5452, -3.3666, -4.1921],
            [3.5049, 5.2098, -2.9158, -3.3468],
            [3.9489, 5.8933, -2.5359, -2.721],
        ]
    )
    * _LARGE_SCALING,
    "ct": np.array(
        [
            [2.5261, 6.1654, -3.7956, -6.0285],
            [2.85, 5.272, -3.6622, -5.1695],
            [3.221, 5.255, -3.2685, -4.1501],
            [3.652, 5.9758, -2.7483, -3.2081],
            [4.0712, 6.6428, -2.3464, -2.546],
            [4.4735, 7.1757, -2.0681, -2.1196],
        ]
    )
    * _LARGE_SCALING,
}


def mackinnon_pvalue(stat: float, regression: str = "c", nseries: int = 1) -> float:
    """Response-surface p-value for a Dickey-Fuller tau statistic.

    ``nseries`` is 1 for a plain unit-root test; larger values give the
    distribution of the statistic computed on residuals of a first-stage
    regression on ``nseries - 1`` other integrated series.
    """
    if regression not in REGRESSIONS:
        raise ParameterError(f"regression must be one of {REGRESSIONS}, got {regression!r}")
    if not 1 <= nseries <= 6:
        raise ParameterError(f"nseries must lie in 1..6, got {nseries}")
    row = nseries - 1
    if stat > _TAU_MAX[regression][row]:
        return 1.0
    if stat < _TAU_MIN[regression][row]:
        return 0.0
    if stat <= _TAU_STAR[regression][row]:
        coef = _TAU_SMALLP[regression][row]
    else:
        coef = _TAU_LARGEP[regression][row]
    return float(ndtr(np.polyval(coef[::-1], stat)))


@dataclass(frozen=True)
class AdfResult:
    stat: float
    pvalue: float
    used_lag: int
    nobs: int
    regression: str

    def rejects_unit_root(self, alpha: float = 0.05) -> bool:
        return self.pvalue < alpha


def default_max_lag(n: int) -> int:
    """Schwert's rule of thumb, capped at 12 lags."""
    return min(12, int(np.floor(12.0 * (n / 100.0) ** 0.25)))


def _adf_design(y: np.ndarray, lags: int, regression: str):
    """``[y_{t-1}, deterministics, dy_{t-1}, ..., dy_{t-lags}]`` and ``dy_t`` for t > lags."""
    dy = np.diff(y)
    rows = len(dy) - lags
    cols = [y[lags : lags + rows]]
    if regression in ("c", "ct"):
        cols.append(np.ones(rows))
    if regression == "ct":
        cols.append(np.arange(1.0, rows + 1))
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

    The columns are ordered ``[y_{t-1}, deterministics, dy_{t-1}, ...,
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


def adf_test(series, regression: str = "c", max_lag: int | None = None) -> AdfResult:
    """Unit-root test with AIC lag selection.

    ``series`` is a 1-D array.  The null hypothesis is a unit root; small
    p-values argue for stationarity.
    """
    if regression not in REGRESSIONS:
        raise ParameterError(f"regression must be one of {REGRESSIONS}, got {regression!r}")
    y = np.asarray(series, dtype=np.float64).ravel()
    n = len(y)
    if max_lag is None:
        max_lag = max(0, min(default_max_lag(n), n - 21))
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
    if n < 20 + max_lag:
        raise InsufficientDataError(
            f"need at least {20 + max_lag} observations for max_lag={max_lag}, have {n}"
        )
    if np.ptp(y) == 0.0:
        raise DegenerateSeriesError("series is constant")
    # pick the lag on a common sample, then refit with every usable row
    used_lag = select_adf_lag(y, max_lag, regression)
    stat = adf_stat_fixed_lag(y, used_lag, regression)
    pvalue = mackinnon_pvalue(stat, regression, 1)
    return AdfResult(stat, pvalue, used_lag, n - 1 - used_lag, regression)
