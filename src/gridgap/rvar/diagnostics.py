"""Residual diagnostics, stability, and information criteria."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, ParameterError
from ..frames import TimeSeriesFrame
from .adf import adf_test
from .model import RVarModel, residuals
from .ols import scipy_routines


def sample_autocorr(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelations rho_1..rho_max_lag around the sample mean."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = len(x)
    if max_lag >= n:
        raise ParameterError(f"max_lag {max_lag} must be < series length {n}")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ParameterError("zero-variance series has no autocorrelation")
    return np.array(
        [float(centered[k:] @ centered[:-k]) / denom for k in range(1, max_lag + 1)]
    )


def ljung_box_statistic(autocorr: np.ndarray, n: int) -> float:
    """Q = n(n+2) sum_i rho_i^2 / (n - i) for rho_1..rho_h."""
    rho = np.asarray(autocorr, dtype=np.float64).ravel()
    h = len(rho)
    if h == 0:
        return 0.0
    if n <= h:
        raise ParameterError(f"sample size {n} must exceed lag count {h}")
    i = np.arange(1, h + 1)
    return float(n * (n + 2.0) * np.sum(rho**2 / (n - i)))


@dataclass(frozen=True)
class LjungBoxResult:
    q: float
    pvalue: float


def ljung_box(series, lags: int = 40) -> LjungBoxResult:
    """Portmanteau whiteness test; the p-value uses chi-square with ``lags`` df."""
    x = np.asarray(series, dtype=np.float64).ravel()
    if lags < 1:
        raise ParameterError(f"lags must be >= 1, got {lags}")
    if len(x) <= lags:
        raise ParameterError(f"need more than {lags} observations, have {len(x)}")
    rho = sample_autocorr(x, lags)
    q = ljung_box_statistic(rho, len(x))
    return LjungBoxResult(q, float(scipy_routines().chdtrc(lags, q)))


def durbin_watson(series) -> float:
    """d = sum (e_t - e_{t-1})^2 / sum e_t^2; near 2 means no lag-1 correlation."""
    x = np.asarray(series, dtype=np.float64).ravel()
    if len(x) < 2:
        raise InsufficientDataError("Durbin-Watson needs at least two residuals")
    denom = float(x @ x)
    if denom == 0.0:
        raise ParameterError("all residuals are zero")
    return float(np.sum(np.diff(x) ** 2) / denom)


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    moduli: tuple[float, ...]  # eigenvalue moduli, largest first

    @property
    def max_modulus(self) -> float:
        return self.moduli[0]


def stability_test(model: RVarModel) -> StabilityResult:
    """Companion-matrix eigenvalue check: stable when no modulus exceeds one."""
    eigvals = np.linalg.eigvals(model.companion())
    moduli = tuple(sorted((abs(v) for v in eigvals), reverse=True))
    return StabilityResult(moduli[0] <= 1.0, moduli)


@dataclass(frozen=True)
class InfoCriteria:
    aic: float
    bic: float


def criteria_from_residuals(model: RVarModel, e: np.ndarray) -> InfoCriteria:
    """AIC and BIC from the covariance determinant of ``e = residuals(model, frame)``.

    aic = ln det(Sigma) + 2k/T and bic = ln det(Sigma) + k ln(T)/T, with k the
    count of free coefficients (intercepts included) and T the usable rows.
    """
    t_eff = e.shape[0]
    sigma = e.T @ e / t_eff
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ParameterError("residual covariance is singular; AIC/BIC undefined")
    k = model.free_coefficients
    aic = float(logdet + 2.0 * k / t_eff)
    bic = float(logdet + k * np.log(t_eff) / t_eff)
    return InfoCriteria(aic, bic)


@dataclass(frozen=True)
class VariableDiagnostics:
    name: str
    adf_stat: float
    adf_p: float
    lb_q: float
    lb_p: float
    dw: float


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-variable residual checks plus model-level summaries."""

    variables: tuple[VariableDiagnostics, ...]
    stability: StabilityResult
    aic: float
    bic: float
    cointegration_ok: bool | None = None

    def all_pass(
        self,
        lb_alpha: float = 0.05,
        adf_alpha: float = 0.05,
        dw_range: tuple[float, float] = (1.5, 2.5),
    ) -> bool:
        """Stationary, white, uncorrelated residuals and a stable system."""
        if not self.stability.stable:
            return False
        if self.cointegration_ok is False:
            return False
        for v in self.variables:
            if v.adf_p >= adf_alpha:
                return False
            if v.lb_p < lb_alpha:
                return False
            if not dw_range[0] <= v.dw <= dw_range[1]:
                return False
        return True


def run_diagnostics(
    model: RVarModel,
    frame: TimeSeriesFrame,
    cointegration_ok: bool | None = None,
    lb_lags: int = 40,
) -> DiagnosticsReport:
    """Compute the full residual health report for a fitted model."""
    resid = residuals(model, frame)
    lags = min(lb_lags, len(resid) - 1)
    rows = []
    for name, e in zip(model.names, resid.T):
        adf = adf_test(e)
        lb = ljung_box(e, lags)
        rows.append(
            VariableDiagnostics(name, adf.stat, adf.pvalue, lb.q, lb.pvalue, durbin_watson(e))
        )
    info = criteria_from_residuals(model, resid)
    return DiagnosticsReport(
        tuple(rows),
        stability_test(model),
        info.aic,
        info.bic,
        cointegration_ok,
    )
