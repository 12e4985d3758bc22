"""Restricted vector-autoregression engine."""

from .adf import AdfResult, adf_stat_fixed_lag, adf_test, default_max_lag, mackinnon_pvalue
from .analysis import FevdResult, IrfResult, fevd, irf, irf_cumulative
from .cointegration import engle_granger
from .diagnostics import (
    DiagnosticsReport,
    InfoCriteria,
    LjungBoxResult,
    StabilityResult,
    VariableDiagnostics,
    criteria_from_residuals,
    durbin_watson,
    ljung_box,
    ljung_box_statistic,
    run_diagnostics,
    sample_autocorr,
    stability_test,
)
from .granger import GrangerResult, granger_wald
from .model import (
    RVarModel,
    fit_restricted_var,
    load_model,
    residuals,
    save_model,
    zero_mask,
)

__all__ = [
    "AdfResult",
    "DiagnosticsReport",
    "FevdResult",
    "GrangerResult",
    "InfoCriteria",
    "IrfResult",
    "LjungBoxResult",
    "RVarModel",
    "StabilityResult",
    "VariableDiagnostics",
    "adf_stat_fixed_lag",
    "adf_test",
    "criteria_from_residuals",
    "default_max_lag",
    "durbin_watson",
    "engle_granger",
    "fevd",
    "fit_restricted_var",
    "granger_wald",
    "irf",
    "irf_cumulative",
    "ljung_box",
    "ljung_box_statistic",
    "load_model",
    "mackinnon_pvalue",
    "residuals",
    "run_diagnostics",
    "sample_autocorr",
    "save_model",
    "stability_test",
    "zero_mask",
]
