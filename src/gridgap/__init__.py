"""Counterfactual load backcasting and restricted-VAR attribution.

The package harmonizes hourly load and weather data; estimates what
consumption would have been absent a disruption with a neural-network
ensemble; and explains the measured consumption gap with a restricted
vector-autoregression engine (unit-root, cointegration, and causality
screening; constrained least squares; impulse responses; forecast error
variance decomposition; automated model search).  The search takes any
driver, mobility included, as a prepared series column.
"""

__version__ = "0.1.0"

from .frames import (
    TimeSeriesFrame,
    federal_holidays,
)
from .transforms import (
    centered_trend,
    difference,
    trend_transition,
)

__all__ = [
    "TimeSeriesFrame",
    "__version__",
    "centered_trend",
    "difference",
    "federal_holidays",
    "trend_transition",
]
