"""Stationarity and smoothing transforms over daily frames.

These are pure functions: they never mutate their inputs and always return
new frames.  Missing values are rejected up front; quality control happens in
the ingest layer, not here.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .errors import (
    InsufficientDataError,
    MissingValueError,
    ParameterError,
)
from .frames import TimeSeriesFrame


def _reject_missing(values: np.ndarray, what: str):
    if np.isnan(values).any():
        raise MissingValueError(f"{what} contains missing values; run QC first")


def difference(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """First differences; each row is dated by the later of its two days."""
    if len(frame) <= 1:
        raise InsufficientDataError(f"need more than 1 rows to difference, have {len(frame)}")
    _reject_missing(frame.values, "difference input")
    return TimeSeriesFrame(frame.dates[1:], frame.names, np.diff(frame.values, axis=0))


def centered_trend(series: np.ndarray, period: int = 7) -> np.ndarray:
    """Centered moving-average trend with nearest-value edge extension.

    A width-``period`` uniform convolution removes a seasonal component of
    that period exactly.  The series ends are padded with their edge values
    so the trend is defined on every day.
    """
    series = np.asarray(series, dtype=np.float64)
    if period < 2:
        raise ParameterError(f"period must be >= 2, got {period}")
    if series.ndim != 1:
        raise ParameterError("centered_trend expects a 1-D series")
    left = period // 2
    right = period - 1 - left
    padded = np.concatenate(
        [np.full(left, series[0]), series, np.full(right, series[-1])]
    )
    kernel = np.full(period, 1.0 / period)
    return np.convolve(padded, kernel, mode="valid")


def trend_transition(
    frame: TimeSeriesFrame,
    column: str,
    period: int = 7,
    tol_fraction: float = 0.05,
) -> tuple[np.ndarray, dt.date, dt.date, bool]:
    """Locate the window in which a smoothed series moves between regimes.

    The trend is the centered moving average of :func:`centered_trend`.  The
    transition begins on the latest day whose trend value still matches the
    mean of all preceding trend values, and ends on the earliest later day
    whose trend value matches the mean of all following trend values.
    "Matches" means within ``tol_fraction`` of the trend range of the best
    attainable closeness; the tolerance makes the rule robust to smoothing
    bleed at the regime edges.  A constant series yields a degenerate
    transition flagged on the first date.

    Returns ``(trend, begin, end, degenerate)``: the trend, one value per
    row, and the inclusive window ``begin <= end`` with its flag.
    """
    if not 0.0 <= tol_fraction < 1.0:
        raise ParameterError("tol_fraction must lie in [0, 1)")
    series = frame.column(column)
    _reject_missing(series, f"column {column!r}")
    if len(series) < 2 * period:
        raise InsufficientDataError(
            f"need at least {2 * period} rows for period {period}, have {len(series)}"
        )
    trend = centered_trend(series, period)
    span = float(np.max(trend) - np.min(trend))
    scale = max(1.0, float(np.abs(trend).max()))
    if span <= 1e-12 * scale:
        return trend, frame.dates[0], frame.dates[0], True
    tol = tol_fraction * span
    n = len(trend)
    prefix_mean = np.cumsum(trend)[:-1] / np.arange(1, n)
    begin_gap = np.abs(trend[1:] - prefix_mean)  # entry k-1 scores day k
    qualifying = np.flatnonzero(begin_gap <= begin_gap.min() + tol)
    begin = int(qualifying[-1]) + 1
    suffix_mean = (np.cumsum(trend[::-1])[:-1] / np.arange(1, n))[::-1]
    end_gap = np.abs(trend[:-1] - suffix_mean)  # entry k scores day k
    tail = end_gap[begin:] if begin < len(end_gap) else end_gap[-1:]
    qualifying = np.flatnonzero(tail <= tail.min() + tol)
    end = min(begin, len(end_gap) - 1) + int(qualifying[0])
    end = max(end, begin)
    return trend, frame.dates[begin], frame.dates[end], False
