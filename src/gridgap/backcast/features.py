"""Feature encoding for the daily counterfactual-load models.

Each training row describes one date: calendar one-hots, a holiday bit, the
day of month scaled to [0, 1], empirical quantiles of that day's hourly
weather readings, and an economic scalar.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import InsufficientDataError, ParameterError, UnknownColumnError
from ..frames import CalendarInfo
from ..ingest import WideHourlyTable

DEFAULT_QUANTILE_LEVELS = (0.25, 0.50, 0.75, 1.00)
DEFAULT_WEATHER_KINDS = ("temperature", "humidity", "wind")

# a day must retain at least this many hourly readings to yield quantiles
MIN_WEATHER_CELLS = 12


@dataclass(frozen=True)
class FeatureConfig:
    quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS
    weather_kinds: tuple[str, ...] = DEFAULT_WEATHER_KINDS

    def __post_init__(self):
        object.__setattr__(self, "quantile_levels", tuple(float(q) for q in self.quantile_levels))
        object.__setattr__(self, "weather_kinds", tuple(self.weather_kinds))
        if not self.quantile_levels:
            raise ParameterError("need at least one quantile level")
        for q in self.quantile_levels:
            if not 0.0 < q <= 1.0:
                raise ParameterError(f"quantile level {q} outside (0, 1]")
        if list(self.quantile_levels) != sorted(set(self.quantile_levels)):
            raise ParameterError("quantile levels must be strictly increasing")
        if not self.weather_kinds:
            raise ParameterError("need at least one weather kind")
        if len(set(self.weather_kinds)) != len(self.weather_kinds):
            raise ParameterError("duplicate weather kinds")

    @property
    def dimension(self) -> int:
        # month(12) + weekday(7) + holiday + day-of-month + quantiles + gdp
        return 21 + len(self.weather_kinds) * len(self.quantile_levels) + 1


def feature_names(config: FeatureConfig) -> tuple[str, ...]:
    """Column labels of the feature rows, in order."""
    names = [f"month_{m}" for m in range(1, 13)]
    names += [f"weekday_{w}" for w in range(7)]
    names += ["holiday", "day_scaled"]
    for kind in config.weather_kinds:
        names += [f"{kind}_q{int(round(q * 100))}" for q in config.quantile_levels]
    names.append("gdp_growth")
    return tuple(names)


def _encode(dates, weather, gdp, holidays, config: FeatureConfig) -> np.ndarray:
    """The (days, dimension) feature matrix of ``dates``.

    ``weather`` maps each configured kind to its (days, 24) readings, row i
    belonging to ``dates[i]``; ``gdp`` holds one value per date. Quantiles
    are empirical over each day's non-missing cells, linear interpolation
    between order statistics.
    """
    gdp = np.asarray(gdp, dtype=np.float64)
    out = np.zeros((len(dates), config.dimension))
    rows = np.arange(len(dates))
    out[rows, [d.month - 1 for d in dates]] = 1.0
    out[rows, [12 + d.weekday() for d in dates]] = 1.0
    out[:, 19] = [d in holidays for d in dates]
    out[:, 20] = np.array([d.day for d in dates]) / 31.0
    levels = config.quantile_levels
    pos = 21
    for kind in config.weather_kinds:
        table = weather[kind]
        infinite = np.isinf(table).any(axis=1)
        if infinite.any():
            first = dates[int(np.argmax(infinite))]
            raise ParameterError(f"{kind} has an infinite reading on {first}")
        cells = 24 - np.isnan(table).sum(axis=1)
        short = cells < MIN_WEATHER_CELLS
        if short.any():
            i = int(np.argmax(short))
            raise InsufficientDataError(
                f"{kind} has {cells[i]} usable cells on {dates[i]}; need >= {MIN_WEATHER_CELLS}"
            )
        out[:, pos : pos + len(levels)] = np.nanquantile(table, levels, axis=1, method="linear").T
        pos += len(levels)
    if not np.isfinite(gdp).all():
        raise ParameterError("gdp_growth must be finite")
    out[:, pos] = gdp
    return out


def build_features(
    calendar: CalendarInfo,
    weather_row: Mapping[str, np.ndarray],
    gdp: float,
    config: FeatureConfig | None = None,
) -> np.ndarray:
    """Encode one date from its calendar attributes and 24 hourly readings.

    Returns the date's feature row, labelled by ``feature_names(config)``. A
    day keeping fewer than MIN_WEATHER_CELLS readings for any kind, or
    holding an infinite reading, is refused.
    """
    config = config or FeatureConfig()
    weather = {}
    for kind in config.weather_kinds:
        if kind not in weather_row:
            raise UnknownColumnError(f"weather kind {kind!r} missing for {calendar.date}")
        row = np.asarray(weather_row[kind], dtype=np.float64).ravel()
        if row.shape != (24,):
            raise ParameterError(f"{kind} row for {calendar.date} is not 24 hourly values")
        weather[kind] = row[None, :]
    holidays = (calendar.date,) if calendar.holiday_flag else ()
    return _encode([calendar.date], weather, [float(gdp)], holidays, config)[0]


def _gdp_values(gdp, dates) -> list[float]:
    """The economic scalar of each date: a constant, or a (year, month) step map."""
    if isinstance(gdp, (int, float)):
        return [float(gdp)] * len(dates)
    keys = sorted(gdp)
    values = []
    for d in dates:
        i = bisect.bisect_right(keys, (d.year, d.month))
        if i == 0:
            raise ParameterError(f"no economic value at or before {d.year}-{d.month:02d}")
        values.append(float(gdp[keys[i - 1]]))
    return values


def feature_matrix(
    dates,
    weather: Mapping[str, WideHourlyTable],
    gdp,
    holidays=frozenset(),
    config: FeatureConfig | None = None,
) -> np.ndarray:
    """Feature rows for a span of dates, one per date.

    ``weather`` maps each configured kind to a wide hourly table covering all
    requested dates; ``gdp`` is a constant or a {(year, month): value} map
    applied stepwise.
    """
    config = config or FeatureConfig()
    dates = list(dates)
    rows = {}
    for kind in config.weather_kinds:
        if kind not in weather:
            raise UnknownColumnError(f"no weather table for kind {kind!r}")
        index = {d: i for i, d in enumerate(weather[kind].dates)}
        missing = [d for d in dates if d not in index]
        if missing:
            raise InsufficientDataError(f"{kind} table has no row for {missing[0]}")
        rows[kind] = weather[kind].values[[index[d] for d in dates]]
    if not dates:
        raise ParameterError("no dates requested")
    return _encode(dates, rows, _gdp_values(gdp, dates), holidays, config)
