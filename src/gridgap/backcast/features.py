"""Feature encoding for the daily counterfactual-load models.

Each training row describes one date: calendar one-hots, a holiday bit, the
day of month scaled to [0, 1], empirical quantiles of that day's hourly
weather readings, and an economic scalar.
"""

from __future__ import annotations

import bisect
from typing import Mapping

import numpy as np

from ..errors import InsufficientDataError, ParameterError, UnknownColumnError
from ..ingest import WideHourlyTable

QUANTILE_LEVELS = (0.25, 0.50, 0.75, 1.00)
WEATHER_KINDS = ("temperature", "humidity", "wind")
# month(12) + weekday(7) + holiday + day-of-month + quantiles(3 x 4) + gdp = 34
FEATURE_DIMENSION = 21 + len(WEATHER_KINDS) * len(QUANTILE_LEVELS) + 1

# a day must retain at least this many hourly readings to yield quantiles
MIN_WEATHER_CELLS = 12


def _encode(dates, weather, gdp, holidays) -> np.ndarray:
    """The (days, FEATURE_DIMENSION) feature matrix of ``dates``.

    ``weather`` maps each weather kind to its (days, 24) readings, row i
    belonging to ``dates[i]``; ``gdp`` holds one value per date. Quantiles
    are empirical over each day's non-missing cells, linear interpolation
    between order statistics.
    """
    gdp = np.asarray(gdp, dtype=np.float64)
    out = np.zeros((len(dates), FEATURE_DIMENSION))
    rows = np.arange(len(dates))
    out[rows, [d.month - 1 for d in dates]] = 1.0
    out[rows, [12 + d.weekday() for d in dates]] = 1.0
    out[:, 19] = [d in holidays for d in dates]
    out[:, 20] = np.array([d.day for d in dates]) / 31.0
    pos = 21
    for kind in WEATHER_KINDS:
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
        # One quantile call per count of usable cells, over days compacted as
        # np.nanquantile compacts each day on its own: the first ``n`` cells,
        # their NaN holes filled in order by the usable cells after them. The
        # same sequences give the same bits, signs of zero included.
        for n in np.unique(cells):
            same = cells == n
            head, tail = table[same, :n], table[same, n:]
            head[np.isnan(head)] = tail[~np.isnan(tail)]
            out[same, pos : pos + len(QUANTILE_LEVELS)] = np.quantile(
                head, QUANTILE_LEVELS, axis=1, method="linear"
            ).T
        pos += len(QUANTILE_LEVELS)
    if not np.isfinite(gdp).all():
        raise ParameterError("gdp_growth must be finite")
    out[:, pos] = gdp
    return out


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
) -> np.ndarray:
    """Feature rows for a span of dates, one per date.

    ``weather`` maps each of ``WEATHER_KINDS`` to a wide hourly table covering
    all requested dates; ``gdp`` is a constant or a {(year, month): value} map
    applied stepwise.
    """
    dates = list(dates)
    rows = {}
    for kind in WEATHER_KINDS:
        if kind not in weather:
            raise UnknownColumnError(f"no weather table for kind {kind!r}")
        index = {d: i for i, d in enumerate(weather[kind].dates)}
        missing = [d for d in dates if d not in index]
        if missing:
            raise InsufficientDataError(f"{kind} table has no row for {missing[0]}")
        rows[kind] = weather[kind].values[[index[d] for d in dates]]
    if not dates:
        raise ParameterError("no dates requested")
    return _encode(dates, rows, _gdp_values(gdp, dates), holidays)
