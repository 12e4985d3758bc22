"""Core typed containers for daily multivariate series.

All heavy lifting downstream (transforms, estimation) works on
:class:`TimeSeriesFrame`, a thin immutable wrapper around a float64 matrix
with one row per calendar date and one column per named variable.  Missing
values are NaN, which keeps them distinguishable from legitimate zeros.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    ParameterError,
    UnknownColumnError,
)


def _as_date(value) -> dt.date:
    if isinstance(value, dt.datetime):
        return value.date()
    if isinstance(value, dt.date):
        return value
    if isinstance(value, str):
        return dt.date.fromisoformat(value)
    raise ParameterError(f"cannot interpret {value!r} as a calendar date")


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Daily observations of one or more named variables.

    Invariants enforced at construction: dates strictly increasing, names
    unique and non-empty, values a (len(dates), len(names)) float64 matrix.
    The value matrix is marked read-only; derive new frames instead of
    mutating.
    """

    dates: tuple[dt.date, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(_as_date(d) for d in self.dates)
        names = tuple(str(n) for n in self.names)
        values = np.array(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if len(names) == 0:
            raise ParameterError("frame needs at least one named column")
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate column names: {names}")
        if any(not n for n in names):
            raise ParameterError("column names must be non-empty")
        if values.shape != (len(dates), len(names)):
            raise ParameterError(
                f"values shape {values.shape} does not match "
                f"{len(dates)} dates x {len(names)} names"
            )
        for a, b in zip(dates, dates[1:]):
            if a >= b:
                raise ParameterError(f"dates not strictly increasing at {a} >= {b}")
        values.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_columns(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownColumnError(f"no column named {name!r}; have {self.names}") from None

    def column(self, name: str) -> np.ndarray:
        """Return one column as a read-only 1-D view."""
        return self.values[:, self.index_of(name)]

    def select(self, names) -> "TimeSeriesFrame":
        names = tuple(names)
        idx = [self.index_of(n) for n in names]
        return TimeSeriesFrame(self.dates, names, self.values[:, idx])

    def slice_dates(self, start, end) -> "TimeSeriesFrame":
        """Rows with start <= date <= end."""
        start, end = _as_date(start), _as_date(end)
        keep = [i for i, d in enumerate(self.dates) if start <= d <= end]
        if not keep:
            raise EmptyInputError(f"no rows between {start} and {end}")
        return TimeSeriesFrame(
            tuple(self.dates[i] for i in keep), self.names, self.values[keep, :]
        )

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


# Observed US federal holidays; fixed-date holidays falling on a weekend are
# kept on their actual date because the electricity data is calendar-daily.
def federal_holidays(years) -> frozenset[dt.date]:
    """US federal holiday dates for the given years."""

    def nth_weekday(year, month, weekday, n):
        d = dt.date(year, month, 1)
        offset = (weekday - d.weekday()) % 7
        return d + dt.timedelta(days=offset + 7 * (n - 1))

    out = set()
    for y in years:
        may_31 = dt.date(y, 5, 31)
        out.add(dt.date(y, 1, 1))                  # New Year's Day
        out.add(nth_weekday(y, 1, 0, 3))           # Martin Luther King Jr. Day
        out.add(nth_weekday(y, 2, 0, 3))           # Washington's Birthday
        out.add(may_31 - dt.timedelta(days=may_31.weekday()))  # Memorial Day
        out.add(dt.date(y, 7, 4))                  # Independence Day
        out.add(nth_weekday(y, 9, 0, 1))           # Labor Day
        out.add(nth_weekday(y, 10, 0, 2))          # Columbus Day
        out.add(dt.date(y, 11, 11))                # Veterans Day
        out.add(nth_weekday(y, 11, 3, 4))          # Thanksgiving
        out.add(dt.date(y, 12, 25))                # Christmas
    return frozenset(out)
