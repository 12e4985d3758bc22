"""Bitwise oracle for the backcast feature matrix.

The ``_reference_*`` functions are a frozen copy of the original per-row
path: one calendar record and one feature object per date, one
``np.quantile`` call per (day, kind, level), the row read back through the
object's vector and the rows stacked at the end. ``feature_matrix`` must
reproduce its bytes exactly, because the ensemble digests at a fixed seed
depend on them, and must refuse the same inputs with the same error types.
"""

import datetime as dt

import numpy as np
import pytest

from gridgap.backcast import FEATURE_DIMENSION, MIN_WEATHER_CELLS, QUANTILE_LEVELS, feature_matrix
from gridgap.errors import InsufficientDataError, ParameterError, UnknownColumnError
from gridgap.frames import federal_holidays
from gridgap.ingest import WideHourlyTable

from helpers import CalendarInfo

KINDS = ("temperature", "humidity", "wind")


def _reference_row(calendar, weather_row, gdp):
    quantiles = {}
    for kind in KINDS:
        if kind not in weather_row:
            raise UnknownColumnError(f"weather kind {kind!r} missing for {calendar.date}")
        row = np.asarray(weather_row[kind], dtype=np.float64).ravel()
        if row.shape != (24,):
            raise ParameterError(f"{kind} row for {calendar.date} is not 24 hourly values")
        cells = row[~np.isnan(row)]
        if len(cells) < MIN_WEATHER_CELLS:
            raise InsufficientDataError(
                f"{kind} has {len(cells)} usable cells on {calendar.date}; "
                f"need >= {MIN_WEATHER_CELLS}"
            )
        quantiles[kind] = tuple(
            float(np.quantile(cells, q, method="linear")) for q in QUANTILE_LEVELS
        )
    for kind, vals in quantiles.items():
        if not all(np.isfinite(v) for v in vals):
            raise ParameterError(f"{kind}: non-finite quantile value")
    gdp = float(gdp)
    if not np.isfinite(gdp):
        raise ParameterError("gdp_growth must be finite")
    out = np.zeros(FEATURE_DIMENSION)
    out[calendar.month - 1] = 1.0
    out[12 + calendar.weekday] = 1.0
    out[19] = 1.0 if calendar.holiday_flag else 0.0
    out[20] = calendar.day / 31.0
    pos = 21
    for kind in KINDS:
        vals = quantiles[kind]
        out[pos : pos + len(vals)] = vals
        pos += len(vals)
    out[pos] = gdp
    return out


def _reference_gdp(gdp, date):
    if isinstance(gdp, (int, float)):
        return float(gdp)
    chosen = None
    for k in sorted(gdp):
        if k <= (date.year, date.month):
            chosen = k
        else:
            break
    if chosen is None:
        raise ParameterError(f"no economic value at or before {date.year}-{date.month:02d}")
    return float(gdp[chosen])


def _reference_matrix(dates, weather, gdp, holidays=frozenset()):
    indices = {}
    for kind in KINDS:
        if kind not in weather:
            raise UnknownColumnError(f"no weather table for kind {kind!r}")
        indices[kind] = {d: i for i, d in enumerate(weather[kind].dates)}
    rows = []
    for d in dates:
        row = {}
        for kind in KINDS:
            idx = indices[kind].get(d)
            if idx is None:
                raise InsufficientDataError(f"{kind} table has no row for {d}")
            row[kind] = weather[kind].values[idx]
        cal = CalendarInfo.from_date(d, holidays)
        rows.append(_reference_row(cal, row, _reference_gdp(gdp, d)))
    if not rows:
        raise ParameterError("no dates requested")
    return np.vstack(rows)


def _tables(days=400, missing=0.02, seed=0):
    """make_synthetic's weather shapes plus noise, with a share of NaN cells.

    Day 7 of the temperature table keeps exactly ``MIN_WEATHER_CELLS``
    readings.
    """
    rng = np.random.default_rng(seed)
    dates = tuple(dt.date(2019, 1, 1) + dt.timedelta(days=i) for i in range(days))
    doy = np.array([d.timetuple().tm_yday for d in dates])[:, None]
    hours = np.arange(24)
    base = {
        "temperature": 15 + 10 * np.sin((doy - 100) / 365 * 2 * np.pi)
        + 4 * np.sin(hours / 24 * 2 * np.pi),
        "humidity": 60 + 20 * np.cos(doy / 365 * 2 * np.pi) + 0.0 * hours,
        "wind": np.abs(8 + 3 * np.sin(doy / 23) + 0.0 * hours),
    }
    tables = {}
    for kind in KINDS:
        values = base[kind] + rng.normal(0, 1.5, (days, 24))
        values[rng.random((days, 24)) < missing] = np.nan
        if kind == "temperature":
            values[7, :] = rng.normal(10, 3, 24)
            values[7, rng.permutation(24)[: 24 - MIN_WEATHER_CELLS]] = np.nan
        tables[kind] = WideHourlyTable(dates, values, kind)
    return dates, tables


STEP_GDP = {(2018, 12): 1.25, (2019, 4): -0.5, (2019, 11): 2.0 / 3.0, (2020, 1): 0.1}


@pytest.mark.parametrize(
    "missing, gdp, holidays",
    [
        (0.0, 1.0, frozenset()),
        (0.02, 1.0, federal_holidays([2019, 2020])),
        (0.02, STEP_GDP, federal_holidays([2019, 2020])),
        (0.02, -2.5, federal_holidays([2019])),
    ],
    ids=["clean-scalar", "nan-scalar-holidays", "nan-steps-holidays", "nan-negative-scalar"],
)
def test_feature_matrix_matches_per_row_reference(missing, gdp, holidays):
    dates, tables = _tables(missing=missing)
    assert np.isnan(tables["temperature"].values[7]).sum() == 24 - MIN_WEATHER_CELLS
    # a shuffled subset asks for rows out of table order
    picked = [dates[i] for i in np.random.default_rng(1).permutation(len(dates))[:300]]
    for requested in (dates, picked):
        expected = _reference_matrix(requested, tables, gdp, holidays)
        got = feature_matrix(requested, tables, gdp, holidays)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _short_day(tables):
    values = tables["humidity"].values.copy()
    values[3, : 24 - MIN_WEATHER_CELLS + 1] = np.nan  # 11 readings remain
    return {**tables, "humidity": WideHourlyTable(tables["humidity"].dates, values, "humidity")}


def _refusal(name, dates, tables):
    """Call arguments of an input that breaks one rule."""
    no_wind = {k: v for k, v in tables.items() if k != "wind"}
    late = dates[-1] + dt.timedelta(days=1)
    return {
        "eleven-cells": (dates, _short_day(tables), 1.0),
        "missing-date": ([*dates[:5], late], tables, 1.0),
        "missing-kind": (dates, no_wind, 1.0),
        "nan-gdp": (dates, tables, float("nan")),
        "inf-gdp": (dates, tables, float("inf")),
        "nan-step-gdp": (dates, tables, {**STEP_GDP, (2019, 1): float("nan")}),
        "gdp-before-first-step": (dates, tables, {(2019, 2): 1.0}),
        "no-dates": ([], tables, 1.0),
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "eleven-cells",
        "missing-date",
        "missing-kind",
        "nan-gdp",
        "inf-gdp",
        "nan-step-gdp",
        "gdp-before-first-step",
        "no-dates",
    ],
)
def test_refusals_match_reference_error_types(name):
    dates, tables = _tables(days=20)
    args = _refusal(name, list(dates), tables)
    with pytest.raises(Exception) as expected:
        _reference_matrix(*args)
    with pytest.raises(expected.type):
        feature_matrix(*args)


def _zeros_and_ties_table():
    """Every usable count from 12 to 24 in one table, on days that mix -0.0
    and 0.0 in one row and repeat readings."""
    rng = np.random.default_rng(7)
    days = 3 * (24 - MIN_WEATHER_CELLS + 1)
    dates = tuple(dt.date(2019, 3, 1) + dt.timedelta(days=i) for i in range(days))
    values = np.round(rng.normal(0, 1.5, (days, 24)))  # ties, and zeros of both signs
    values[::3, :8] = np.where(rng.random((days, 8))[::3] < 0.5, -0.0, 0.0)
    values[1::3, 5:] = values[1::3, 5:6]  # one reading repeated all day
    for i in range(days):
        values[i, rng.permutation(24)[: i % (24 - MIN_WEATHER_CELLS + 1)]] = np.nan
    return dates, {k: WideHourlyTable(dates, values[:, rng.permutation(24)], k) for k in KINDS}


def test_zeros_ties_and_every_usable_count():
    """Values equal the per-row reference's. Its bytes may differ in the
    sign of a zero quantile: a tie between -0.0 and 0.0 falls to the
    partition, and the reference partitions each day's cells in their own
    order, one level at a time. The bytes equal np.nanquantile's, whose
    per-day compaction the whole-table path follows.
    """
    dates, tables = _zeros_and_ties_table()
    counts = 24 - np.isnan(tables["temperature"].values).sum(axis=1)
    assert set(counts) == set(range(MIN_WEATHER_CELLS, 25))
    assert ((tables["humidity"].values == 0) & np.signbit(tables["humidity"].values)).any()
    got = feature_matrix(dates, tables, 1.0)
    assert np.array_equal(got, _reference_matrix(dates, tables, 1.0))
    quantiles = got[:, 21:-1]
    expected = np.hstack(
        [np.nanquantile(tables[k].values, QUANTILE_LEVELS, axis=1, method="linear").T for k in KINDS]
    )
    assert quantiles.tobytes() == expected.tobytes()


def test_no_per_row_numpy_path(monkeypatch):
    """The whole-table kernels run no per-row apply_along_axis, which
    np.nanquantile over an axis does."""
    dates, tables = _tables(days=40, missing=0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("per-row apply_along_axis called")

    monkeypatch.setattr(np, "apply_along_axis", refuse)
    assert feature_matrix(dates, tables, 1.0).shape == (40, FEATURE_DIMENSION)
    tables["wind"].daily_mean_frame()
