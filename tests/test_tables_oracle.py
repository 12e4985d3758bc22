"""Bitwise oracles for the whole-table wide-CSV paths.

The ``_reference_*`` functions are frozen copies of the original per-row and
per-cell code: a daily mean per row with no missing cell, and one
``format_value`` call per written cell. The whole-array paths must give the
same bits and bytes, because the backcast's training target and every
written table depend on them.
"""

import csv
import datetime as dt

import numpy as np
import pytest

from gridgap.errors import EmptyInputError, SchemaError
from gridgap.frames import TimeSeriesFrame
from gridgap.ingest import (
    WideHourlyTable,
    format_value,
    read_series_csv,
    read_wide_csv,
    write_series_csv,
    write_wide_csv,
)

from conftest import make_dates

SPECIAL = (np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 3.0, -7.0, 0.1, 1 / 3)


def _reference_daily_means(table):
    means, dates = [], []
    for i, d in enumerate(table.dates):
        row = table.values[i]
        ok = ~np.isnan(row)
        if not ok.all():
            continue
        means.append(float(np.mean(row[ok])))
        dates.append(d)
    return tuple(dates), np.array(means)


def _reference_write(path, header, dates, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for d, row in zip(dates, values):
            writer.writerow([d.isoformat()] + [format_value(v) for v in row])


def _random_table(seed, holes, days=120):
    """Readings of mixed scale; with ``holes``, 0 to 24 missing hours a day,
    some days full, some empty."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, (days, 24)) * 10.0 ** rng.integers(-3, 6, (days, 1))
    values[rng.random((days, 24)) < 0.05] = rng.choice(SPECIAL[1:], 1)
    for i in range(days if holes else 0):
        values[i, rng.permutation(24)[: rng.integers(0, 25) if i % 3 else 0]] = np.nan
    return WideHourlyTable(make_dates(days), values, "load")


@pytest.mark.parametrize("holes", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_daily_mean_frame_matches_per_row_reference(seed, holes):
    table = _random_table(seed, holes)
    dates, means = _reference_daily_means(table)
    frame = table.daily_mean_frame()
    assert frame.dates == dates
    assert frame.values[:, 0].tobytes() == means.tobytes()


def test_daily_mean_frame_without_usable_day():
    values = np.full((3, 24), 5.0)
    values[:, 4] = np.nan
    table = WideHourlyTable(make_dates(3), values, "load")
    with pytest.raises(EmptyInputError):
        table.daily_mean_frame()
    values[:] = np.nan
    with pytest.raises(EmptyInputError):
        WideHourlyTable(make_dates(3), values, "load").daily_mean_frame()


def _special_values(rows, cols):
    rng = np.random.default_rng(3)
    values = rng.choice(SPECIAL, (rows, cols))
    values[0] = np.resize(SPECIAL, cols)
    return values


def test_wide_writer_matches_per_cell_reference(tmp_path):
    table = WideHourlyTable(make_dates(40), _special_values(40, 24), "load")
    write_wide_csv(table, tmp_path / "a.csv")
    _reference_write(tmp_path / "b.csv", ["date"] + [str(h) for h in range(24)], table.dates, table.values)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_series_writer_matches_per_cell_reference(tmp_path):
    frame = TimeSeriesFrame(make_dates(40), ("a", "b,c", "d"), _special_values(40, 3))
    write_series_csv(frame, tmp_path / "a.csv")
    _reference_write(tmp_path / "b.csv", ["date", *frame.names], frame.dates, frame.values)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert read_series_csv(tmp_path / "a.csv").values.tobytes() == frame.values.tobytes()


@pytest.mark.parametrize("missing", [False, True], ids=["full-row", "row-with-gap"])
@pytest.mark.parametrize("cell", ["1_0", " 2.5 ", "+1e3", "-0", "5e-324", "NaN"])
def test_read_cell_parses_as_float_does(tmp_path, cell, missing):
    row = ["1.0"] * 24
    row[3] = cell
    if missing:
        row[7] = ""
    path = tmp_path / "t.csv"
    path.write_text("date," + ",".join(map(str, range(24))) + "\n2020-01-01," + ",".join(row) + "\n")
    values = read_wide_csv(path, "load").values[0]
    assert values[3:4].tobytes() == np.array([float(cell)]).tobytes()
    assert np.isnan(values[7]) == missing


@pytest.mark.parametrize("missing", [False, True], ids=["full-row", "row-with-gap"])
@pytest.mark.parametrize("cell", ["1__0", "2.5.", "0x10", "one"])
def test_unparsable_cell_named_on_either_path(tmp_path, cell, missing):
    row = ["1.0"] * 24
    row[3] = cell
    if missing:
        row[7] = ""
    path = tmp_path / "t.csv"
    path.write_text("date," + ",".join(map(str, range(24))) + "\n2020-01-01," + ",".join(row) + "\n")
    with pytest.raises(SchemaError) as err:
        read_wide_csv(path, "load")
    assert str(err.value) == f"{path} line 2: hour 3 is not a number: {cell!r}"
