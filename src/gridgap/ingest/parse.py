"""Raw source parsing straight into wide hourly tables."""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from ..errors import EmptyInputError, SchemaError
from .qc import QcReport
from .schema import SourceSchema, csv_rows
from .tables import WideHourlyTable


def parse_source(data: bytes, schema: SourceSchema) -> tuple[WideHourlyTable, QcReport]:
    """Parse one raw CSV into the wide hourly table its descriptor names.

    Rows that fail to parse (bad date, hour or time, non-numeric or
    non-finite value, hour out of range) are collected in the report as
    rejects with their line number instead of aborting the whole file.
    Values are multiplied by the descriptor's unit factor and timestamps
    shifted by its whole-hour offset.  The table covers the full calendar
    span of the accepted rows, so absent days and hours are missing cells for
    QC to deal with.  An hourly source keeps the first reading of each cell
    and counts the rest as dropped duplicates; a sub-hourly source
    (``time_column``) averages each hour's readings.
    """
    reader = csv_rows(data, f"source {schema.name}")
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"source {schema.name}: file is empty") from None
    header = [h.strip() for h in header]
    missing = [c for c in schema.required_columns if c not in header]
    if missing:
        raise SchemaError(f"source {schema.name}: header lacks columns {missing}")
    i_date = header.index(schema.date_column)
    i_time = header.index(schema.hour_column or schema.time_column)
    i_value = header.index(schema.value_column)
    days, hours, values = [], [], []
    report = QcReport()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(i_date, i_time, i_value):
            report.rejects.append((lineno, "too few cells"))
            continue
        try:
            date = dt.datetime.strptime(row[i_date].strip(), schema.date_format).date()
        except ValueError:
            report.rejects.append((lineno, f"bad date {row[i_date]!r}"))
            continue
        try:
            hour = _parse_hour(row[i_time].strip(), schema)
        except ValueError as exc:
            report.rejects.append((lineno, str(exc)))
            continue
        raw = row[i_value].strip()
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # refused below along with inf and nan cells
        if not math.isfinite(value):
            report.rejects.append((lineno, f"bad value {raw!r}"))
            continue
        if schema.hour_shift:
            delta, hour = divmod(hour + schema.hour_shift, 24)
            try:
                date = date + dt.timedelta(days=delta)
            except OverflowError:
                report.rejects.append((lineno, "date out of range"))
                continue
        days.append(date.toordinal())
        hours.append(hour)
        values.append(value * schema.unit_factor)
    if not days:
        raise EmptyInputError(f"source {schema.name}: no usable rows")
    first = min(days)
    n_days = max(days) - first + 1
    cells = (np.array(days) - first) * 24 + np.array(hours)
    readings = np.array(values)
    grid = np.full(n_days * 24, np.nan)
    if schema.time_column:
        # np.add.at adds in row order, as a running sum per cell would
        sums = np.zeros(n_days * 24)
        np.add.at(sums, cells, readings)
        counts = np.bincount(cells, minlength=n_days * 24)
        seen = counts > 0
        grid[seen] = sums[seen] / counts[seen]
    else:
        kept, first_rows = np.unique(cells, return_index=True)
        grid[kept] = readings[first_rows]
        report.duplicates_dropped = len(cells) - len(kept)
    dates = tuple(dt.date.fromordinal(first + i) for i in range(n_days))
    return WideHourlyTable(dates, grid.reshape(n_days, 24), schema.kind), report


def _parse_hour(text: str, schema: SourceSchema) -> int:
    """The 0-based hour of a time cell; a bad or out-of-range cell raises ValueError."""
    if schema.time_column:
        parts = text.split(":")
        try:
            hour, minute = int(parts[0]), int(parts[1])
        except (IndexError, ValueError):
            raise ValueError(f"bad time {text!r}") from None
    else:
        try:
            hour, minute = int(text), 0
        except ValueError:
            raise ValueError(f"bad hour {text!r}") from None
        if schema.hour_convention == "hour-ending":
            hour -= 1  # hour ending 01..24 labels the interval starting 00..23
    if not 0 <= hour <= 23 or not 0 <= minute <= 59:
        raise ValueError(f"time {text!r} out of range")
    return hour
