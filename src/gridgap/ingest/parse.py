"""Raw source parsing and reshaping into wide hourly tables."""

from __future__ import annotations

import csv
import datetime as dt
import io
import math

import numpy as np

from ..errors import EmptyInputError, MixedFieldError, SchemaError
from .schema import SourceSchema
from .tables import LongRecord, LongRecordTable, WideHourlyTable


def _decode(data) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8-sig")
    return data


def parse_source(data, schema: SourceSchema) -> LongRecordTable:
    """Parse one raw CSV according to its descriptor.

    Rows that fail to parse (bad date, non-numeric or non-finite value, hour
    out of range) are collected as rejects with their line number instead of
    aborting the whole file.  Values are multiplied by the descriptor's unit
    factor and timestamps shifted by its whole-hour offset.
    """
    text = _decode(data)
    reader = csv.reader(io.StringIO(text), delimiter=schema.delimiter)
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
    table = LongRecordTable()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(i_date, i_time, i_value):
            table.rejects.append((lineno, "too few cells"))
            continue
        try:
            date = dt.datetime.strptime(row[i_date].strip(), schema.date_format).date()
        except ValueError:
            table.rejects.append((lineno, f"bad date {row[i_date]!r}"))
            continue
        try:
            hour, minute = _parse_time(row[i_time].strip(), schema)
        except ValueError as exc:
            table.rejects.append((lineno, str(exc)))
            continue
        raw = row[i_value].strip()
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # refused below along with inf and nan cells
        if not math.isfinite(value):
            table.rejects.append((lineno, f"bad value {raw!r}"))
            continue
        if schema.hour_shift:
            delta, hour = divmod(hour + schema.hour_shift, 24)
            date = date + dt.timedelta(days=delta)
        table.records.append(
            LongRecord(date, hour, schema.field, value * schema.unit_factor,
                       schema.location, minute)
        )
    return table


def _parse_time(text: str, schema: SourceSchema) -> tuple[int, int]:
    if schema.time_column:
        parts = text.split(":")
        if len(parts) < 2:
            raise ValueError(f"bad time {text!r}")
        hour, minute = int(parts[0]), int(parts[1])
    else:
        hour, minute = int(text), 0
        if schema.hour_convention == "hour-ending":
            hour -= 1  # hour ending 01..24 labels the interval starting 00..23
    if not 0 <= hour <= 23 or not 0 <= minute <= 59:
        raise ValueError(f"time {text!r} out of range")
    return hour, minute


def _full_date_span(dates) -> tuple[dt.date, ...]:
    lo, hi = min(dates), max(dates)
    return tuple(lo + dt.timedelta(days=i) for i in range((hi - lo).days + 1))


def pivot_wide(table: LongRecordTable, kind: str) -> tuple[WideHourlyTable, list[LongRecord]]:
    """Reshape long records into one-day-per-row form.

    The output covers the full calendar span of the input; days or hours with
    no record become missing cells for QC to deal with.  Duplicate
    (date, hour) records keep the first occurrence; the rest are returned as
    dropped.
    """
    if not table.records:
        raise EmptyInputError("no records to pivot")
    fields = table.fields()
    if len(fields) > 1:
        raise MixedFieldError(f"pivot needs a single field, found {sorted(fields)}")
    locations = table.locations()
    if len(locations) > 1:
        raise MixedFieldError(f"pivot needs a single location, found {sorted(locations)}")
    dates = _full_date_span([r.date for r in table.records])
    index = {d: i for i, d in enumerate(dates)}
    values = np.full((len(dates), 24), np.nan)
    dropped: list[LongRecord] = []
    for rec in table.records:
        i = index[rec.date]
        if np.isnan(values[i, rec.hour]):
            values[i, rec.hour] = rec.value
        else:
            dropped.append(rec)
    return WideHourlyTable(dates, values, kind), dropped


def resample_weather_hourly(table: LongRecordTable) -> WideHourlyTable:
    """Average sub-hourly weather records into an hourly wide table."""
    if not table.records:
        raise EmptyInputError("no records to resample")
    fields = table.fields()
    if len(fields) > 1:
        raise MixedFieldError(f"resample needs a single field, found {sorted(fields)}")
    kind = next(iter(fields))
    dates = _full_date_span([r.date for r in table.records])
    index = {d: i for i, d in enumerate(dates)}
    sums = np.zeros((len(dates), 24))
    counts = np.zeros((len(dates), 24), dtype=np.int64)
    for rec in table.records:
        i = index[rec.date]
        sums[i, rec.hour] += rec.value
        counts[i, rec.hour] += 1
    values = np.full_like(sums, np.nan)
    seen = counts > 0
    values[seen] = sums[seen] / counts[seen]
    return WideHourlyTable(dates, values, kind)
