"""Tabular containers and the canonical on-disk CSV formats.

Two layouts cover everything the pipeline exchanges on disk:

* wide hourly CSV: header ``date,0,1,...,23``, ISO dates, one row per day,
  empty cells for missing values;
* series CSV: header ``date,<name>[,<name>...]`` for daily frames.

Floats are written with ``repr`` so a read-back reproduces the exact bits;
golden-file tests depend on that.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyInputError, ParameterError, SchemaError
from ..frames import TimeSeriesFrame

TABLE_KINDS = ("load", "temperature", "humidity", "wind", "price")


def format_value(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    if np.isnan(v):
        return ""
    return repr(float(v))


@dataclass(frozen=True)
class LongRecord:
    """One observation from a raw source file."""

    date: dt.date
    hour: int
    field: str
    value: float
    location: str
    minute: int = 0

    def __post_init__(self):
        if not 0 <= self.hour <= 23:
            raise ParameterError(f"hour {self.hour} outside 0..23")
        if not 0 <= self.minute <= 59:
            raise ParameterError(f"minute {self.minute} outside 0..59")


@dataclass
class LongRecordTable:
    """Parsed records plus the raw lines that failed to parse."""

    records: list[LongRecord] = field(default_factory=list)
    rejects: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def fields(self) -> set[str]:
        return {r.field for r in self.records}

    def locations(self) -> set[str]:
        return {r.location for r in self.records}


@dataclass
class WideHourlyTable:
    """One day per row, one hour per column; NaN marks missing cells."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.values = np.array(self.values, dtype=np.float64)
        if self.values.shape != (len(self.dates), 24):
            raise ParameterError(
                f"values must be (n_days, 24), got {self.values.shape}"
            )
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ParameterError(f"dates not strictly increasing at {a} >= {b}")
        if self.kind not in TABLE_KINDS:
            raise ParameterError(f"unknown table kind {self.kind!r}; use one of {TABLE_KINDS}")

    def __len__(self) -> int:
        return len(self.dates)

    def copy(self) -> "WideHourlyTable":
        return WideHourlyTable(self.dates, np.array(self.values), self.kind)

    def missing_cells(self) -> list[tuple[dt.date, int]]:
        out = []
        rows, cols = np.nonzero(np.isnan(self.values))
        for r, c in zip(rows, cols):
            out.append((self.dates[r], int(c)))
        return out

    def daily_mean_frame(self, name: str, require_full_day: bool = False) -> TimeSeriesFrame:
        """Daily means over non-missing cells as a one-column frame.

        With ``require_full_day`` days missing any hour are dropped; otherwise
        a day needs at least one observed hour.
        """
        means = []
        dates = []
        for i, d in enumerate(self.dates):
            row = self.values[i]
            ok = ~np.isnan(row)
            if require_full_day and not ok.all():
                continue
            if not ok.any():
                continue
            means.append(float(np.mean(row[ok])))
            dates.append(d)
        if not dates:
            raise EmptyInputError("no usable days in table")
        return TimeSeriesFrame(tuple(dates), (name,), np.array(means).reshape(-1, 1))


WIDE_HEADER = ["date"] + [str(h) for h in range(24)]


def write_wide_csv(table: WideHourlyTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WIDE_HEADER)
        for d, row in zip(table.dates, table.values):
            writer.writerow([d.isoformat()] + [format_value(v) for v in row])


def read_wide_csv(path, kind: str) -> WideHourlyTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError("wide CSV is empty") from None
        if header != WIDE_HEADER:
            raise SchemaError(f"expected header {WIDE_HEADER[:3]}...,23 got {header[:4]}")
        dates, values = _read_rows(reader, [f"hour {h}" for h in range(24)], "")
    if not dates:
        raise EmptyInputError("wide CSV has a header but no rows")
    return WideHourlyTable(tuple(dates), values, kind)


def _read_rows(reader, columns, where: str):
    """Dates and values of the data rows, empty cells NaN.

    Refuses ragged rows, bad dates, non-numeric cells and infinities with a
    ``SchemaError`` naming the line and the column.
    """
    dates, rows, lines = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns) + 1:
            raise SchemaError(
                f"{where}line {lineno}: expected {len(columns) + 1} cells, got {len(row)}"
            )
        try:
            dates.append(dt.date.fromisoformat(row[0]))
        except ValueError:
            raise SchemaError(f"{where}line {lineno}: bad date {row[0]!r}") from None
        try:
            rows.append([float(c) if c != "" else np.nan for c in row[1:]])
        except ValueError:
            j = next(j for j, c in enumerate(row[1:]) if not _is_number(c))
            raise SchemaError(
                f"{where}line {lineno}: {columns[j]} is not a number: {row[j + 1]!r}"
            ) from None
        lines.append(lineno)
    values = np.array(rows)
    bad = np.argwhere(np.isinf(values))
    if len(bad):
        raise SchemaError(f"{where}line {lines[bad[0, 0]]}: {columns[bad[0, 1]]} is infinite")
    return dates, values


def _is_number(cell: str) -> bool:
    try:
        float(cell or "nan")
    except ValueError:
        return False
    return True


def write_series_csv(frame: TimeSeriesFrame, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *frame.names])
        for d, row in zip(frame.dates, frame.values):
            writer.writerow([d.isoformat()] + [format_value(v) for v in row])


def read_series_csv(path, columns=None) -> TimeSeriesFrame:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path} is empty") from None
        if not header or header[0] != "date" or len(header) < 2:
            raise SchemaError(f"{path}: expected header date,<name>,... got {header[:3]}")
        names = tuple(header[1:])
        dates, values = _read_rows(reader, [f"column {n!r}" for n in names], f"{path} ")
    if not dates:
        raise EmptyInputError(f"{path} has a header but no rows")
    frame = TimeSeriesFrame(tuple(dates), names, values)
    if columns is not None:
        frame = frame.select(columns)
    return frame
