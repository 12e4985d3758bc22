"""Tabular containers and the canonical on-disk CSV formats.

Two layouts cover everything the pipeline exchanges on disk:

* wide hourly CSV: header ``date,0,1,...,23``, ISO dates, one row per day,
  empty cells for missing values;
* series CSV: header ``date,<name>[,<name>...]`` for daily frames.

Floats are written with ``repr`` so a read-back reproduces the exact bits;
golden-file tests depend on that.  Both readers take a ``Path`` or an
``InputFile``, read its bytes once and parse them as UTF-8 (see ``csv_rows``).
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInputError, ParameterError, SchemaError
from ..frames import TimeSeriesFrame
from .schema import TABLE_KINDS, csv_rows


def format_value(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    if np.isnan(v):
        return ""
    return repr(float(v))


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

    def daily_mean_frame(self) -> TimeSeriesFrame:
        """Daily means as a one-column frame named after ``kind``; a day missing
        any hour is dropped."""
        keep = ~np.isnan(self.values).any(axis=1)
        if not keep.any():
            raise EmptyInputError("no usable days in table")
        dates = tuple(d for d, k in zip(self.dates, keep) if k)
        return TimeSeriesFrame(dates, (self.kind,), self.values[keep].mean(axis=1).reshape(-1, 1))


WIDE_HEADER = ["date"] + [str(h) for h in range(24)]
WIDE_COLUMNS = [f"hour {h}" for h in range(24)]


def _write_rows(path, header, dates, values: np.ndarray) -> None:
    """``header``, then one row per date; cells as ``format_value`` writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [d.isoformat()] + ["" if v != v else repr(v) for v in row]
            for d, row in zip(dates, values.tolist())
        )


def write_wide_csv(table: WideHourlyTable, path) -> None:
    _write_rows(path, WIDE_HEADER, table.dates, table.values)


def read_wide_csv(path, kind: str) -> WideHourlyTable:
    reader, header = _open(path)
    if header != WIDE_HEADER:
        raise SchemaError(f"{path}: expected header {WIDE_HEADER[:3]}...,23 got {header[:4]}")
    dates, values = _read_rows(reader, WIDE_COLUMNS, path)
    return WideHourlyTable(tuple(dates), values, kind)


def _open(path):
    """The rows of ``path``'s bytes, read once, and its header row."""
    reader = csv_rows(path.read_bytes(), path)
    try:
        return reader, next(reader)
    except StopIteration:
        raise EmptyInputError(f"{path} is empty") from None


def _read_rows(reader, columns, path):
    """Dates and values of the data rows, empty cells NaN.

    Refuses ragged rows, bad dates, non-numeric cells and infinities with a
    ``SchemaError`` naming the file, the line and the column, and a file
    without data rows with an ``EmptyInputError``.
    """
    dates, rows, lines = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns) + 1:
            raise SchemaError(
                f"{path} line {lineno}: expected {len(columns) + 1} cells, got {len(row)}"
            )
        try:
            dates.append(dt.date.fromisoformat(row[0]))
        except ValueError:
            raise SchemaError(f"{path} line {lineno}: bad date {row[0]!r}") from None
        cells = row[1:]
        try:
            if "" in cells:
                rows.append([float(c) if c != "" else np.nan for c in cells])
            else:
                rows.append(list(map(float, cells)))
        except ValueError:
            j = next(j for j, c in enumerate(cells) if not _is_number(c))
            raise SchemaError(
                f"{path} line {lineno}: {columns[j]} is not a number: {cells[j]!r}"
            ) from None
        lines.append(lineno)
    if not dates:
        raise EmptyInputError(f"{path} has a header but no rows")
    values = np.array(rows)
    bad = np.argwhere(np.isinf(values))
    if len(bad):
        raise SchemaError(f"{path} line {lines[bad[0, 0]]}: {columns[bad[0, 1]]} is infinite")
    return dates, values


def _is_number(cell: str) -> bool:
    try:
        float(cell or "nan")
    except ValueError:
        return False
    return True


def write_series_csv(frame: TimeSeriesFrame, path) -> None:
    _write_rows(path, ["date", *frame.names], frame.dates, frame.values)


def read_series_csv(path) -> TimeSeriesFrame:
    reader, header = _open(path)
    if not header or header[0] != "date" or len(header) < 2:
        raise SchemaError(f"{path}: expected header date,<name>,... got {header[:3]}")
    names = tuple(header[1:])
    dates, values = _read_rows(reader, [f"column {n!r}" for n in names], path)
    return TimeSeriesFrame(tuple(dates), names, values)
