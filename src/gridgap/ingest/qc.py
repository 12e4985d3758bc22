"""Quality control for wide hourly tables.

Two passes, run in order:

1. :func:`qc_outliers` blanks cells that are implausible against their own
   day (above 5x or below 0.2x the daily mean of observed cells).  Price
   tables are exempt: spikes and negative prices are real market outcomes.
2. :func:`qc_fill_missing` repairs missing cells.  A single missing cell
   between two observed neighbours (the previous and next hour, crossing
   midnight if needed) is linearly interpolated; longer runs are copied from
   a backup table when one is supplied.  Whatever remains is reported as
   unresolved.

Every mutation is recorded in a :class:`QcReport` that serializes to plain
text, one record per line; ``ingest`` adds the raw rows its parser refused.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError, SchemaError
from .tables import WideHourlyTable, format_value

OUTLIER_HIGH = 5.0
OUTLIER_LOW = 0.2
MIN_CELLS_FOR_DAY_RULE = 4


# qc-report/1 record tag -> the QcReport list it fills and its cell parsers
_RECORDS = {
    "outlier": ("outliers", (dt.date.fromisoformat, int, float)),
    "fill": ("fills", (dt.date.fromisoformat, int, str, float)),
    "unresolved": ("unresolved", (dt.date.fromisoformat, int)),
    "skipped_day": ("skipped_days", (dt.date.fromisoformat,)),
    "reject": ("rejects", (int, str)),
}


@dataclass
class QcReport:
    """Audit trail of one QC run over one table."""

    outliers: list[tuple[dt.date, int, float]] = field(default_factory=list)
    fills: list[tuple[dt.date, int, str, float]] = field(default_factory=list)
    unresolved: list[tuple[dt.date, int]] = field(default_factory=list)
    skipped_days: list[dt.date] = field(default_factory=list)
    duplicates_dropped: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)

    def merge(self, other: "QcReport") -> "QcReport":
        return QcReport(
            self.outliers + other.outliers,
            self.fills + other.fills,
            self.unresolved + other.unresolved,
            self.skipped_days + other.skipped_days,
            self.duplicates_dropped + other.duplicates_dropped,
            self.rejects + other.rejects,
        )

    def is_empty(self) -> bool:
        return (
            not self.outliers
            and not self.fills
            and not self.unresolved
            and not self.skipped_days
            and self.duplicates_dropped == 0
            and not self.rejects
        )

    def to_text(self) -> str:
        lines = ["# qc-report/1", f"duplicates_dropped = {self.duplicates_dropped}"]
        for d, h, v in self.outliers:
            lines.append(f"outlier,{d.isoformat()},{h},{format_value(v)}")
        for d, h, method, v in self.fills:
            lines.append(f"fill,{d.isoformat()},{h},{method},{format_value(v)}")
        for d, h in self.unresolved:
            lines.append(f"unresolved,{d.isoformat()},{h}")
        for d in self.skipped_days:
            lines.append(f"skipped_day,{d.isoformat()}")
        for lineno, reason in self.rejects:
            lines.append(f"reject,{lineno},{reason}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QcReport":
        """Read :meth:`to_text`'s output; a malformed line raises SchemaError naming it."""
        lines = text.splitlines()
        if not lines or lines[0] != "# qc-report/1":
            raise SchemaError("not a qc-report/1 file")
        report = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            tag, _, rest = line.partition(",")
            try:
                if tag.startswith("duplicates_dropped"):
                    report.duplicates_dropped = int(line.partition("=")[2])
                    continue
                name, parsers = _RECORDS[tag]
                # the last cell takes the rest of the line: a reject's reason may hold commas
                cells = rest.split(",", len(parsers) - 1)
                record = tuple(parse(cell) for parse, cell in zip(parsers, cells, strict=True))
            except KeyError:
                raise SchemaError(f"line {lineno}: unknown qc record {tag!r}") from None
            except ValueError:
                raise SchemaError(f"line {lineno}: malformed qc record {line!r}") from None
            getattr(report, name).append(record if len(record) > 1 else record[0])
        return report


def qc_outliers(table: WideHourlyTable) -> tuple[WideHourlyTable, QcReport]:
    """Blank cells far outside their day's mean level.

    The daily mean is taken over the day's observed cells as read; a cell is
    an outlier when strictly above ``5 * mean`` or strictly below
    ``0.2 * mean``.  Days with fewer than 4 observed cells carry too little
    information for the rule and are skipped (reported, left untouched).
    Price tables pass through unflagged.
    """
    report = QcReport()
    values = np.array(table.values)
    if table.kind == "price":
        return WideHourlyTable(table.dates, values, table.kind), report
    for i, d in enumerate(table.dates):
        row = values[i]
        ok = ~np.isnan(row)
        if not ok.any():
            continue
        if ok.sum() < MIN_CELLS_FOR_DAY_RULE:
            report.skipped_days.append(d)
            continue
        mean = float(np.mean(row[ok]))
        bad = ok & ((row > OUTLIER_HIGH * mean) | (row < OUTLIER_LOW * mean))
        for h in np.nonzero(bad)[0]:
            report.outliers.append((d, int(h), float(row[h])))
            row[h] = np.nan
    return WideHourlyTable(table.dates, values, table.kind), report


def qc_fill_missing(
    table: WideHourlyTable, backup: WideHourlyTable | None = None
) -> tuple[WideHourlyTable, QcReport]:
    """Fill missing cells by interpolation, then backup, then report the rest.

    Isolated gaps (one missing hour with both chronological neighbours
    observed, crossing midnight where needed) take the neighbours' midpoint.
    Runs of two or more consecutive missing hours are copied cell-by-cell
    from the backup table where it has the same (date, hour) observed.  An
    isolated gap at the very start or end of the table has only one
    neighbour, so it falls back to the backup as well.
    """
    if backup is not None and backup.kind != table.kind:
        raise ParameterError(
            f"backup kind {backup.kind!r} does not match table kind {table.kind!r}"
        )
    report = QcReport()
    values = np.array(table.values)
    flat = values.reshape(-1)
    n = flat.shape[0]
    backup_lookup = {}
    if backup is not None:
        for i, d in enumerate(backup.dates):
            for h in range(24):
                v = backup.values[i, h]
                if not np.isnan(v):
                    backup_lookup[(d, h)] = float(v)

    def cell(pos: int) -> tuple[dt.date, int]:
        return table.dates[pos // 24], pos % 24

    pos = 0
    while pos < n:
        if not np.isnan(flat[pos]):
            pos += 1
            continue
        run_end = pos
        while run_end + 1 < n and np.isnan(flat[run_end + 1]):
            run_end += 1
        run_len = run_end - pos + 1
        interpolatable = run_len == 1 and pos > 0 and run_end < n - 1
        for p in range(pos, run_end + 1):
            d, h = cell(p)
            if interpolatable:
                filled = 0.5 * (flat[p - 1] + flat[p + 1])
                flat[p] = filled
                report.fills.append((d, h, "interpolated", float(filled)))
            elif (d, h) in backup_lookup:
                filled = backup_lookup[(d, h)]
                flat[p] = filled
                report.fills.append((d, h, "backup", float(filled)))
            else:
                report.unresolved.append((d, h))
        pos = run_end + 1
    return WideHourlyTable(table.dates, flat.reshape(-1, 24), table.kind), report
