"""Quality control for wide hourly tables.

Two passes, run in order:

1. :func:`qc_outliers` blanks cells that are implausible against their own
   day (above 5x or below 0.2x the daily mean of observed cells).  Price
   tables are exempt: spikes and negative prices are real market outcomes.
2. :func:`qc_fill_missing` repairs missing cells.  A single missing cell
   between two observed neighbours (the previous and next hour, crossing
   midnight into the next calendar day if needed) is linearly interpolated;
   longer runs are copied from a backup table when one is supplied.
   Whatever remains is reported as unresolved.

Every mutation is recorded in a :class:`QcReport` that serializes to plain
text, one record per line; ``ingest`` adds the raw rows its parser refused.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ParameterError
from .tables import WideHourlyTable, format_value

OUTLIER_HIGH = 5.0
OUTLIER_LOW = 0.2
MIN_CELLS_FOR_DAY_RULE = 4


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
        """Each field of ``self`` followed by, or added to, ``other``'s."""
        return QcReport(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))

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
    isolated gap at the very start or end of the table, or at midnight next
    to a day the table lacks, has only one neighbour, so it falls back to
    the backup as well.
    """
    if backup is not None and backup.kind != table.kind:
        raise ParameterError(
            f"backup kind {backup.kind!r} does not match table kind {table.kind!r}"
        )
    report = QcReport()
    flat = np.array(table.values).reshape(-1)
    missing = np.isnan(flat)
    rows = {} if backup is None else dict(zip(backup.dates, backup.values))
    # joined[i]: rows i - 1 and i are consecutive days, so their midnight is one hour
    dates, day = table.dates, dt.timedelta(days=1)
    joined = [False, *(b - a == day for a, b in zip(dates, dates[1:])), False]
    for pos in np.flatnonzero(missing).tolist():
        row, h = divmod(pos, 24)
        d = dates[row]
        if (h or joined[row]) and (h < 23 or joined[row + 1]) and not (
            missing[pos - 1] or missing[pos + 1]
        ):
            filled, method = 0.5 * (flat[pos - 1] + flat[pos + 1]), "interpolated"
        elif d in rows and not np.isnan(rows[d][h]):
            filled, method = float(rows[d][h]), "backup"
        else:
            report.unresolved.append((d, h))
            continue
        flat[pos] = filled
        report.fills.append((d, h, method, float(filled)))
    return WideHourlyTable(table.dates, flat.reshape(-1, 24), table.kind), report
