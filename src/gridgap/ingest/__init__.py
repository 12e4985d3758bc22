"""Harmonization layer: raw sources in, QC'd canonical tables out."""

from .parse import parse_source
from .qc import QcReport, qc_fill_missing, qc_outliers
from .schema import SourceSchema, parse_keyvalue_text
from .tables import (
    WideHourlyTable,
    format_value,
    read_series_csv,
    read_wide_csv,
    write_series_csv,
    write_wide_csv,
)

__all__ = [
    "QcReport",
    "SourceSchema",
    "WideHourlyTable",
    "format_value",
    "parse_keyvalue_text",
    "parse_source",
    "qc_fill_missing",
    "qc_outliers",
    "read_series_csv",
    "read_wide_csv",
    "write_series_csv",
    "write_wide_csv",
]
