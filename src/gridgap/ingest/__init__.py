"""Harmonization layer: raw sources in, QC'd canonical tables out."""

from .parse import parse_source, pivot_wide, resample_weather_hourly
from .qc import QcReport, qc_fill_missing, qc_outliers
from .schema import SourceSchema, parse_keyvalue_text
from .tables import (
    LongRecord,
    LongRecordTable,
    WideHourlyTable,
    format_value,
    read_series_csv,
    read_wide_csv,
    write_series_csv,
    write_wide_csv,
)

__all__ = [
    "LongRecord",
    "LongRecordTable",
    "QcReport",
    "SourceSchema",
    "WideHourlyTable",
    "format_value",
    "parse_keyvalue_text",
    "parse_source",
    "pivot_wide",
    "qc_fill_missing",
    "qc_outliers",
    "read_series_csv",
    "read_wide_csv",
    "resample_weather_hourly",
    "write_series_csv",
    "write_wide_csv",
]
