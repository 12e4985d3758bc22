"""Harmonization layer: raw sources in, QC'd canonical tables out."""

from .geo import aggregate_geo
from .mobility import (
    METRIC_NAMES,
    RETAIL_CATEGORIES,
    MobilityMetrics,
    MobilityPanelRow,
    PoiVisitRow,
    metrics_frames,
    mobility_metrics,
    retail_visits,
)
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
    "METRIC_NAMES",
    "RETAIL_CATEGORIES",
    "LongRecord",
    "LongRecordTable",
    "MobilityMetrics",
    "MobilityPanelRow",
    "PoiVisitRow",
    "QcReport",
    "SourceSchema",
    "WideHourlyTable",
    "aggregate_geo",
    "format_value",
    "metrics_frames",
    "mobility_metrics",
    "parse_keyvalue_text",
    "parse_source",
    "pivot_wide",
    "qc_fill_missing",
    "qc_outliers",
    "read_series_csv",
    "read_wide_csv",
    "resample_weather_hourly",
    "retail_visits",
    "write_series_csv",
    "write_wide_csv",
]
