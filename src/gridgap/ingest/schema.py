"""Source descriptors: how to read one provider's raw CSV.

A descriptor is a plain key-value text file (``key = value`` per line, ``#``
comments).  It names the table kind, the columns to read, the hour
convention, a unit factor, and an optional whole-hour shift applied to every
timestamp:

    name = toy_market
    kind = load
    date_column = Date
    date_format = %m/%d/%Y
    hour_column = HourEnding
    hour_convention = hour-ending
    value_column = Load
    unit_factor = 1.0
    hour_shift = 0

``kind`` names the wide table the source becomes.  An hourly source keeps
the first reading of each (date, hour) cell and drops later duplicates.
``time_column`` (HH:MM) replaces ``hour_column`` for sub-hourly sources such
as minute-level weather, whose readings are averaged per hour.  Keys the
descriptor does not use are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ..errors import SchemaError
from .tables import TABLE_KINDS

HOUR_CONVENTIONS = ("hour-beginning", "hour-ending")


def decode_text(data: bytes, name) -> str:
    """UTF-8 text of ``data`` without a leading byte-order mark; a bad byte
    raises ``SchemaError`` naming ``name`` and the byte's offset."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name}: not UTF-8 text (byte {exc.start})") from None


def parse_keyvalue_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class SourceSchema:
    """Declarative layout of one raw source file."""

    name: str
    kind: str
    date_column: str
    value_column: str
    date_format: str = "%Y-%m-%d"
    hour_column: str = ""
    time_column: str = ""
    hour_convention: str = "hour-beginning"
    unit_factor: float = 1.0
    hour_shift: int = 0
    delimiter: str = ","

    def __post_init__(self):
        if self.kind not in TABLE_KINDS:
            raise SchemaError(f"descriptor kind {self.kind!r} not one of {TABLE_KINDS}")
        if self.hour_convention not in HOUR_CONVENTIONS:
            raise SchemaError(
                f"hour_convention {self.hour_convention!r} not one of {HOUR_CONVENTIONS}"
            )
        if bool(self.hour_column) == bool(self.time_column):
            raise SchemaError("exactly one of hour_column / time_column is required")
        if not (math.isfinite(self.unit_factor) and self.unit_factor > 0):
            raise SchemaError(f"unit_factor must be positive and finite, got {self.unit_factor}")

    @property
    def required_columns(self) -> tuple[str, ...]:
        time_col = self.hour_column or self.time_column
        return (self.date_column, time_col, self.value_column)

    @classmethod
    def from_text(cls, text: str) -> "SourceSchema":
        pairs = parse_keyvalue_text(text)
        required = ("name", "kind", "date_column", "value_column")
        missing = [k for k in required if k not in pairs]
        if missing:
            raise SchemaError(f"descriptor missing keys: {missing}")
        kwargs = dict(
            name=pairs["name"],
            kind=pairs["kind"],
            date_column=pairs["date_column"],
            value_column=pairs["value_column"],
        )
        for key in ("date_format", "hour_column", "time_column", "hour_convention", "delimiter"):
            if key in pairs:
                kwargs[key] = pairs[key]
        if "unit_factor" in pairs:
            try:
                kwargs["unit_factor"] = float(pairs["unit_factor"])
            except ValueError:
                raise SchemaError(f"unit_factor is not a number: {pairs['unit_factor']!r}") from None
        if "hour_shift" in pairs:
            try:
                kwargs["hour_shift"] = int(pairs["hour_shift"])
            except ValueError:
                raise SchemaError(f"hour_shift is not an integer: {pairs['hour_shift']!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "SourceSchema":
        return cls.from_text(decode_text(Path(path).read_bytes(), path))
