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
as minute-level weather, whose readings are averaged per hour.  The keys are
the fields of ``SourceSchema``; any other key is refused, naming the file and
the closest known key, as ``parse_keys`` does for every ``key = value`` file.
"""

from __future__ import annotations

import csv
import datetime as dt
import difflib
import io
import math
import os
import re
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from ..errors import ConfigError, SchemaError

TABLE_KINDS = ("load", "temperature", "humidity", "wind", "price")
HOUR_CONVENTIONS = ("hour-beginning", "hour-ending")


def decode_text(data: bytes, name) -> str:
    """UTF-8 text of ``data`` without a leading byte-order mark; a bad byte
    raises ``SchemaError`` naming ``name`` and the byte's offset."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name}: not UTF-8 text (byte {exc.start})") from None


def csv_rows(data: bytes, name):
    """The rows of CSV ``data``, decoded once by ``decode_text``; LF, CRLF and
    CR each end a line.  A row the csv module refuses, such as one with a cell
    over its field size limit, raises ``SchemaError`` naming ``name`` and the
    line."""
    reader = csv.reader(io.StringIO(decode_text(data, name), newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{name} line {reader.line_num}: {exc}") from None


@dataclass(frozen=True)
class InputFile:
    """A file a key names, read by the reader that parses it: ``read_bytes``
    passes what it read to ``record(path, data)``.  It stands for its path."""

    path: Path
    record: typing.Callable[[Path, bytes], None]

    def read_bytes(self) -> bytes:
        data = self.path.read_bytes()
        self.record(self.path, data)
        return data

    def __fspath__(self) -> str:
        return str(self.path)

    __str__ = __fspath__


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


REQUIRED = object()  # a default: the file is refused without the key
_BOOLS = {"true": True, "yes": True, "1": True, "on": True}
_BOOLS |= {"false": False, "no": False, "0": False, "off": False}
# how each scalar type reads a value, and what a bad one should have been
_SCALARS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda text: _BOOLS[text.strip().lower()], "true/false"),
    dt.date: (dt.date.fromisoformat, "YYYY-MM-DD"),
}


def _value(kind, key: str, text: str, base: Path | None, record):
    if kind in _SCALARS:
        convert, expected = _SCALARS[kind]
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}: expected {expected}, got '{text}'") from None
    if kind is str:
        return text
    if kind is not Path:
        return kind(key, text)
    path = base / text
    if not path.is_file():
        raise ConfigError(f"{key}: file not found: {path}")
    if not os.access(path, os.R_OK):
        raise ConfigError(f"{key}: file not readable: {path}")
    return path if record is None else InputFile(path, record)


def parse_keys(raw: dict[str, str], keys: dict, base: Path | None = None, record=None) -> dict:
    """Typed values of the ``key = value`` pairs ``raw`` by the table ``keys``.

    The table maps a key, or a family such as ``sign.<variable>``, to (kind,
    default).  A family's value maps each member to its value.  A kind is a
    type of ``_SCALARS``, ``str``, a parser ``kind(key, text)``, or ``Path``:
    a readable file resolved against ``base``, given unread as an ``InputFile``
    over ``record`` (the bare ``Path`` without one).  An absent key takes its
    default, is left out when that is None, and fails when it is ``REQUIRED``;
    a key in no row fails before any value is read.  Failures are ``ConfigError``.
    """
    patterns = {name: re.compile(re.sub(r"<\w+>", "(.+)", re.escape(name))) for name in keys}
    found = []
    for key in raw:
        match = next(((n, m) for n, p in patterns.items() if (m := p.fullmatch(key))), None)
        if match is None:
            closest = difflib.get_close_matches(key, list(keys), n=1, cutoff=0)[0]
            raise ConfigError(f"unknown key '{key}' (closest known key: '{closest}')")
        found.append((key, *match))
    values = {name: {} for name in keys if "<" in name}
    for name, (kind, default) in keys.items():
        if name not in raw and name not in values and default is not None:
            if default is REQUIRED:
                raise ConfigError(f"missing required key '{name}'")
            values[name] = default
    for key, name, match in found:
        value = _value(keys[name][0], key, raw[key], base, record)
        if match.lastindex:
            values[name][match[1]] = value
        else:
            values[name] = value
    return values


def read_keyfile(path, keys: dict, record=None) -> dict:
    """``parse_keys`` of the ``key = value`` file ``path``, a ``Path`` or an
    ``InputFile``; a refusal is a ``SchemaError`` naming the file."""
    text = decode_text(path.read_bytes(), path)
    try:
        return parse_keys(parse_keyvalue_text(text), keys, Path(path).parent, record)
    except (ConfigError, SchemaError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


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
    def from_file(cls, path) -> "SourceSchema":
        """The descriptor at ``path`` (see ``read_keyfile``).  Each field is a
        key, typed as the field is; a refusal names the file."""
        types = typing.get_type_hints(cls)
        keys = {
            f.name: (types[f.name], REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls)
        }
        values = read_keyfile(path, keys)
        try:
            return cls(**values)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None
