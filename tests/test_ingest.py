import datetime as dt

import numpy as np
import pytest

from gridgap.errors import (
    EmptyInputError,
    MixedFieldError,
    SchemaError,
)
from gridgap.ingest import (
    LongRecord,
    LongRecordTable,
    SourceSchema,
    parse_source,
    pivot_wide,
    read_series_csv,
    read_wide_csv,
    resample_weather_hourly,
    write_wide_csv,
)

from conftest import make_hourly_table

LOAD_SCHEMA = SourceSchema(
    name="toy",
    kind="load",
    field="load",
    location="CITY",
    date_column="Date",
    value_column="Load",
    date_format="%m/%d/%Y",
    hour_column="HourEnding",
    hour_convention="hour-ending",
)


class TestWideCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        table = make_hourly_table(3)
        table.values[1, 5] = np.nan
        table.values[2, 0] = 0.1  # a value without an exact binary expansion
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_wide_csv(table, p1)
        back = read_wide_csv(p1, "load")
        write_wide_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.isnan(back.values[1, 5])
        assert back.values[2, 0] == 0.1

    def test_header_and_iso_dates(self, tmp_path):
        table = make_hourly_table(1)
        path = tmp_path / "t.csv"
        write_wide_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date," + ",".join(str(h) for h in range(24))
        assert lines[1].startswith("2020-01-01,")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,0,1\n2020-01-01,1,2\n")
        with pytest.raises(SchemaError):
            read_wide_csv(path, "load")

    def test_empty_cells_mean_missing(self, tmp_path):
        table = make_hourly_table(1)
        table.values[0, 7] = np.nan
        path = tmp_path / "t.csv"
        write_wide_csv(table, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[8] == ""

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
    def test_infinite_cell_refused(self, tmp_path, cell):
        table = make_hourly_table(3)
        path = tmp_path / "t.csv"
        write_wide_csv(table, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[8] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 3: hour 7 is infinite"):
            read_wide_csv(path, "load")


def test_series_csv_infinite_cell_refused(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("date,a,b\n2020-01-01,1.0,2.0\n\n2020-01-02,3.0,-inf\n")
    with pytest.raises(SchemaError, match="line 4: column 'b' is infinite"):
        read_series_csv(path)


@pytest.mark.parametrize(
    "position, cell, message",
    [(8, "abc", "line 3: hour 7 is not a number: 'abc'"), (0, "2020-13-01", "line 3: bad date '2020-13-01'")],
)
def test_wide_csv_malformed_cell_refused(tmp_path, position, cell, message):
    table = make_hourly_table(3)
    path = tmp_path / "t.csv"
    write_wide_csv(table, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[position] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=message):
        read_wide_csv(path, "load")


@pytest.mark.parametrize(
    "row, message",
    [("2020-01-02,3.0,x1", "line 3: column 'b' is not a number: 'x1'"), ("Jan 2,3.0,4.0", "line 3: bad date 'Jan 2'")],
)
def test_series_csv_malformed_cell_refused(tmp_path, row, message):
    path = tmp_path / "s.csv"
    path.write_text(f"date,a,b\n2020-01-01,1.0,2.0\n{row}\n")
    with pytest.raises(SchemaError, match=message):
        read_series_csv(path)


class TestSchema:
    def test_descriptor_round_trip(self):
        text = """
        # toy descriptor
        name = toy
        kind = load
        field = load
        location = CITY
        date_column = Date
        date_format = %m/%d/%Y
        hour_column = HourEnding
        hour_convention = hour-ending
        value_column = Load
        unit_factor = 0.001
        """
        schema = SourceSchema.from_text(text)
        assert schema.unit_factor == 0.001
        assert schema.hour_convention == "hour-ending"

    def test_missing_keys_rejected(self):
        with pytest.raises(SchemaError):
            SourceSchema.from_text("name = x\nkind = load\n")

    def test_bad_convention_rejected(self):
        with pytest.raises(SchemaError):
            SourceSchema(
                name="x", kind="load", field="load", location="Y",
                date_column="d", value_column="v", hour_column="h",
                hour_convention="sideways",
            )

    def test_hour_and_time_column_mutually_exclusive(self):
        with pytest.raises(SchemaError):
            SourceSchema(
                name="x", kind="load", field="load", location="Y",
                date_column="d", value_column="v",
                hour_column="h", time_column="t",
            )


class TestParseSource:
    def test_hour_ending_shifts_to_zero_based(self):
        raw = "Date,HourEnding,Load\n01/02/2020,1,55.5\n01/02/2020,24,60.0\n"
        table = parse_source(raw, LOAD_SCHEMA)
        assert [r.hour for r in table.records] == [0, 23]
        assert table.records[0].date == dt.date(2020, 1, 2)

    def test_unit_factor_applied(self):
        schema = SourceSchema(
            name="x", kind="load", field="load", location="Y",
            date_column="Date", value_column="Load", hour_column="H",
            unit_factor=0.5,
        )
        table = parse_source("Date,H,Load\n2020-01-01,0,10\n", schema)
        assert table.records[0].value == 5.0

    def test_hour_shift_crosses_midnight(self):
        schema = SourceSchema(
            name="x", kind="load", field="load", location="Y",
            date_column="Date", value_column="Load", hour_column="H",
            hour_shift=-5,
        )
        table = parse_source("Date,H,Load\n2020-01-01,2,10\n", schema)
        rec = table.records[0]
        assert (rec.date, rec.hour) == (dt.date(2019, 12, 31), 21)

    def test_malformed_rows_become_rejects_with_line_numbers(self):
        raw = (
            "Date,HourEnding,Load\n"
            "01/02/2020,1,55.5\n"
            "not-a-date,2,10\n"
            "01/02/2020,99,10\n"
            "01/02/2020,3,notanumber\n"
        )
        table = parse_source(raw, LOAD_SCHEMA)
        assert len(table.records) == 1
        assert [lineno for lineno, _ in table.rejects] == [3, 4, 5]

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_value_is_a_reject(self, cell):
        raw = f"Date,HourEnding,Load\n01/02/2020,1,55.5\n01/02/2020,2,{cell}\n"
        table = parse_source(raw, LOAD_SCHEMA)
        assert [r.value for r in table.records] == [55.5]
        assert table.rejects == [(3, f"bad value {cell!r}")]

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_source("Date,Load\n01/02/2020,5\n", LOAD_SCHEMA)

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyInputError):
            parse_source("", LOAD_SCHEMA)


class TestPivot:
    def test_duplicates_keep_first_occurrence(self):
        table = LongRecordTable(
            records=[
                LongRecord(dt.date(2020, 1, 1), 3, "load", 10.0, "CITY"),
                LongRecord(dt.date(2020, 1, 1), 3, "load", 99.0, "CITY"),
            ]
        )
        wide, dropped = pivot_wide(table, "load")
        assert wide.values[0, 3] == 10.0
        assert len(dropped) == 1 and dropped[0].value == 99.0

    def test_absent_cells_missing_and_full_span(self):
        table = LongRecordTable(
            records=[
                LongRecord(dt.date(2020, 1, 1), 0, "load", 1.0, "CITY"),
                LongRecord(dt.date(2020, 1, 3), 0, "load", 3.0, "CITY"),
            ]
        )
        wide, _ = pivot_wide(table, "load")
        assert len(wide) == 3  # includes the empty middle day
        assert np.isnan(wide.values[1]).all()
        assert np.isnan(wide.values[0, 1:]).all()

    def test_mixed_fields_rejected(self):
        table = LongRecordTable(
            records=[
                LongRecord(dt.date(2020, 1, 1), 0, "load", 1.0, "CITY"),
                LongRecord(dt.date(2020, 1, 1), 1, "temperature", 1.0, "CITY"),
            ]
        )
        with pytest.raises(MixedFieldError):
            pivot_wide(table, "load")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            pivot_wide(LongRecordTable(), "load")


class TestResample:
    def test_minute_records_average_within_hour(self):
        records = [
            LongRecord(dt.date(2020, 1, 1), 0, "temperature", 10.0, "CITY", minute=0),
            LongRecord(dt.date(2020, 1, 1), 0, "temperature", 20.0, "CITY", minute=30),
            LongRecord(dt.date(2020, 1, 1), 1, "temperature", 7.0, "CITY", minute=15),
        ]
        wide = resample_weather_hourly(LongRecordTable(records=records))
        assert wide.kind == "temperature"
        assert wide.values[0, 0] == 15.0
        assert wide.values[0, 1] == 7.0
        assert np.isnan(wide.values[0, 2])
