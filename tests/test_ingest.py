import datetime as dt

import numpy as np
import pytest

from gridgap.errors import (
    EmptyInputError,
    SchemaError,
)
from gridgap.ingest import (
    SourceSchema,
    parse_source,
    read_series_csv,
    read_wide_csv,
    write_wide_csv,
)
from gridgap.ingest.schema import InputFile

from conftest import make_hourly_table

LOAD_SCHEMA = SourceSchema(
    name="toy",
    kind="load",
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


TOY_DESCRIPTOR = """
# toy descriptor
name = toy
kind = load
date_column = Date
date_format = %m/%d/%Y
hour_column = HourEnding
hour_convention = hour-ending
value_column = Load
unit_factor = 0.001
hour_shift = -1
"""


class TestSchema:
    def test_descriptor_round_trip(self, tmp_path):
        path = tmp_path / "toy.schema"
        path.write_text(TOY_DESCRIPTOR)
        schema = SourceSchema.from_file(path)
        assert schema == SourceSchema(
            name="toy", kind="load", date_column="Date", value_column="Load",
            date_format="%m/%d/%Y", hour_column="HourEnding", hour_convention="hour-ending",
            unit_factor=0.001, hour_shift=-1,
        )
        # a key the descriptor does not use is refused, not ignored
        path.write_text(TOY_DESCRIPTOR + "field = load\n")
        with pytest.raises(SchemaError) as exc:
            SourceSchema.from_file(path)
        assert str(exc.value) == f"{path}: unknown key 'field' (closest known key: 'kind')"

    def test_input_file_is_read_once_and_its_bytes_recorded(self, tmp_path):
        path = tmp_path / "toy.schema"
        path.write_text(TOY_DESCRIPTOR)
        recorded = []
        schema = SourceSchema.from_file(InputFile(path, lambda *pair: recorded.append(pair)))
        assert schema.hour_shift == -1
        assert recorded == [(path, TOY_DESCRIPTOR.encode())]

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf"), float("nan")])
    def test_unit_factor_must_be_positive_and_finite(self, factor):
        with pytest.raises(SchemaError, match="unit_factor"):
            SourceSchema(
                name="x", kind="load", date_column="d", value_column="v", hour_column="h",
                unit_factor=factor,
            )

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "x.schema"
        path.write_text("name = x\nkind = load\n")
        with pytest.raises(SchemaError, match="missing required key 'date_column'"):
            SourceSchema.from_file(path)

    def test_bad_convention_rejected(self):
        with pytest.raises(SchemaError):
            SourceSchema(
                name="x", kind="load",
                date_column="d", value_column="v", hour_column="h",
                hour_convention="sideways",
            )

    def test_hour_and_time_column_mutually_exclusive(self):
        with pytest.raises(SchemaError):
            SourceSchema(
                name="x", kind="load",
                date_column="d", value_column="v",
                hour_column="h", time_column="t",
            )


class TestParseSource:
    def test_hour_ending_shifts_to_zero_based(self):
        raw = b"Date,HourEnding,Load\n01/02/2020,1,55.5\n01/02/2020,24,60.0\n"
        wide, report = parse_source(raw, LOAD_SCHEMA)
        assert wide.dates == (dt.date(2020, 1, 2),)
        assert (wide.values[0, 0], wide.values[0, 23]) == (55.5, 60.0)
        assert np.isnan(wide.values[0, 1:23]).all()
        assert (wide.kind, report.rejects, report.duplicates_dropped) == ("load", [], 0)

    def test_unit_factor_applied(self):
        schema = SourceSchema(
            name="x", kind="load",
            date_column="Date", value_column="Load", hour_column="H",
            unit_factor=0.5,
        )
        wide, _ = parse_source(b"Date,H,Load\n2020-01-01,0,10\n", schema)
        assert wide.values[0, 0] == 5.0

    def test_hour_shift_crosses_midnight(self):
        schema = SourceSchema(
            name="x", kind="load",
            date_column="Date", value_column="Load", hour_column="H",
            hour_shift=-5,
        )
        wide, _ = parse_source(b"Date,H,Load\n2020-01-01,2,10\n2020-01-01,9,20\n", schema)
        assert wide.dates == (dt.date(2019, 12, 31), dt.date(2020, 1, 1))
        assert (wide.values[0, 21], wide.values[1, 4]) == (10.0, 20.0)
        assert np.isfinite(wide.values).sum() == 2

    def test_malformed_rows_become_rejects_with_line_numbers(self):
        raw = (
            b"Date,HourEnding,Load\n"
            b"01/02/2020,1,55.5\n"
            b"not-a-date,2,10\n"
            b"01/02/2020,99,10\n"
            b"01/02/2020,3,notanumber\n"
        )
        wide, report = parse_source(raw, LOAD_SCHEMA)
        assert np.isfinite(wide.values).sum() == 1
        assert [lineno for lineno, _ in report.rejects] == [3, 4, 5]

    @pytest.mark.parametrize(
        "time_column, cell, reason",
        [("", "ab", "bad hour 'ab'"), ("T", "1:xx", "bad time '1:xx'"), ("T", "7", "bad time '7'")],
    )
    def test_unparseable_time_cell_reason_names_the_cell(self, time_column, cell, reason):
        schema = SourceSchema(
            name="x", kind="load", date_column="Date", value_column="Load",
            hour_column="" if time_column else "T", time_column=time_column,
        )
        first = "0:00" if time_column else "0"
        raw = f"Date,T,Load\n2020-01-01,{first},1\n2020-01-01,{cell},2\n"
        _, report = parse_source(raw.encode(), schema)
        assert report.rejects == [(3, reason)]

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_value_is_a_reject(self, cell):
        raw = f"Date,HourEnding,Load\n01/02/2020,1,55.5\n01/02/2020,2,{cell}\n"
        wide, report = parse_source(raw.encode(), LOAD_SCHEMA)
        assert wide.values[0, 0] == 55.5
        assert np.isnan(wide.values[0, 1:]).all()
        assert report.rejects == [(3, f"bad value {cell!r}")]

    def test_hour_shift_past_the_calendar_is_a_reject(self):
        schema = SourceSchema(
            name="x", kind="load",
            date_column="Date", value_column="Load", hour_column="H",
            hour_shift=1,
        )
        raw = b"Date,H,Load\n9999-12-31,22,1\n9999-12-31,23,2\n"
        wide, report = parse_source(raw, schema)
        assert wide.dates == (dt.date(9999, 12, 31),)
        assert wide.values[0, 23] == 1.0
        assert report.rejects == [(3, "date out of range")]

    def test_byte_order_mark_is_dropped(self):
        raw = "Date,HourEnding,Load\n01/02/2020,1,55.5\n"
        plain, _ = parse_source(raw.encode(), LOAD_SCHEMA)
        marked, _ = parse_source(b"\xef\xbb\xbf" + raw.encode(), LOAD_SCHEMA)
        assert marked.dates == plain.dates
        assert np.array_equal(marked.values, plain.values, equal_nan=True)

    def test_non_utf8_byte_names_source_and_offset(self):
        raw = b"Date,HourEnding,Load\n01/02/2020,1,5\xff\n"
        with pytest.raises(SchemaError, match=r"^source toy: not UTF-8 text \(byte 35\)$"):
            parse_source(raw, LOAD_SCHEMA)

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_source(b"Date,Load\n01/02/2020,5\n", LOAD_SCHEMA)

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyInputError):
            parse_source(b"", LOAD_SCHEMA)


class TestPivot:
    def test_duplicates_keep_first_occurrence(self):
        raw = b"Date,HourEnding,Load\n01/01/2020,4,10\n01/01/2020,4,99\n"
        wide, report = parse_source(raw, LOAD_SCHEMA)
        assert wide.values[0, 3] == 10.0
        assert report.duplicates_dropped == 1

    def test_absent_cells_missing_and_full_span(self):
        raw = b"Date,HourEnding,Load\n01/01/2020,1,1\n01/03/2020,1,3\n"
        wide, _ = parse_source(raw, LOAD_SCHEMA)
        assert len(wide) == 3  # includes the empty middle day
        assert np.isnan(wide.values[1]).all()
        assert np.isnan(wide.values[0, 1:]).all()
        assert wide.values[2, 0] == 3.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError, match="source toy: no usable rows"):
            parse_source(b"Date,HourEnding,Load\n", LOAD_SCHEMA)

    def test_every_row_rejected(self):
        raw = b"Date,HourEnding,Load\nnot-a-date,1,5\n01/01/2020,1,inf\n"
        with pytest.raises(EmptyInputError, match="source toy: no usable rows"):
            parse_source(raw, LOAD_SCHEMA)


class TestResample:
    def test_minute_records_average_within_hour(self):
        schema = SourceSchema(
            name="wx", kind="temperature",
            date_column="Date", value_column="T", time_column="Time",
        )
        raw = b"Date,Time,T\n2020-01-01,00:00,10\n2020-01-01,00:30,20\n2020-01-01,01:15,7\n"
        wide, report = parse_source(raw, schema)
        assert wide.kind == "temperature"
        assert wide.values[0, 0] == 15.0
        assert wide.values[0, 1] == 7.0
        assert np.isnan(wide.values[0, 2])
        assert report.duplicates_dropped == 0
