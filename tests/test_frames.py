import datetime as dt

import numpy as np
import pytest

from gridgap import TimeSeriesFrame, federal_holidays
from gridgap.errors import ParameterError, UnknownColumnError

from conftest import make_dates, make_frame
from helpers import CalendarInfo


class TestTimeSeriesFrame:
    def test_basic_construction(self):
        f = make_frame([[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        assert len(f) == 2
        assert f.names == ("a", "b")
        assert f.column("b").tolist() == [2.0, 4.0]

    def test_dates_must_increase(self):
        dates = (dt.date(2020, 1, 2), dt.date(2020, 1, 1))
        with pytest.raises(ParameterError):
            TimeSeriesFrame(dates, ("a",), np.zeros((2, 1)))

    def test_duplicate_dates_rejected(self):
        dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 1))
        with pytest.raises(ParameterError):
            TimeSeriesFrame(dates, ("a",), np.zeros((2, 1)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParameterError):
            TimeSeriesFrame(make_dates(2), ("a", "a"), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            TimeSeriesFrame(make_dates(3), ("a",), np.zeros((2, 1)))

    def test_values_read_only(self):
        f = make_frame([1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0, 0] = 9.0

    def test_unknown_column(self):
        f = make_frame([1.0, 2.0], names=("a",))
        with pytest.raises(UnknownColumnError):
            f.column("zzz")

    def test_slice_dates_inclusive(self):
        f = make_frame(np.arange(10.0))
        sliced = f.slice_dates("2020-01-03", "2020-01-05")
        assert len(sliced) == 3
        assert sliced.values[:, 0].tolist() == [2.0, 3.0, 4.0]

    def test_select_reorders(self):
        f = make_frame([[1.0, 2.0]], names=("a", "b"))
        assert f.select(("b", "a")).values.tolist() == [[2.0, 1.0]]

    def test_missing_distinguishable_from_zero(self):
        f = make_frame([[0.0], [np.nan]])
        assert not np.isnan(f.values[0, 0])
        assert np.isnan(f.values[1, 0])
        assert f.has_missing()


class TestCalendar:
    def test_from_date(self):
        info = CalendarInfo.from_date("2020-02-03", federal_holidays([2020]))
        assert (info.month, info.day, info.weekday) == (2, 3, 0)  # a Monday
        assert not info.holiday_flag

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ParameterError):
            CalendarInfo(dt.date(2020, 2, 3), 2, 3, 4, False)

    def test_holiday_flag(self):
        info = CalendarInfo.from_date("2020-07-04", federal_holidays([2020]))
        assert info.holiday_flag

    def test_known_2020_holidays(self):
        hol = federal_holidays([2020])
        for iso in [
            "2020-01-01",  # New Year's Day
            "2020-01-20",  # MLK: third Monday of January
            "2020-02-17",  # Washington's Birthday
            "2020-05-25",  # Memorial Day: last Monday of May
            "2020-07-04",
            "2020-09-07",  # Labor Day
            "2020-10-12",  # Columbus Day
            "2020-11-11",
            "2020-11-26",  # Thanksgiving: fourth Thursday
            "2020-12-25",
        ]:
            assert dt.date.fromisoformat(iso) in hol, iso
        assert len([d for d in hol if d.year == 2020]) == 10

    def test_holidays_match_a_day_by_day_reference_for_1900_to_2200(self):
        def days(year, month, weekday):
            """Every ``weekday`` of the month, found by scanning each of its days."""
            first = dt.date(year, month, 1)
            month_days = (first + dt.timedelta(days=i) for i in range(31))
            return [d for d in month_days if d.month == month and d.weekday() == weekday]

        years = range(1900, 2201)
        expected = set()
        for y in years:
            rules = [
                dt.date(y, 1, 1),      # New Year's Day
                days(y, 1, 0)[2],      # Martin Luther King Jr. Day: third Monday
                days(y, 2, 0)[2],      # Washington's Birthday: third Monday
                days(y, 5, 0)[-1],     # Memorial Day: last Monday
                dt.date(y, 7, 4),      # Independence Day
                days(y, 9, 0)[0],      # Labor Day: first Monday
                days(y, 10, 0)[1],     # Columbus Day: second Monday
                dt.date(y, 11, 11),    # Veterans Day
                days(y, 11, 3)[3],     # Thanksgiving: fourth Thursday
                dt.date(y, 12, 25),    # Christmas
            ]
            assert federal_holidays([y]) == set(rules), y
            expected |= set(rules)
        assert federal_holidays(years) == expected
