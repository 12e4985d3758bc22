import datetime as dt

import numpy as np
import pytest

from gridgap.ingest import QcReport, WideHourlyTable, qc_fill_missing, qc_outliers, write_wide_csv
from gridgap.ingest.tables import format_value

from conftest import make_dates, make_hourly_table, sine_day
from helpers import reference_fill_missing


def inject(table, day, hour, value):
    table.values[day, hour] = value
    return table


class TestOutliers:
    def test_spike_and_dip_flagged(self):
        table = make_hourly_table(3)  # sine around 100, range 80..120
        inject(table, 1, 4, 700.0)
        inject(table, 2, 10, 5.0)
        cleaned, report = qc_outliers(table)
        flagged = {(d, h) for d, h, _ in report.outliers}
        assert flagged == {(table.dates[1], 4), (table.dates[2], 10)}
        assert np.isnan(cleaned.values[1, 4])
        assert np.isnan(cleaned.values[2, 10])

    def test_exact_boundary_not_flagged(self):
        # One cell at 500, nineteen at 100, four at 0: the mean is exactly
        # 100.0 in float arithmetic, so the 500 cell sits exactly on the 5x
        # boundary.  The rule is strict, so it must survive; the zeros are
        # genuine dips and must go.
        values = np.full((1, 24), 100.0)
        values[0, 0] = 500.0
        values[0, 20:24] = 0.0
        table = WideHourlyTable(make_dates(1), values, "load")
        assert table.values[0].mean() == 100.0
        _, report = qc_outliers(table)
        flagged = {(h) for _, h, _ in report.outliers}
        assert 0 not in flagged
        assert flagged == {20, 21, 22, 23}

    def test_price_tables_never_flagged(self):
        table = make_hourly_table(2, kind="price")
        inject(table, 0, 3, 1e6)
        inject(table, 1, 7, -500.0)
        cleaned, report = qc_outliers(table)
        assert report.outliers == []
        assert cleaned.values[0, 3] == 1e6

    def test_sparse_day_skipped_and_reported(self):
        values = np.full((1, 24), np.nan)
        values[0, :3] = [1.0, 2.0, 3000.0]  # only 3 observed cells
        table = WideHourlyTable(make_dates(1), values, "load")
        cleaned, report = qc_outliers(table)
        assert report.outliers == []
        assert report.skipped_days == [table.dates[0]]
        assert cleaned.values[0, 2] == 3000.0

    def test_daily_mean_over_observed_cells_only(self):
        values = np.full((1, 24), np.nan)
        values[0, :6] = [10.0, 10.0, 10.0, 10.0, 10.0, 100.0]
        # observed mean is 25; 100 > 5*25 is false, so nothing flagged
        table = WideHourlyTable(make_dates(1), values, "load")
        _, report = qc_outliers(table)
        assert report.outliers == []


class TestFillMissing:
    def test_isolated_gap_linear_interpolation_exact(self):
        # linear-in-hour day: interpolation must reproduce the value exactly
        values = (3.0 + 2.0 * np.arange(24.0)).reshape(1, 24)
        truth = values[0, 7]
        values[0, 7] = np.nan
        table = WideHourlyTable(make_dates(1), values, "load")
        filled, report = qc_fill_missing(table)
        assert filled.values[0, 7] == truth
        assert report.fills == [(table.dates[0], 7, "interpolated", truth)]

    def test_interpolation_crosses_midnight(self):
        values = np.ones((2, 24))
        values[0, 23] = np.nan
        values[1, 0] = 3.0
        table = WideHourlyTable(make_dates(2), values, "load")
        filled, report = qc_fill_missing(table)
        assert filled.values[0, 23] == 2.0  # midpoint of 1.0 and 3.0

    @pytest.mark.parametrize("row, hour", [(0, 23), (1, 0)], ids=["before", "after"])
    def test_no_interpolation_across_a_day_the_table_lacks(self, row, hour):
        # 2020-01-02 is not in the table, so midnight has one neighbour only
        dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 3))
        values = np.ones((2, 24))
        values[row, hour] = np.nan
        table = WideHourlyTable(dates, values, "load")
        filled, report = qc_fill_missing(table)
        assert np.isnan(filled.values[row, hour])
        assert report.fills == [] and report.unresolved == [(dates[row], hour)]
        backup = WideHourlyTable(dates, np.full((2, 24), 7.0), "load")
        filled, report = qc_fill_missing(table, backup)
        assert report.fills == [(dates[row], hour, "backup", 7.0)]

    def test_run_of_two_uses_backup_verbatim(self):
        table = make_hourly_table(1)
        table.values[0, 5] = np.nan
        table.values[0, 6] = np.nan
        backup = make_hourly_table(1, level=55.5, amplitude=0.0)
        filled, report = qc_fill_missing(table, backup)
        assert filled.values[0, 5] == 55.5
        assert filled.values[0, 6] == 55.5
        assert {m for _, _, m, _ in report.fills} == {"backup"}

    def test_run_without_backup_unresolved(self):
        table = make_hourly_table(1)
        table.values[0, 5] = np.nan
        table.values[0, 6] = np.nan
        filled, report = qc_fill_missing(table)
        assert np.isnan(filled.values[0, 5])
        assert report.unresolved == [(table.dates[0], 5), (table.dates[0], 6)]

    def test_edge_gap_falls_back_to_backup(self):
        table = make_hourly_table(1)
        table.values[0, 0] = np.nan  # no left neighbour exists
        backup = make_hourly_table(1, level=77.0, amplitude=0.0)
        filled, report = qc_fill_missing(table, backup)
        assert filled.values[0, 0] == 77.0

    def test_backup_kind_must_match(self):
        table = make_hourly_table(1)
        backup = make_hourly_table(1, kind="temperature")
        with pytest.raises(Exception):
            qc_fill_missing(table, backup)


    @pytest.mark.parametrize("seed", range(4))
    def test_matches_run_scan_reference(self, seed):
        # 60 seeded tables per seed: 1-30 days, gap shares up to 50% plus runs,
        # backups on shifted date ranges with gaps of their own, or none
        rng = np.random.default_rng([20261020, seed])
        for _ in range(60):
            n = int(rng.integers(1, 31))
            values = rng.uniform(50.0, 150.0, (n, 24))
            values[rng.random((n, 24)) < rng.uniform(0.0, 0.5)] = np.nan
            for start, length in zip(rng.integers(0, n * 24, 3), rng.integers(1, 6, 3)):
                values.reshape(-1)[start : start + length] = np.nan
            table = WideHourlyTable(make_dates(n), values, "load")
            backup = None
            if rng.random() < 0.6:
                days = int(rng.integers(1, 35))
                first = dt.date(2020, 1, 1) + dt.timedelta(days=int(rng.integers(-5, 6)))
                spare = rng.uniform(50.0, 150.0, (days, 24))
                spare[rng.random((days, 24)) < 0.2] = np.nan
                backup = WideHourlyTable(make_dates(days, first.isoformat()), spare, "load")
            filled, report = qc_fill_missing(table, backup)
            want, want_report = reference_fill_missing(table, backup)
            assert filled.values.tobytes() == want.values.tobytes()
            assert report.to_text() == want_report.to_text()

class TestIdempotence:
    def test_second_pass_is_a_no_op(self):
        table = make_hourly_table(4)
        inject(table, 0, 3, 900.0)
        inject(table, 2, 11, 1.0)
        table.values[1, 8] = np.nan
        backup = make_hourly_table(4, level=99.0, amplitude=0.0)

        t1, r1 = qc_outliers(table)
        t1, rf1 = qc_fill_missing(t1, backup)
        assert r1.merge(rf1) != QcReport()

        t2, r2 = qc_outliers(t1)
        t2, rf2 = qc_fill_missing(t2, backup)
        assert r2.merge(rf2) == QcReport()
        np.testing.assert_array_equal(t1.values, t2.values)

    def test_idempotence_is_byte_exact_on_disk(self, tmp_path):
        table = make_hourly_table(3)
        inject(table, 1, 6, 800.0)
        backup = make_hourly_table(3, level=95.0, amplitude=0.0)
        t1, _ = qc_outliers(table)
        t1, _ = qc_fill_missing(t1, backup)
        t2, _ = qc_outliers(t1)
        t2, _ = qc_fill_missing(t2, backup)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_wide_csv(t1, p1)
        write_wide_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReport:
    def test_text_lists_every_record(self):
        report = QcReport(
            outliers=[(dt.date(2020, 1, 1), 13, 601.25)],
            fills=[(dt.date(2020, 1, 2), 7, "interpolated", 55.0),
                   (dt.date(2020, 1, 3), 0, "backup", 42.0)],
            unresolved=[(dt.date(2020, 1, 4), 22)],
            skipped_days=[dt.date(2020, 1, 5)],
            duplicates_dropped=2,
            rejects=[(7, "bad date '2020,01,02'"), (9, "bad value 'inf'")],
        )
        # a reject's reason is free text, commas included
        assert report.to_text().splitlines() == [
            "# qc-report/1",
            "duplicates_dropped = 2",
            "outlier,2020-01-01,13,601.25",
            "fill,2020-01-02,7,interpolated,55.0",
            "fill,2020-01-03,0,backup,42.0",
            "unresolved,2020-01-04,22",
            "skipped_day,2020-01-05",
            "reject,7,bad date '2020,01,02'",
            "reject,9,bad value 'inf'",
        ]

    def test_one_line_per_mutation(self):
        report = QcReport(outliers=[(dt.date(2020, 1, 1), 3, 9.0)])
        body = [l for l in report.to_text().splitlines() if l.startswith("outlier")]
        assert len(body) == 1

    def test_format_value_round_trips_floats(self):
        for v in [0.1, 1.0 / 3.0, 11500.0 / 19.0, 1e-17]:
            assert float(format_value(v)) == v
