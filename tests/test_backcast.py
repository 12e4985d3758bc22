"""Feature encoding, network training, ensemble selection, and reduction math."""

import datetime as dt
import itertools
import json

import numpy as np
import pytest

from gridgap import blas as blas_module
from gridgap.backcast import ensemble as ensemble_module
from gridgap.backcast import (
    BackcastEnsemble,
    BaseModel,
    FeatureConfig,
    ReductionSeries,
    TrainingConfig,
    build_features,
    feature_matrix,
    feature_names,
    forward,
    gradient_check,
    init_params,
    load_ensemble,
    loss_and_grads,
    monthly_summary,
    predict,
    predict_many,
    reduction_rate,
    reduction_series,
    save_ensemble,
    train_ensemble,
    train_network,
)
from gridgap.errors import (
    CoverageError,
    DomainError,
    InsufficientDataError,
    MissingValueError,
    ParameterError,
    SchemaError,
    UnknownColumnError,
)
from gridgap.frames import CalendarInfo, federal_holidays
from gridgap.ingest import WideHourlyTable


def _weather_row(temp=None, humidity=None, wind=None):
    return {
        "temperature": np.full(24, 20.0) if temp is None else np.asarray(temp, float),
        "humidity": np.full(24, 55.0) if humidity is None else np.asarray(humidity, float),
        "wind": np.full(24, 4.0) if wind is None else np.asarray(wind, float),
    }


def _quantiles(row, kind):
    """The ``kind`` quantile entries of a default-config feature row."""
    names = feature_names(FeatureConfig())
    return tuple(float(v) for n, v in zip(names, row) if n.startswith(f"{kind}_q"))


class TestFeatures:
    def test_constant_day_quantiles(self):
        cal = CalendarInfo.from_date(dt.date(2020, 3, 4))
        row = build_features(cal, _weather_row(), gdp=1.5)
        assert _quantiles(row, "temperature") == (20.0, 20.0, 20.0, 20.0)

    def test_max_quantile_of_1_to_24(self):
        cal = CalendarInfo.from_date(dt.date(2020, 3, 4))
        row = build_features(cal, _weather_row(temp=np.arange(1.0, 25.0)), gdp=0.0)
        assert _quantiles(row, "temperature")[-1] == 24.0
        # linear interpolation between order statistics: q25 of 1..24
        assert _quantiles(row, "temperature")[0] == pytest.approx(1 + 0.25 * 23)

    def test_sunday_holiday_encoding(self):
        # 2020-07-05 was a Sunday; treat it as the observed holiday
        d = dt.date(2020, 7, 5)
        cal = CalendarInfo.from_date(d, holidays={d})
        vec = build_features(cal, _weather_row(), gdp=0.0)
        assert vec[12 + 6] == 1.0  # weekday one-hot, Sunday slot
        assert vec[19] == 1.0  # holiday bit
        assert vec[12:19].sum() == 1.0

    def test_vector_layout(self):
        d = dt.date(2020, 11, 17)
        cal = CalendarInfo.from_date(d)
        vec = build_features(cal, _weather_row(temp=np.arange(1.0, 25.0)), gdp=-2.5)
        names = feature_names(FeatureConfig())
        assert len(vec) == len(names) == 34
        assert vec[10] == 1.0 and names[10] == "month_11"
        assert vec[:12].sum() == 1.0
        assert vec[names.index("day_scaled")] == pytest.approx(17 / 31)
        assert vec[names.index("temperature_q100")] == 24.0
        assert vec[names.index("gdp_growth")] == -2.5

    def test_missing_cells_tolerated_down_to_floor(self):
        cal = CalendarInfo.from_date(dt.date(2020, 5, 2))
        temp = np.full(24, 10.0)
        temp[:12] = np.nan  # exactly 12 readings remain
        row = build_features(cal, _weather_row(temp=temp), gdp=0.0)
        assert _quantiles(row, "temperature") == (10.0, 10.0, 10.0, 10.0)
        temp[12] = np.nan  # 11 remain
        with pytest.raises(InsufficientDataError):
            build_features(cal, _weather_row(temp=temp), gdp=0.0)

    def test_quantiles_ignore_missing_cells(self):
        cal = CalendarInfo.from_date(dt.date(2020, 5, 2))
        temp = np.array([np.nan] * 4 + list(range(1, 21)), dtype=float)
        row = build_features(cal, _weather_row(temp=temp), gdp=0.0)
        assert _quantiles(row, "temperature")[-1] == 20.0

    def test_unknown_kind_and_bad_shape(self):
        cal = CalendarInfo.from_date(dt.date(2020, 5, 2))
        row = _weather_row()
        del row["wind"]
        with pytest.raises(UnknownColumnError):
            build_features(cal, row, gdp=0.0)
        with pytest.raises(ParameterError):
            build_features(cal, _weather_row(temp=np.ones(23)), gdp=0.0)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            FeatureConfig(quantile_levels=(0.5, 0.25))
        with pytest.raises(ParameterError):
            FeatureConfig(quantile_levels=(0.0, 0.5))
        with pytest.raises(ParameterError):
            FeatureConfig(weather_kinds=("temperature", "temperature"))

    def test_gdp_step_map(self):
        dates = [
            dt.date(2019, 12, 31),
            dt.date(2020, 5, 15),
            dt.date(2020, 6, 1),
            dt.date(2020, 8, 20),
        ]
        tables = {
            k: WideHourlyTable(tuple(dates), np.full((4, 24), v), k)
            for k, v in (("temperature", 15.0), ("humidity", 50.0), ("wind", 3.0))
        }
        gdp = {(2020, 1): 2.0, (2020, 6): -3.0}
        mat = feature_matrix(dates[1:], tables, gdp)
        assert mat[0, -1] == 2.0
        assert mat[1, -1] == -3.0
        assert mat[2, -1] == -3.0
        # a date before the first mapped month has no value to step from
        with pytest.raises(ParameterError):
            feature_matrix([dates[0]], tables, gdp)

    def test_feature_matrix_missing_date(self):
        d = dt.date(2020, 5, 15)
        tables = {
            k: WideHourlyTable((d,), np.full((1, 24), 1.0), k)
            for k in ("temperature", "humidity", "wind")
        }
        with pytest.raises(InsufficientDataError, match="no row for 2020-05-16"):
            feature_matrix([d, d + dt.timedelta(days=1)], tables, 0.0)

    def test_feature_matrix_names_first_short_day(self):
        dates = tuple(dt.date(2020, 5, 1) + dt.timedelta(days=i) for i in range(4))
        tables = {
            k: WideHourlyTable(dates, np.full((4, 24), 1.0), k)
            for k in ("temperature", "humidity", "wind")
        }
        tables["wind"].values[1:, :13] = np.nan
        with pytest.raises(InsufficientDataError, match="wind has 11 usable cells on 2020-05-02"):
            feature_matrix(dates, tables, 0.0)

    @pytest.mark.parametrize("reading", [np.inf, -np.inf])
    def test_infinite_reading_refused(self, reading):
        dates = tuple(dt.date(2020, 5, 1) + dt.timedelta(days=i) for i in range(3))
        tables = {
            k: WideHourlyTable(dates, np.full((3, 24), 1.0), k)
            for k in ("temperature", "humidity", "wind")
        }
        tables["humidity"].values[1:, 5] = reading
        with pytest.raises(ParameterError, match="humidity has an infinite reading on 2020-05-02"):
            feature_matrix(dates, tables, 0.0)
        cal = CalendarInfo.from_date(dates[1])
        with pytest.raises(ParameterError, match="humidity has an infinite reading on 2020-05-02"):
            build_features(cal, {k: t.values[1] for k, t in tables.items()}, gdp=0.0)


class TestNetwork:
    def test_gradient_check_small_net(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        params = init_params(rng, (5, 6, 4, 3, 1))
        gap = gradient_check(params, x, y, samples=10_000, rng=np.random.default_rng(1))
        assert gap < 1e-4

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 6))
        beta = rng.standard_normal(6)
        y = x @ beta
        params, final_loss = train_network(x, y, (16, 16, 16), np.random.default_rng(3), epochs=300)
        assert final_loss < 0.01
        pred = forward(params, x)
        assert np.mean((pred - y) ** 2) < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 4))
        y = x[:, 0]
        a, _ = train_network(x, y, (8, 8, 8), np.random.default_rng(9), epochs=50)
        b, _ = train_network(x, y, (8, 8, 8), np.random.default_rng(9), epochs=50)
        for (w1, b1), (w2, b2) in zip(a, b):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)

    def test_check_gradients_path(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3))
        y = x.sum(axis=1)
        train_network(x, y, (4, 4, 4), np.random.default_rng(0), epochs=3, check_gradients=True)

    def test_loss_and_grads_shapes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        params = init_params(rng, (3, 4, 4, 4, 1))
        loss, grads = loss_and_grads(params, x, y)
        assert loss >= 0
        for (w, b), (gw, gb) in zip(params, grads):
            assert gw.shape == w.shape
            assert gb.shape == b.shape

    def test_init_validation(self):
        with pytest.raises(ParameterError):
            init_params(np.random.default_rng(0), (3, 4, 4, 1))
        with pytest.raises(ParameterError):
            init_params(np.random.default_rng(0), (3, 4, 0, 4, 1))


def _synthetic_training_data(n=730, seed=5):
    rng = np.random.default_rng(seed)
    start = dt.date(2018, 1, 1)
    dates = [start + dt.timedelta(days=i) for i in range(n)]

    def day(d, kind):
        doy = d.timetuple().tm_yday
        base = {
            "temperature": 12 + 14 * np.sin(2 * np.pi * (doy - 100) / 365.0),
            "humidity": 60 + 15 * np.sin(2 * np.pi * doy / 365.0 + 1),
            "wind": 5 + 2 * np.sin(2 * np.pi * doy / 365.0 + 2),
        }[kind]
        hours = np.arange(24)
        return base + 3 * np.sin(2 * np.pi * (hours - 14) / 24.0) + rng.normal(0, 0.5, 24)

    tables = {
        k: WideHourlyTable(tuple(dates), np.array([day(d, k) for d in dates]), k)
        for k in ("temperature", "humidity", "wind")
    }
    x = feature_matrix(dates, tables, 2.5, federal_holidays(range(2018, 2021)))
    med_temp = x[:, 22]
    weekend = np.array([1.0 if d.weekday() >= 5 else 0.0 for d in dates])
    y = 50 + 2 * med_temp + 10 * weekend + rng.normal(0, 0.5, n)
    return dates, x, y


def _constant_member(index, dim, value):
    """A network whose output is the constant ``value`` whatever the input."""
    layers = (
        (np.zeros((dim, 1)), np.zeros(1)),
        (np.zeros((1, 1)), np.zeros(1)),
        (np.zeros((1, 1)), np.zeros(1)),
        (np.zeros((1, 1)), np.array([float(value)])),
    )
    return BaseModel(index, (1, 1, 1), 0.0, layers)


def _constant_ensemble(values, dim=34):
    models = tuple(_constant_member(i, dim, v) for i, v in enumerate(values))
    return BackcastEnsemble(
        models,
        FeatureConfig(),
        np.zeros(dim),
        np.ones(dim),
        0.0,
        1.0,
        TrainingConfig(candidates=len(models), keep_fraction=1.0),
    )


class TestEnsembleSelection:
    def test_keep_arithmetic(self):
        assert TrainingConfig(candidates=800).keep_count == 200
        assert TrainingConfig(candidates=4).keep_count == 1
        assert TrainingConfig(candidates=3).keep_count == 1
        assert TrainingConfig(candidates=10, keep_fraction=0.3).keep_count == 3

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            TrainingConfig(candidates=0)
        with pytest.raises(ParameterError):
            TrainingConfig(split=1.0)
        with pytest.raises(ParameterError):
            TrainingConfig(keep_fraction=0.0)
        with pytest.raises(ParameterError):
            TrainingConfig(width_range=(8, 4))

    def test_trains_and_keeps_lowest_metric(self):
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=4, seed=7, epochs=60)
        ens = train_ensemble(x, y, dates, cfg)
        assert len(ens.models) == 1
        assert len(ens.all_metrics) == 4
        assert ens.models[0].metric == min(ens.all_metrics)
        assert all(m > 0 for m in ens.all_metrics)

    def test_heldout_accuracy(self):
        dates, x, y = _synthetic_training_data()
        train, hold = slice(0, 670), slice(670, 730)
        cfg = TrainingConfig(candidates=8, seed=11, epochs=300)
        ens = train_ensemble(x[train], y[train], dates[train], cfg)
        points, _ = predict_many(ens, x[hold])
        mape = float(np.mean(np.abs(points - y[hold]) / y[hold])) * 100
        assert mape < 2.0

    def test_homogeneous_in_target_scale(self):
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=3, seed=2, epochs=80)
        base = train_ensemble(x, y, dates, cfg)
        scaled = train_ensemble(x, 3.0 * y, dates, cfg)
        p1, _ = predict_many(base, x[:40])
        p2, _ = predict_many(scaled, x[:40])
        assert np.allclose(3.0 * p1, p2, rtol=1e-9)

    def test_too_few_days(self):
        dates, x, y = _synthetic_training_data(n=400)
        with pytest.raises(InsufficientDataError):
            train_ensemble(x[:300], y[:300], dates[:300], TrainingConfig(candidates=1))

    def test_missing_months(self):
        # 2 years of January-June only: enough rows, half the calendar
        dates = []
        for year in (2017, 2018, 2019):
            d = dt.date(year, 1, 1)
            while d.month <= 6:
                dates.append(d)
                d += dt.timedelta(days=1)
        dates = dates[:400]
        x = np.random.default_rng(0).standard_normal((400, 34))
        y = np.full(400, 50.0)
        with pytest.raises(CoverageError):
            train_ensemble(x, y, dates, TrainingConfig(candidates=1))

    def test_nonpositive_target(self):
        dates, x, y = _synthetic_training_data()
        y = y.copy()
        y[100] = 0.0
        with pytest.raises(DomainError):
            train_ensemble(x, y, dates, TrainingConfig(candidates=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_target_rejected_before_training(self, monkeypatch, bad):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_network(*args, **kwargs)

        monkeypatch.setattr(ensemble_module, "train_network", counting)
        dates, x, y = _synthetic_training_data()
        y = y.copy()
        y[[100, 200]] = bad
        with pytest.raises(ParameterError, match=f"non-finite target on {dates[100]}"):
            train_ensemble(x, y, dates, TrainingConfig(candidates=8, epochs=20))
        assert calls == []


class TestPredict:
    def test_single_member(self):
        ens = _constant_ensemble([42.0])
        res = predict(ens, np.zeros(34))
        assert res.point == 42.0
        assert all(v == 42.0 for v in res.quantiles.values())

    def test_two_members_mean(self):
        ens = _constant_ensemble([90.0, 110.0])
        assert predict(ens, np.zeros(34)).point == 100.0

    def test_quantile_rule_1_to_100(self):
        ens = _constant_ensemble(list(range(1, 101)))
        res = predict(ens, np.zeros(34))
        assert res.quantiles[0.10] == pytest.approx(10.9)
        assert res.quantiles[0.25] == pytest.approx(25.75)
        assert res.quantiles[0.90] == pytest.approx(90.1)

    def test_quantile_bounds_monotone(self):
        dates, x, y = _synthetic_training_data()
        ens = train_ensemble(x, y, dates, TrainingConfig(candidates=6, seed=4, epochs=60))
        _, qs = predict_many(ens, x[:50])
        assert (qs[0.10] <= qs[0.25]).all()
        assert (qs[0.25] <= qs[0.75]).all()
        assert (qs[0.75] <= qs[0.90]).all()

    def test_permutation_invariance(self):
        ens = _constant_ensemble([3.0, 1.0, 4.0, 1.5, 9.0])
        shuffled = BackcastEnsemble(
            ens.models[::-1],
            ens.feature_config,
            ens.input_mean,
            ens.input_std,
            ens.target_mean,
            ens.target_std,
            ens.config,
        )
        f = np.zeros(34)
        assert predict(ens, f).point == predict(shuffled, f).point
        assert predict(ens, f).quantiles == predict(shuffled, f).quantiles

    def test_dimension_mismatch(self):
        ens = _constant_ensemble([1.0])
        with pytest.raises(SchemaError):
            predict(ens, np.zeros(7))


class TestReduction:
    def test_equal_means_zero(self):
        assert reduction_rate(100.0, np.full(24, 100.0)) == 0.0

    def test_ten_percent(self):
        assert reduction_rate(100.0, np.full(24, 90.0)) == pytest.approx(10.0)

    def test_mirror_linearity(self):
        rng = np.random.default_rng(0)
        day = 80.0 + rng.uniform(-5, 5, 24)
        b = 100.0
        mirrored = 2 * b - day.mean() + (day - day.mean())
        assert reduction_rate(b, day) + reduction_rate(b, mirrored) == pytest.approx(0.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reduction_rate(0.0, np.full(24, 90.0))
        bad = np.full(24, 90.0)
        bad[3] = np.nan
        with pytest.raises(MissingValueError):
            reduction_rate(100.0, bad)
        with pytest.raises(ParameterError):
            reduction_rate(100.0, np.full(23, 90.0))

    def test_series_bound_ordering_enforced(self):
        dates = (dt.date(2020, 4, 1), dt.date(2020, 4, 2))
        with pytest.raises(ParameterError):
            ReductionSeries(
                dates,
                np.array([5.0, 5.0]),
                {0.10: np.array([6.0, 6.0]), 0.90: np.array([4.0, 4.0])},
            )

    def test_reduction_series_end_to_end(self):
        ens = _constant_ensemble([100.0, 100.0, 100.0])
        dates = tuple(dt.date(2020, 4, 1) + dt.timedelta(days=i) for i in range(5))
        actual = WideHourlyTable(dates, np.full((5, 24), 90.0), "load")
        series = reduction_series(ens, np.zeros((5, 34)), dates, actual)
        assert np.allclose(series.point, 10.0)
        assert np.allclose(series.bounds[0.10], 10.0)

    def test_monthly_summary_trivial(self):
        dates = tuple(dt.date(2020, 4, 1) + dt.timedelta(days=i) for i in range(25))
        series = ReductionSeries(
            dates,
            np.full(25, 10.0),
            {lvl: np.full(25, 10.0) for lvl in (0.10, 0.25, 0.75, 0.90)},
        )
        s = monthly_summary(series, 2020, 4)
        assert (s.mean, s.low, s.high) == (10.0, 10.0, 10.0)
        assert s.label == "Average in April"
        assert "Average in April" in s.row()

    def test_monthly_summary_relaxed_precondition(self):
        dates = (dt.date(2020, 4, 1), dt.date(2020, 4, 2))
        series = ReductionSeries(
            dates,
            np.array([8.0, 12.0]),
            {lvl: np.array([8.0, 12.0]) for lvl in (0.10, 0.25, 0.75, 0.90)},
        )
        with pytest.raises(CoverageError):
            monthly_summary(series, 2020, 4)
        s = monthly_summary(series, 2020, 4, min_days=2)
        assert s.mean == 10.0
        assert s.days == 2


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        dates, x, y = _synthetic_training_data()
        ens = train_ensemble(x, y, dates, TrainingConfig(candidates=3, seed=6, epochs=50))
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        p1, q1 = predict_many(ens, x[:20])
        p2, q2 = predict_many(back, x[:20])
        assert np.array_equal(p1, p2)
        for lvl in q1:
            assert np.array_equal(q1[lvl], q2[lvl])
        assert back.config == ens.config
        assert back.all_metrics == ens.all_metrics
        assert back.feature_config == ens.feature_config

    def test_bytes_equal_streamed_json_dump(self, tmp_path):
        dates, x, y = _synthetic_training_data()
        ens = train_ensemble(x, y, dates, TrainingConfig(candidates=2, seed=3, epochs=5))
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        written = path.read_bytes()
        with open(tmp_path / "streamed.json", "w") as fh:
            json.dump(json.loads(written), fh)
        assert written == (tmp_path / "streamed.json").read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "other/1"}')
        with pytest.raises(SchemaError):
            load_ensemble(p)


@pytest.fixture
def openblas():
    """``(get, set)`` of numpy's OpenBLAS thread count, restored after the test."""
    blas = blas_module.openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS, so its thread count cannot be set")
    get, put = blas
    before = get()
    yield blas
    put(before)


def _assert_same_bits(a, b):
    assert a.all_metrics == b.all_metrics
    assert [m.index for m in a.models] == [m.index for m in b.models]
    for m1, m2 in zip(a.models, b.models):
        assert m1.metric == m2.metric
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)


class TestParallelTraining:
    def test_one_candidate_runs_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-candidate ensemble must not start a pool")

        monkeypatch.setattr(ensemble_module, "ThreadPoolExecutor", no_pool)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=1, seed=3, epochs=10)
        pooled = train_ensemble(x, y, dates, cfg, jobs=2)
        serial = train_ensemble(x, y, dates, cfg, jobs=1)
        assert pooled.all_metrics == serial.all_metrics

    def test_pool_matches_serial(self):
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=4, seed=3, epochs=40)
        serial = train_ensemble(x, y, dates, cfg, jobs=1)
        pooled = train_ensemble(x, y, dates, cfg, jobs=2)
        _assert_same_bits(serial, pooled)

    def test_bits_independent_of_jobs_and_blas_threads(self, openblas):
        # at widths this large a two-thread OpenBLAS splits the products and
        # changes the bits, so only a pinned BLAS makes every run agree
        get, put = openblas
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=6, seed=3, epochs=30, width_range=(48, 64))
        runs = []
        for blas_threads in (1, 2):
            for jobs in (1, 2, 3):
                put(blas_threads)
                runs.append(train_ensemble(x, y, dates, cfg, jobs=jobs))
                assert get() == blas_threads
        for ens in runs[1:]:
            _assert_same_bits(runs[0], ens)

    def test_blas_threads_pinned_then_restored(self, openblas, monkeypatch):
        get, put = openblas
        put(2)
        assert ensemble_module.training_threads(6, 1) == (2, 2)
        assert ensemble_module.training_threads(6, 3) == (3, 2)
        assert ensemble_module.training_threads(1, 3) == (1, 2)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=6, seed=3, epochs=5)
        seen = []
        calls = itertools.count()
        real = ensemble_module.train_network

        def recording(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        def failing(*args, **kwargs):
            if next(calls) == 2:
                raise RuntimeError("candidate 2 failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(ensemble_module, "train_network", recording)
        train_ensemble(x, y, dates, cfg, jobs=1)
        assert seen == [1] * 6
        assert get() == 2
        monkeypatch.setattr(ensemble_module, "train_network", failing)
        with pytest.raises(RuntimeError, match="candidate 2 failed"):
            train_ensemble(x, y, dates, cfg, jobs=2)
        assert get() == 2

    def test_without_openblas_handle_nothing_is_pinned(self, openblas, monkeypatch):
        get, put = openblas
        # one BLAS thread makes the unpinned runs comparable to the pinned one
        put(1)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=4, seed=3, epochs=20)
        pinned = train_ensemble(x, y, dates, cfg, jobs=1)
        monkeypatch.setattr(blas_module, "openblas", lambda: None)
        assert ensemble_module.training_threads(4, 1) == (1, None)
        assert ensemble_module.training_threads(4, 3) == (3, None)
        for jobs in (1, 3):
            _assert_same_bits(pinned, train_ensemble(x, y, dates, cfg, jobs=jobs))
        assert get() == 1
