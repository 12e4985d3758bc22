"""Feature encoding, network training, ensemble selection, and reduction math."""

import datetime as dt
import json
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from gridgap import blas as blas_module
from gridgap.backcast import ensemble as ensemble_module
from gridgap.backcast import (
    BackcastEnsemble,
    BaseModel,
    TrainingConfig,
    feature_matrix,
    forward,
    init_params,
    load_ensemble,
    loss_and_grads,
    monthly_row,
    predict_many,
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
from gridgap.frames import federal_holidays
from gridgap.ingest import WideHourlyTable
from helpers import (
    as_format_1,
    drop_last_row,
    encoded_block,
    feature_names,
    gradient_check,
    lexsort_selection,
    negate_shape,
    spoil_base64,
    truncate_f8,
)
from pool_probe import probed_pool, worker_reads


def _weather_row(temp=None, humidity=None, wind=None):
    return {
        "temperature": np.full(24, 20.0) if temp is None else np.asarray(temp, float),
        "humidity": np.full(24, 55.0) if humidity is None else np.asarray(humidity, float),
        "wind": np.full(24, 4.0) if wind is None else np.asarray(wind, float),
    }


def _one_day(d, weather_row, gdp=0.0, holidays=frozenset()):
    """``feature_matrix``'s row for the single date ``d`` with these 24 readings per kind."""
    tables = {k: WideHourlyTable((d,), [v], k) for k, v in weather_row.items()}
    return feature_matrix([d], tables, gdp, holidays)[0]


def _quantiles(row, kind):
    """The ``kind`` quantile entries of a default-config feature row."""
    names = feature_names()
    return tuple(float(v) for n, v in zip(names, row) if n.startswith(f"{kind}_q"))


class TestFeatures:
    def test_constant_day_quantiles(self):
        row = _one_day(dt.date(2020, 3, 4), _weather_row(), gdp=1.5)
        assert _quantiles(row, "temperature") == (20.0, 20.0, 20.0, 20.0)

    def test_max_quantile_of_1_to_24(self):
        row = _one_day(dt.date(2020, 3, 4), _weather_row(temp=np.arange(1.0, 25.0)))
        assert _quantiles(row, "temperature")[-1] == 24.0
        # linear interpolation between order statistics: q25 of 1..24
        assert _quantiles(row, "temperature")[0] == pytest.approx(1 + 0.25 * 23)

    def test_sunday_holiday_encoding(self):
        # 2020-07-05 was a Sunday; treat it as the observed holiday
        d = dt.date(2020, 7, 5)
        vec = _one_day(d, _weather_row(), holidays={d})
        assert vec[12 + 6] == 1.0  # weekday one-hot, Sunday slot
        assert vec[19] == 1.0  # holiday bit
        assert vec[12:19].sum() == 1.0
        assert _one_day(d, _weather_row())[19] == 0.0

    def test_vector_layout(self):
        vec = _one_day(dt.date(2020, 11, 17), _weather_row(temp=np.arange(1.0, 25.0)), gdp=-2.5)
        names = feature_names()
        assert len(vec) == len(names) == 34
        assert vec[10] == 1.0 and names[10] == "month_11"
        assert vec[:12].sum() == 1.0
        assert vec[names.index("day_scaled")] == pytest.approx(17 / 31)
        assert vec[names.index("temperature_q100")] == 24.0
        assert vec[names.index("gdp_growth")] == -2.5

    def test_missing_cells_tolerated_down_to_floor(self):
        d = dt.date(2020, 5, 2)
        temp = np.full(24, 10.0)
        temp[:12] = np.nan  # exactly 12 readings remain
        row = _one_day(d, _weather_row(temp=temp))
        assert _quantiles(row, "temperature") == (10.0, 10.0, 10.0, 10.0)
        temp[12] = np.nan  # 11 remain
        with pytest.raises(InsufficientDataError):
            _one_day(d, _weather_row(temp=temp))

    def test_quantiles_ignore_missing_cells(self):
        temp = np.array([np.nan] * 4 + list(range(1, 21)), dtype=float)
        row = _one_day(dt.date(2020, 5, 2), _weather_row(temp=temp))
        assert _quantiles(row, "temperature")[-1] == 20.0

    def test_unknown_kind_and_bad_shape(self):
        d = dt.date(2020, 5, 2)
        row = _weather_row()
        del row["wind"]
        with pytest.raises(UnknownColumnError):
            _one_day(d, row)
        # a day is 24 hourly values: the table refuses any other width
        with pytest.raises(ParameterError):
            _one_day(d, _weather_row(temp=np.ones(23)))

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


def _traced(fn, *args):
    """``fn(*args)`` and the peak of the bytes ``tracemalloc`` traced while it
    ran, numpy's array data included: what ``fn`` allocated, at its most."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _constant_ensemble(values, dim=34):
    models = tuple(_constant_member(i, dim, v) for i, v in enumerate(values))
    return BackcastEnsemble(
        models,
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

    @pytest.mark.parametrize("keep_count", [1, 13, 40])
    @pytest.mark.parametrize("seed", range(6))
    def test_keep_best_matches_lexsort(self, seed, keep_count):
        """Selecting as the results stream in keeps what sorting all of them kept."""
        # ties, both zeros, both infinities and NaN, drawn in a per-seed mix
        pool = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, 2.0, 0.25])
        rng = np.random.default_rng(seed)
        metrics = [float(v) for v in rng.choice(pool, 40, p=rng.dirichlet(np.ones(len(pool))))]
        results = [(i, (8, 8, 8), f"weights of {i}", m) for i, m in enumerate(metrics)]
        kept, all_metrics = ensemble_module._keep_best(iter(results), keep_count)
        want, want_metrics = lexsort_selection(metrics, keep_count)
        assert kept == [results[i] for i in want]
        assert np.array(all_metrics).tobytes() == want_metrics.tobytes()

    def test_memory_grows_with_kept_members_not_candidates(self, monkeypatch):
        """Twice the candidates, the same 10 kept: the weights held do not grow."""
        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", _no_pool)
        dates, x, y = _synthetic_training_data()

        def config(candidates, keep_fraction=1.0):
            return TrainingConfig(candidates, keep_fraction, width_range=(64, 64), epochs=1)

        train_ensemble(x, y, dates, config(1))  # warm-up: first-call allocations
        small, small_peak = _traced(train_ensemble, x, y, dates, config(40, 0.25))
        large, large_peak = _traced(train_ensemble, x, y, dates, config(80, 0.125))
        assert len(small.models) == len(large.models) == 10
        member = sum(a.nbytes for layer in small.models[0].layers for a in layer)
        assert large_peak - small_peak < 2 * member

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
        points, quantiles = predict_many(ens, np.zeros((1, 34)))
        assert points.tolist() == [42.0]
        assert all(q.tolist() == [42.0] for q in quantiles.values())

    def test_two_members_mean(self):
        ens = _constant_ensemble([90.0, 110.0])
        points, _ = predict_many(ens, np.zeros((3, 34)))
        assert points.tolist() == [100.0, 100.0, 100.0]

    def test_quantile_rule_1_to_100(self):
        ens = _constant_ensemble(list(range(1, 101)))
        _, quantiles = predict_many(ens, np.zeros((1, 34)))
        assert sorted(quantiles) == [0.10, 0.25, 0.75, 0.90]
        assert quantiles[0.10][0] == pytest.approx(10.9)
        assert quantiles[0.25][0] == pytest.approx(25.75)
        assert quantiles[0.90][0] == pytest.approx(90.1)

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
            ens.input_mean,
            ens.input_std,
            ens.target_mean,
            ens.target_std,
            ens.config,
        )
        f = np.zeros((2, 34))
        points, quantiles = predict_many(ens, f)
        points_shuffled, quantiles_shuffled = predict_many(shuffled, f)
        assert points.tobytes() == points_shuffled.tobytes()
        assert quantiles.keys() == quantiles_shuffled.keys()
        for lvl, q in quantiles.items():
            assert q.tobytes() == quantiles_shuffled[lvl].tobytes()

    def test_dimension_mismatch(self):
        ens = _constant_ensemble([1.0])
        with pytest.raises(SchemaError):
            predict_many(ens, np.zeros((1, 7)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target_std", np.nan),
            ("target_std", np.inf),
            ("target_std", 0.0),
            ("target_std", -1.0),
            ("target_mean", np.inf),
            ("target_mean", np.nan),
            ("input_std", 0.0),
            ("input_std", -1.0),
            ("input_std", np.nan),
            ("input_mean", -np.inf),
        ],
    )
    def test_normalization_must_be_finite_with_positive_stds(self, field, value):
        ens = _constant_ensemble([1.0])
        if field.startswith("input_"):
            value = np.where(np.arange(34) == 5, value, getattr(ens, field))
        names = ("input_mean", "input_std", "target_mean", "target_std")
        kwargs = {name: getattr(ens, name) for name in names}
        kwargs[field] = value
        with pytest.raises(ParameterError, match="normalization"):
            BackcastEnsemble(ens.models, config=ens.config, **kwargs)

    def test_features_laid_out_once_for_all_members(self, monkeypatch):
        dates, x, y = _synthetic_training_data()
        ens = train_ensemble(x, y, dates, TrainingConfig(candidates=4, seed=2, epochs=5))
        want = np.vstack([
            ens.target_mean
            + ens.target_std * forward(m.layers, (x - ens.input_mean) / ens.input_std)
            for m in ens.models
        ])
        inputs = []

        def recording(layers, z):
            inputs.append(z)
            return forward(layers, z)

        monkeypatch.setattr(ensemble_module, "forward", recording)
        got = ens.member_predictions(x)
        assert got.tobytes() == want.tobytes()
        assert len(inputs) == len(ens.models)
        assert all(z is inputs[0] for z in inputs)
        # forward's feature-major view of a Fortran-ordered input is not a copy
        assert inputs[0].flags.f_contiguous


def _day_rates(baseline, days):
    """``reduction_series``' points of observed ``days`` against a constant ``baseline``."""
    dates = tuple(dt.date(2020, 4, 1) + dt.timedelta(days=i) for i in range(len(days)))
    actual = WideHourlyTable(dates, days, "load")
    ens = _constant_ensemble([baseline])
    return reduction_series(ens, np.zeros((len(days), 34)), dates, actual)[0]


class TestReduction:
    def test_equal_means_zero(self):
        assert _day_rates(100.0, [np.full(24, 100.0)]).tolist() == [0.0]

    def test_ten_percent(self):
        assert _day_rates(100.0, [np.full(24, 90.0)])[0] == pytest.approx(10.0)

    def test_mirror_linearity(self):
        rng = np.random.default_rng(0)
        day = 80.0 + rng.uniform(-5, 5, 24)
        b = 100.0
        mirrored = 2 * b - day.mean() + (day - day.mean())
        assert _day_rates(b, [day, mirrored]).sum() == pytest.approx(0.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="baseline must be positive"):
            _day_rates(0.0, [np.full(24, 90.0)])
        bad = np.full(24, 90.0)
        bad[3] = np.nan
        with pytest.raises(MissingValueError):
            _day_rates(100.0, [np.full(24, 90.0), bad])

    def test_series_bound_ordering_enforced(self):
        # the bounds rise with their level for any daily mean >= 0, a zero mean
        # reading as 100%; a negative one would reverse them, so it is refused
        ens = _constant_ensemble([80.0, 100.0, 120.0])
        dates = tuple(dt.date(2020, 4, 1) + dt.timedelta(days=i) for i in range(3))
        days = np.array([np.full(24, 90.0), np.zeros(24), np.full(24, 130.0)])

        def rates():
            actual = WideHourlyTable(dates, days, "load")
            return reduction_series(ens, np.zeros((3, 34)), dates, actual)

        points, bounds = rates()
        levels = sorted(bounds)
        assert all((bounds[lo] <= bounds[hi]).all() for lo, hi in zip(levels, levels[1:]))
        assert points[1] == 100.0
        days[1, :2] = -1.0
        with pytest.raises(DomainError, match="^negative observed daily mean on 2020-04-02$"):
            rates()

    def test_reduction_series_end_to_end(self):
        ens = _constant_ensemble([100.0, 100.0, 100.0])
        dates = tuple(dt.date(2020, 4, 1) + dt.timedelta(days=i) for i in range(5))
        actual = WideHourlyTable(dates, np.full((5, 24), 90.0), "load")
        points, bounds = reduction_series(ens, np.zeros((5, 34)), dates, actual)
        assert np.allclose(points, 10.0)
        assert np.allclose(bounds[0.10], 10.0)

    def test_monthly_summary_trivial(self):
        dates = tuple(dt.date(2020, 4, 1) + dt.timedelta(days=i) for i in range(25))
        bounds = {lvl: np.full(25, 10.0) for lvl in (0.10, 0.25, 0.75, 0.90)}
        row = monthly_row(dates, np.full(25, 10.0), bounds, 2020, 4, 20)
        assert row == "Average in April: 10.00% [10.00, 10.00]"

    def test_monthly_summary_relaxed_precondition(self):
        dates = (dt.date(2020, 4, 1), dt.date(2020, 4, 2))
        points = np.array([8.0, 12.0])
        bounds = {lvl: np.array([8.0, 12.0]) for lvl in (0.10, 0.25, 0.75, 0.90)}
        with pytest.raises(CoverageError):
            monthly_row(dates, points, bounds, 2020, 4, 20)
        row = monthly_row(dates, points, bounds, 2020, 4, 2)
        assert row == "Average in April: 10.00% [10.00, 10.00]"


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        dates, x, y = _synthetic_training_data()
        ens = train_ensemble(x, y, dates, TrainingConfig(candidates=3, seed=6, epochs=50))
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        back = load_ensemble(path, path.read_bytes())
        save_ensemble(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        p1, q1 = predict_many(ens, x[:20])
        p2, q2 = predict_many(back, x[:20])
        assert np.array_equal(p1, p2)
        for lvl in q1:
            assert np.array_equal(q1[lvl], q2[lvl])
        assert back.config == ens.config
        assert back.all_metrics == ens.all_metrics
        # the one feature layout, written as the files of earlier versions hold it
        assert (
            '"feature_config": {"quantile_levels": [0.25, 0.5, 0.75, 1.0], '
            '"weather_kinds": ["temperature", "humidity", "wind"]}'
        ) in path.read_text()

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
            load_ensemble(p, p.read_bytes())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload.pop("models"),
            lambda payload: payload["config"].pop("epochs"),
            lambda payload: payload["config"].update(check_gradients=True),
            lambda payload: payload["feature_config"].update(extra=1),
            lambda payload: payload["models"][0].update(widths=None),
            lambda payload: drop_last_row(payload["models"][0]["layers"][1]["w"]),
            lambda payload: drop_last_row(payload["models"][0]["layers"][2]["b"]),
            lambda payload: payload["models"][0].update(widths=[1, 2, 3]),
            lambda payload: truncate_f8(payload["models"][0]["layers"][0]["w"]),
            lambda payload: spoil_base64(payload["models"][0]["layers"][0]["w"]),
            lambda payload: payload["models"][0]["layers"][0]["w"]["shape"].__setitem__(0, 33),
            lambda payload: negate_shape(payload["models"][0]["layers"][0]["w"]),
            lambda payload: payload["input_std"]["shape"].__setitem__(0, 34.0),
            lambda payload: payload["models"][0]["layers"][3].update(b=[0.5]),
            lambda payload: payload.update(target_std=float("nan")),
            lambda payload: payload.update(target_mean=float("inf")),
            lambda payload: payload.update(target_std=0.0),
            lambda payload: payload.update(input_std=encoded_block(np.zeros(34))),
            lambda payload: payload["models"][0].update(metric="x"),
            lambda payload: payload["models"][0].update(metric=None),
            lambda payload: payload["all_metrics"].__setitem__(0, "y"),
            lambda payload: payload["all_metrics"].pop(),
            lambda payload: payload["models"][0].update(index="0"),
            lambda payload: payload["models"][0].update(index=1),
            lambda payload: payload["models"].append(payload["models"][0]),
        ],
        ids=[
            "missing_models",
            "missing_config_key",
            "unknown_config_key",
            "unknown_feature_key",
            "bad_widths",
            "layers_do_not_chain",
            "bias_shorter_than_layer",
            "widths_not_the_layers",
            "truncated_f8",
            "not_base64",
            "shape_not_the_length",
            "negative_dimension",
            "fractional_dimension",
            "array_as_json_list",
            "target_std_nan",
            "target_mean_inf",
            "target_std_zero",
            "input_std_zero",
            "metric_not_a_number",
            "metric_null",
            "all_metrics_entry_not_a_number",
            "all_metrics_one_short",
            "index_as_string",
            "index_out_of_range",
            "duplicate_index",
        ],
    )
    def test_malformed_payload_is_schema_error(self, tmp_path, edit):
        dates, x, y = _synthetic_training_data()
        path = tmp_path / "ens.json"
        save_ensemble(train_ensemble(x, y, dates, TrainingConfig(candidates=1, epochs=2)), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="malformed ensemble"):
            load_ensemble(path, path.read_bytes())

    def test_nan_metric_loads(self, tmp_path):
        """Training can write a NaN metric; such a file loads and saves back as it was."""
        dates, x, y = _synthetic_training_data()
        path = tmp_path / "ens.json"
        save_ensemble(train_ensemble(x, y, dates, TrainingConfig(candidates=1, epochs=2)), path)
        payload = json.loads(path.read_text())
        payload["models"][0]["metric"] = payload["all_metrics"][0] = float("nan")
        path.write_text(json.dumps(payload))
        back = load_ensemble(path, path.read_bytes())
        assert math.isnan(back.models[0].metric) and math.isnan(back.all_metrics[0])
        save_ensemble(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_unrecorded_metrics_round_trip(self, tmp_path):
        ens = _constant_ensemble([1.0, 2.0])
        assert ens.all_metrics is None
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        assert '"all_metrics": null' in path.read_text()
        assert load_ensemble(path, path.read_bytes()).all_metrics is None

    def test_save_holds_one_member_at_a_time(self, tmp_path):
        """Writing 20 members of width 64 allocates under half the file at its peak."""
        rng = np.random.default_rng(0)
        sizes = (34, 64, 64, 64, 1)

        def member(index):
            shapes = zip(sizes, sizes[1:])
            layers = [(rng.standard_normal(s), rng.standard_normal(s[1])) for s in shapes]
            return BaseModel(index, sizes[1:4], float(index), layers)

        ens = BackcastEnsemble(
            tuple(member(i) for i in range(20)),
            np.zeros(34),
            np.ones(34),
            0.0,
            1.0,
            TrainingConfig(candidates=20, keep_fraction=1.0),
        )
        path = tmp_path / "ens.json"
        _, peak = _traced(save_ensemble, ens, path)
        assert peak < path.stat().st_size / 2

    def test_format_1_file_is_refused(self, tmp_path):
        """A file of the first format, arrays as JSON decimals, must be retrained."""
        dates, x, y = _synthetic_training_data()
        path = tmp_path / "ens.json"
        save_ensemble(train_ensemble(x, y, dates, TrainingConfig(candidates=1, epochs=2)), path)
        payload = json.loads(path.read_text())
        as_format_1(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as err:
            load_ensemble(path, path.read_bytes())
        assert "'backcast-ensemble/1'" in str(err.value)
        assert "'backcast-ensemble/2'" in str(err.value)

    def test_file_spends_under_14_bytes_per_float(self, tmp_path):
        """Arrays are stored as base64 float64 bytes (10.7 bytes per float),
        not as JSON decimals (about 21)."""
        dates, x, y = _synthetic_training_data()
        ens = train_ensemble(x, y, dates, TrainingConfig(candidates=4, seed=1, epochs=5))
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        weights = sum(a.size for m in ens.models for layer in m.layers for a in layer)
        floats = weights + 2 * ens.dimension + len(ens.all_metrics) + len(ens.models) + 2
        assert path.stat().st_size < 14 * floats

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
    def test_not_a_json_object_is_schema_error(self, tmp_path, text):
        path = tmp_path / "ens.json"
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_ensemble(path, path.read_bytes())


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


START_METHODS = ("fork", "forkserver", "spawn")


def _no_pool(*args, **kwargs):
    raise AssertionError("this training must not start a pool")


def _loop_ensemble(monkeypatch, *args, **kwargs):
    """``train_ensemble`` in the plain loop, whatever the work."""
    with monkeypatch.context() as m:
        m.setattr(ensemble_module, "_POOL_MIN_WORK", dict.fromkeys(START_METHODS, np.inf))
        m.setattr(blas_module, "ProcessPoolExecutor", _no_pool)
        return train_ensemble(*args, **kwargs)


@pytest.fixture
def forced_pool(monkeypatch, tmp_path):
    """``force(method)`` makes any training of two candidates or more start a
    probed pool on ``method``; it returns the started pools' worker counts and
    the log of ``(pid, numpy's and scipy's BLAS threads)`` written inside the workers."""

    def force(method="fork"):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"this platform has no {method} start method")
        started, log = [], tmp_path / f"{method}.log"
        monkeypatch.setattr(ensemble_module, "_POOL_MIN_WORK", dict.fromkeys(START_METHODS, 0))
        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", probed_pool(method, log, started))
        return started, log

    return force


def _worker_blas(log, tasks):
    """numpy's BLAS threads per task, after checking that ``tasks`` ran in pool workers."""
    reads = worker_reads(log)
    assert len(reads) == tasks
    assert os.getpid() not in {pid for pid, _, _ in reads}
    return [threads for _, threads, _ in reads]


class TestParallelTraining:
    def test_one_candidate_runs_without_pool(self, monkeypatch):
        monkeypatch.setattr(ensemble_module, "_POOL_MIN_WORK", dict.fromkeys(START_METHODS, 0))
        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", _no_pool)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=1, seed=3, epochs=10)
        pooled = train_ensemble(x, y, dates, cfg, jobs=2)
        serial = train_ensemble(x, y, dates, cfg, jobs=1)
        assert pooled.all_metrics == serial.all_metrics

    def test_small_work_runs_without_pool(self, monkeypatch):
        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", _no_pool)
        assert 2 * 5 < ensemble_module._POOL_MIN_WORK[multiprocessing.get_start_method()]
        assert ensemble_module.training_workers(2, 5, 2)[0] == 1
        dates, x, y = _synthetic_training_data()
        train_ensemble(x, y, dates, TrainingConfig(candidates=2, seed=3, epochs=5), jobs=2)

    def test_pool_matches_serial(self, monkeypatch, forced_pool):
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=4, seed=3, epochs=40)
        serial = _loop_ensemble(monkeypatch, x, y, dates, cfg)
        started, log = forced_pool()
        pooled = train_ensemble(x, y, dates, cfg, jobs=2)
        assert started == [2]
        _worker_blas(log, 4)
        _assert_same_bits(serial, pooled)

    @pytest.mark.parametrize("method", START_METHODS)
    def test_start_methods_match_serial(self, monkeypatch, openblas, forced_pool, method):
        # a worker left on a two-thread BLAS would split these products and
        # change the bits; spawned and forkserver workers must pin themselves
        get, put = openblas
        put(2)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=4, seed=3, epochs=10, width_range=(48, 64))
        serial = _loop_ensemble(monkeypatch, x, y, dates, cfg)
        started, log = forced_pool(method)
        pooled = train_ensemble(x, y, dates, cfg, jobs=2)
        assert started == [2]
        assert _worker_blas(log, 4) == [1] * 4
        assert get() == 2
        _assert_same_bits(serial, pooled)

    def test_bits_independent_of_jobs_and_blas_threads(self, monkeypatch, openblas, forced_pool):
        # at widths this large a two-thread OpenBLAS splits the products and
        # changes the bits, so only a pinned BLAS makes every run agree
        get, put = openblas
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=6, seed=3, epochs=30, width_range=(48, 64))
        put(2)
        serial = _loop_ensemble(monkeypatch, x, y, dates, cfg)
        started, log = forced_pool()
        for blas_threads in (1, 2):
            for jobs in (1, 2, 3):
                put(blas_threads)
                _assert_same_bits(serial, train_ensemble(x, y, dates, cfg, jobs=jobs))
                assert get() == blas_threads
        # a budget of 1 at jobs 1 trains in the loop; every other run on
        # max(jobs, budget) workers
        assert started == [2, 3, 2, 2, 3]
        assert _worker_blas(log, 5 * 6) == [1] * 30

    def test_blas_threads_pinned_then_restored(self, openblas, monkeypatch, forced_pool):
        get, put = openblas
        put(2)
        monkeypatch.setattr(ensemble_module, "_POOL_MIN_WORK", dict.fromkeys(START_METHODS, 100))
        assert ensemble_module.training_workers(6, 20, 1) == (2, 2)
        assert ensemble_module.training_workers(6, 20, 3) == (3, 2)
        assert ensemble_module.training_workers(1, 200, 3) == (1, 2)
        assert ensemble_module.training_workers(6, 10, 3) == (1, 2)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=6, seed=3, epochs=5)
        seen = []
        real_network = ensemble_module.train_network
        real_candidate = ensemble_module._train_candidate

        def recording(*args, **kwargs):
            seen.append(get())
            return real_network(*args, **kwargs)

        def failing(index, *args):
            if index == 2:
                raise RuntimeError("candidate 2 failed")
            return real_candidate(index, *args)

        monkeypatch.setattr(ensemble_module, "train_network", recording)
        train_ensemble(x, y, dates, cfg, jobs=1)  # 6 x 5 is below the threshold: the loop
        assert seen == [1] * 6
        assert get() == 2
        started, log = forced_pool()
        monkeypatch.setattr(ensemble_module, "_train_candidate", failing)
        with pytest.raises(RuntimeError, match="candidate 2 failed"):
            train_ensemble(x, y, dates, cfg, jobs=2)
        assert started == [2]
        # candidates 0 and 1 finish before candidate 2's error is read
        blas_reads = _worker_blas(log, len(worker_reads(log)))
        assert len(blas_reads) >= 2 and set(blas_reads) == {1}
        assert get() == 2

    def test_without_openblas_handle_nothing_is_pinned(self, openblas, monkeypatch, forced_pool):
        get, put = openblas
        # one BLAS thread makes the unpinned runs comparable to the pinned one
        put(1)
        dates, x, y = _synthetic_training_data()
        cfg = TrainingConfig(candidates=4, seed=3, epochs=20)
        pinned = _loop_ensemble(monkeypatch, x, y, dates, cfg)
        started, log = forced_pool()
        monkeypatch.setattr(blas_module, "openblas", lambda: None)
        assert ensemble_module.training_workers(4, 20, 1) == (1, None)
        assert ensemble_module.training_workers(4, 20, 3) == (3, None)
        for jobs in (1, 3):
            _assert_same_bits(pinned, train_ensemble(x, y, dates, cfg, jobs=jobs))
        assert started == [3]
        assert _worker_blas(log, 4) == [None] * 4
        assert get() == 1
