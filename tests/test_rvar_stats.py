"""Unit-root, causality, and cointegration tests.

Frozen numeric oracles were computed once against statsmodels 0.14
(adfuller, coint, mackinnonp) and hand-derived formulas; the cross-check
tests at the bottom re-verify live when statsmodels is importable.
"""

import numpy as np
import pytest
from scipy.special import chdtrc

from gridgap.errors import (
    CollinearityError,
    DegenerateSeriesError,
    InsufficientDataError,
    ParameterError,
)
from gridgap.rvar import (
    adf_stat_fixed_lag,
    adf_test,
    default_max_lag,
    engle_granger,
    granger_wald,
    mackinnon_pvalue,
)
from gridgap.rvar.adf import select_adf_lag
from gridgap.rvar.ols import ols

from conftest import make_frame


def _walk(seed: int, n: int = 300) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


def _first_stage_stat(x: np.ndarray, y: np.ndarray) -> float:
    """The no-constant ADF tau that engle_granger tests on the residual of y on x."""
    resid = ols(np.column_stack([np.ones(len(x)), x]), y).resid
    lag = max(0, min(default_max_lag(len(x)), len(x) - 20))
    return adf_stat_fixed_lag(resid, select_adf_lag(resid, lag, "n"), "n")


def _ar1(seed: int, phi: float = 0.5, n: int = 300) -> np.ndarray:
    z = np.random.default_rng(seed).standard_normal(n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + z[t]
    return y


class TestMacKinnonPvalue:
    # spot values frozen against statsmodels.tsa.adfvalues.mackinnonp(regression="c")
    @pytest.mark.parametrize(
        "stat,nseries,expected",
        [
            (-3.34, 2, 0.04946535878273698),
            (-1.40, 1, 0.5822761185232602),
        ],
    )
    def test_spot_values(self, stat, nseries, expected):
        assert mackinnon_pvalue(stat, nseries) == pytest.approx(expected, abs=1e-12)

    def test_saturation(self):
        # outside the tabulated range the p-value pins to an endpoint
        assert mackinnon_pvalue(-30.0) == 0.0
        assert mackinnon_pvalue(10.0) == 1.0

    def test_monotone_in_stat(self):
        grid = np.linspace(-5.0, 1.0, 40)
        ps = [mackinnon_pvalue(float(s)) for s in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_bad_args(self):
        # only the one- and two-series surfaces are tabulated
        with pytest.raises(ParameterError):
            mackinnon_pvalue(-2.0, 0)
        with pytest.raises(ParameterError):
            mackinnon_pvalue(-2.0, 3)


class TestAdf:
    def test_random_walk_frozen(self):
        y = _walk(42)
        res = adf_test(y)
        assert res.stat == pytest.approx(-1.4110304807894942, abs=1e-10)
        assert res.pvalue == pytest.approx(0.57697669220069, abs=1e-10)
        assert select_adf_lag(y, 12, "c") == 3  # Schwert's bound at n=300
        assert res.pvalue >= 0.05

    def test_stationary_ar_frozen(self):
        rng = np.random.default_rng(42)
        rng.standard_normal(300)  # burn the walk draw so the frozen value matches
        z = rng.standard_normal(300)
        y = np.zeros(300)
        for t in range(1, 300):
            y[t] = 0.5 * y[t - 1] + z[t]
        res = adf_test(y)
        assert res.stat == pytest.approx(-9.09953999723963, abs=1e-10)
        assert select_adf_lag(y, 12, "c") == 0
        assert res.pvalue < 0.05

    def test_schwert_default_lag(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(50) == 10
        assert default_max_lag(25) == 8
        # long samples cap at 12
        assert default_max_lag(10_000) == 12

    def test_fixed_lag_matches_requested(self):
        assert select_adf_lag(_walk(1), 5, "c") <= 5

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            adf_test(np.full(100, 3.25))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            adf_test(np.arange(12, dtype=float))

    def test_no_residual_rows_at_max_lag(self):
        # 36 points at max_lag=17: the design with a constant has 19 columns and 18 rows
        with pytest.raises(InsufficientDataError, match="needs more than 19 rows, has 18"):
            select_adf_lag(_walk(0, 36), 17, "c")
        # without the constant the same lags leave one residual row
        assert select_adf_lag(_walk(0, 36), 16, "n") <= 16

    def test_unknown_regression_refused(self):
        # only no deterministic term ("n") and a constant ("c") are built
        for regression in ("ct", "C", ""):
            with pytest.raises(ParameterError, match="regression must be 'n' or 'c'"):
                adf_stat_fixed_lag(_walk(5), 3, regression)
            with pytest.raises(ParameterError, match="regression must be 'n' or 'c'"):
                select_adf_lag(_walk(5), 3, regression)

    def test_fixed_lag_stat_is_float(self):
        stat = adf_stat_fixed_lag(_walk(5), lag=2, regression="n")
        assert isinstance(stat, float)
        assert np.isfinite(stat)


class TestGranger:
    @pytest.fixture()
    def causal_frame(self):
        rng = np.random.default_rng(7)
        n = 400
        x = rng.standard_normal(n)
        y = np.zeros(n)
        for t in range(2, n):
            y[t] = 0.3 * y[t - 1] + 0.5 * x[t - 1] - 0.2 * x[t - 2] + rng.standard_normal()
        return make_frame(np.column_stack([x, y]), ("x", "y"))

    def test_forward_frozen(self, causal_frame):
        res = granger_wald(causal_frame, cause="x", effect="y", lags=2)
        assert res.stat == pytest.approx(82.00979907070602, abs=1e-8)
        assert res.pvalue == pytest.approx(1.5552435210392286e-18, rel=1e-6)
        assert res.pvalue < 0.05

    def test_reverse_frozen(self, causal_frame):
        res = granger_wald(causal_frame, cause="y", effect="x", lags=2)
        assert res.stat == pytest.approx(2.105393968784087, abs=1e-8)
        assert res.pvalue == pytest.approx(0.34899524399570203, abs=1e-10)
        assert res.pvalue >= 0.05

    def test_pvalue_has_lags_degrees_of_freedom(self, causal_frame):
        res = granger_wald(causal_frame, cause="x", effect="y", lags=3)
        assert res.pvalue == chdtrc(3, res.stat)

    def test_collinear_rejected(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(80)
        frame = make_frame(np.column_stack([x, 2.0 * x]), ("a", "b"))
        with pytest.raises(CollinearityError):
            granger_wald(frame, cause="a", effect="b", lags=1)

    def test_bad_args(self, causal_frame):
        with pytest.raises(ParameterError):
            granger_wald(causal_frame, cause="x", effect="x", lags=2)
        with pytest.raises(ParameterError):
            granger_wald(causal_frame, cause="x", effect="y", lags=0)

    def test_too_short(self):
        frame = make_frame(np.random.default_rng(0).standard_normal((6, 2)), ("x", "y"))
        with pytest.raises(InsufficientDataError):
            granger_wald(frame, cause="x", effect="y", lags=2)

    def test_row_count_boundary(self):
        # lags=2 has 5 parameters: 2 + 5 + 1 = 8 rows leave one residual degree of freedom
        values = np.random.default_rng(3).standard_normal((8, 2))
        with pytest.raises(InsufficientDataError, match="need at least 8 rows for lags=2, have 7"):
            granger_wald(make_frame(values[:7], ("x", "y")), cause="x", effect="y", lags=2)
        res = granger_wald(make_frame(values, ("x", "y")), cause="x", effect="y", lags=2)
        assert np.isfinite(res.stat) and 0.0 <= res.pvalue <= 1.0


class TestEngleGranger:
    def test_cointegrated_pair_detected(self):
        rng = np.random.default_rng(7)
        rng.standard_normal(400)  # reproduce the frozen-run stream position
        for t in range(2, 400):
            rng.standard_normal()
        x = np.cumsum(rng.standard_normal(400))
        y = 2.0 + 1.5 * x + rng.standard_normal(400) * 0.5
        frame = make_frame(np.column_stack([x, y]), ("a", "b"))
        assert engle_granger(frame) == (0.0,)
        assert _first_stage_stat(x, y) == pytest.approx(-19.720854791400267, abs=1e-8)

    def test_independent_walks_pass_screen(self):
        rng = np.random.default_rng(21)
        frame = make_frame(
            np.column_stack(
                [np.cumsum(rng.standard_normal(400)), np.cumsum(rng.standard_normal(400))]
            ),
            ("a", "b"),
        )
        assert min(engle_granger(frame)) >= 0.05

    def test_one_test_per_unordered_pair(self):
        rng = np.random.default_rng(3)
        vals = np.cumsum(rng.standard_normal((300, 4)), axis=0)
        frame = make_frame(vals, ("a", "b", "c", "d"))
        pvalues = engle_granger(frame)
        # (a, b), (a, c), (a, d), (b, c), (b, d), (c, d): the later column on the earlier
        pairs = [(left, right) for k, left in enumerate("abcd") for right in "abcd"[k + 1 :]]
        assert pvalues == tuple(engle_granger(frame.select(pair))[0] for pair in pairs)

    def test_needs_two_columns(self):
        frame = make_frame(np.cumsum(np.random.default_rng(1).standard_normal((50, 1)), axis=0), ("solo",))
        with pytest.raises(ParameterError):
            engle_granger(frame)

    def test_rank_deficient_first_stage_degenerate(self):
        # a constant regressor duplicates the first-stage intercept
        walk = _walk(6, 120)
        frame = make_frame(np.column_stack([np.full(120, 5.0), walk]), ("flat", "walk"))
        with pytest.raises(DegenerateSeriesError):
            engle_granger(frame)


class TestStatsmodelsCrossChecks:
    """Live agreement checks; skipped when statsmodels is absent."""

    def test_adf_matches(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        for seed in (0, 1, 2):
            y = _walk(seed, 250)
            mine = adf_test(y)
            stat, pvalue, lag, *_ = sm.adfuller(y, regression="c", autolag="AIC")
            assert mine.stat == pytest.approx(stat, abs=1e-8)
            assert mine.pvalue == pytest.approx(pvalue, abs=1e-8)
            assert select_adf_lag(y, 12, "c") == lag

    def test_mackinnon_matches(self):
        av = pytest.importorskip("statsmodels.tsa.adfvalues")
        for stat in (-4.5, -3.0, -1.5, 0.5):
            for n in (1, 2):
                assert mackinnon_pvalue(stat, n) == pytest.approx(
                    float(av.mackinnonp(stat, regression="c", N=n)), abs=1e-12
                )

    def test_coint_stat_matches(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.standard_normal(350))
        y = 1.0 + 0.8 * x + rng.standard_normal(350)
        frame = make_frame(np.column_stack([x, y]), ("first", "second"))
        stat, pvalue, _ = sm.coint(y, x, trend="c", autolag="AIC")
        assert _first_stage_stat(x, y) == pytest.approx(stat, abs=1e-8)
        assert engle_granger(frame)[0] == pytest.approx(pvalue, abs=1e-8)
