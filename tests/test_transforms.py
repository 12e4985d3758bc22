import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgap import centered_trend, difference, trend_transition
from gridgap.errors import InsufficientDataError, MissingValueError

from conftest import make_frame

finite_rows = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=4, max_size=40
)


class TestDifference:
    def test_first_difference_hand_values(self):
        f = make_frame([1.0, 2.0, 4.0, 7.0])
        d = difference(f)
        assert d.values[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert d.dates == f.dates[1:]

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError, match="need more than 1 rows to difference, have 1"):
            difference(make_frame([1.0]))

    def test_missing_rejected(self):
        with pytest.raises(MissingValueError):
            difference(make_frame([1.0, np.nan, 2.0]))

    @given(finite_rows)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_reconstruction(self, xs):
        # each row is the plain subtraction of the day before, bit for bit
        f = make_frame(xs)
        d = difference(f)
        assert d.values.tobytes() == (f.values[1:] - f.values[:-1]).tobytes()
        assert d.dates == f.dates[1:]


def step_series(n=70):
    k = np.arange(n)
    base = np.where(k < 30, 100.0, np.where(k <= 40, 100.0 - 5.0 * (k - 30), 50.0))
    return base + 5.0 * np.sin(2 * np.pi * k / 7)


class TestTrendTransition:
    def test_centered_trend_cancels_weekly_cycle(self):
        k = np.arange(70)
        x = 10.0 + 3.0 * np.sin(2 * np.pi * k / 7)
        trend = centered_trend(x, 7)
        np.testing.assert_allclose(trend[3:-3], 10.0, atol=1e-12)

    def test_centered_trend_matches_double_loop(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=41)
        period = 7
        trend = centered_trend(x, period)
        padded = np.concatenate([np.full(3, x[0]), x, np.full(3, x[-1])])
        expected = [padded[i : i + period].mean() for i in range(len(x))]
        np.testing.assert_allclose(trend, expected, atol=1e-12)

    def test_step_fixture_brackets_true_transition(self):
        f = make_frame(step_series())
        _, begin, end, degenerate = trend_transition(f, "x0", period=7)
        begin = (begin - f.dates[0]).days
        end = (end - f.dates[0]).days
        assert 28 <= begin <= 32
        assert 38 <= end <= 42
        assert not degenerate

    def test_step_fixture_matches_brute_force_of_rule(self):
        x = step_series()
        f = make_frame(x)
        _, got_begin, got_end, _ = trend_transition(f, "x0", period=7, tol_fraction=0.05)
        trend = centered_trend(x, 7)
        n = len(trend)
        tol = 0.05 * (trend.max() - trend.min())
        begin_gaps = [abs(trend[k] - trend[:k].mean()) for k in range(1, n)]
        best = min(begin_gaps)
        begin = max(k for k in range(1, n) if begin_gaps[k - 1] <= best + tol)
        end_gaps = [abs(trend[k] - trend[k + 1 :].mean()) for k in range(n - 1)]
        tail = end_gaps[begin:]
        best_e = min(tail)
        end = begin + min(i for i, g in enumerate(tail) if g <= best_e + tol)
        assert (got_begin - f.dates[0]).days == begin
        assert (got_end - f.dates[0]).days == end

    def test_pure_ramp_spans_most_of_series(self):
        # A pure ramp never settles: the rule pins begin right after the
        # smoothing edge and end right before the opposite one.
        n = 60
        f = make_frame(np.arange(float(n)))
        _, begin, end, _ = trend_transition(f, "x0", period=7)
        begin = (begin - f.dates[0]).days
        end = (end - f.dates[0]).days
        assert begin < n / 2 < end

    def test_constant_series_degenerate(self):
        f = make_frame(np.full(30, 5.0))
        _, begin, end, degenerate = trend_transition(f, "x0")
        assert degenerate
        assert begin == end == f.dates[0]

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            trend_transition(make_frame(np.arange(10.0)), "x0", period=7)
