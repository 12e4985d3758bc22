"""Restriction masks, explainable rate, and the model-space sweep."""

import datetime as dt
import multiprocessing
import os

import numpy as np
import pytest

from conftest import make_dates, make_frame

from gridgap import TimeSeriesFrame
from gridgap.blas import one_blas_thread, openblas
from gridgap.errors import NoModelError, ParameterError
from gridgap.rvar import (
    FevdResult,
    RVarModel,
    diagnostics,
    fevd,
    fit_restricted_var,
    granger_wald,
    zero_mask,
)
from gridgap.search import ScoringConfig, SearchSpace, explainable_rate, run_search, search_log_csv
from gridgap.search import masks, sweep
from gridgap.search.masks import granger_pvalues, rule_mask
from gridgap.transforms import difference


# ---------------------------------------------------------------- generators

# Five-variable system, order 2, stationary in differences.  The first
# column never feeds the other equations, matching the mandatory part of
# every restriction rule; the remaining couplings are strong enough that
# precedence tests keep them.
NAMES5 = ("y", "a", "b", "c", "d")
A1_5 = np.array([
    [0.25, 0.30, -0.15, 0.00, 0.15],
    [0.00, 0.30, 0.15, 0.00, 0.00],
    [0.00, 0.10, 0.25, 0.15, 0.00],
    [0.00, 0.00, 0.20, 0.30, 0.10],
    [0.00, 0.15, 0.00, 0.10, 0.30],
])
A2_5 = np.array([
    [0.20, -0.25, -0.10, 0.15, 0.00],
    [0.00, 0.25, -0.20, 0.10, 0.00],
    [0.00, -0.15, 0.20, 0.00, 0.10],
    [0.00, 0.00, -0.15, 0.20, 0.00],
    [0.00, 0.10, 0.00, -0.15, 0.20],
])
INTERCEPT5 = np.array([0.05, 0.02, -0.03, 0.04, 0.00])
SIGMA5 = np.array([
    [1.00, 0.20, 0.10, 0.00, 0.10],
    [0.20, 0.80, 0.15, 0.10, 0.00],
    [0.10, 0.15, 0.90, 0.20, 0.10],
    [0.00, 0.10, 0.20, 0.70, 0.15],
    [0.10, 0.00, 0.10, 0.15, 0.60],
])
# long-run response of y: positive to a/c/d, negative to b
SIGNS5 = {"a": 1, "b": -1, "c": 1, "d": 1}


def integrated_levels(seed, steps=560, start="2019-01-01"):
    """Random-walk levels whose differences follow the 5-var generator."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(SIGMA5)
    burn = 200
    d = np.zeros((burn + steps, 5))
    for t in range(2, burn + steps):
        d[t] = INTERCEPT5 + A1_5 @ d[t - 1] + A2_5 @ d[t - 2] + chol @ rng.standard_normal(5)
    levels = np.array([1000.0, 50.0, 30.0, 40.0, 20.0]) + np.cumsum(d[burn:], axis=0)
    return make_frame(levels, NAMES5, start=start)


def _rot(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def spiky_levels(seed, steps=140):
    """Three-variable system whose driver pair cycles near the unit circle.

    The one-lag projection of the (u, v) block has population spectral
    radius 0.994, so a one-lag fit on a short sample lands outside the unit
    circle for many draws while the two-lag fit stays comfortably inside.
    """
    a1 = np.zeros((3, 3))
    a2 = np.zeros((3, 3))
    a1[0] = [0.2, 0.35, -0.25]
    a1[1:, 1:] = 1.79 * _rot(1.2)
    a2[0] = [0.1, -0.2, 0.15]
    a2[1:, 1:] = -0.8 * _rot(2.4)
    rng = np.random.default_rng(seed)
    burn = 100
    d = np.zeros((burn + steps, 3))
    for t in range(2, burn + steps):
        d[t] = a1 @ d[t - 1] + a2 @ d[t - 2] + rng.standard_normal(3)
    levels = np.array([200.0, 100.0, 80.0]) + np.cumsum(d[burn:], axis=0)
    return make_frame(levels, ("y", "u", "v"), start="2021-01-01")


def chained_frame(seed, coupling, steps=300):
    """y <- u <- v causal chain with a tunable weak link."""
    rng = np.random.default_rng(seed)
    x = np.zeros((steps, 3))
    for t in range(1, steps):
        x[t, 0] = 0.4 * x[t - 1, 0] + 0.5 * x[t - 1, 1] + rng.standard_normal()
        x[t, 1] = 0.3 * x[t - 1, 1] + coupling * x[t - 1, 2] + rng.standard_normal()
        x[t, 2] = 0.5 * x[t - 1, 2] + rng.standard_normal()
    return make_frame(x, ("y", "u", "v"))


def whole_range(frame):
    return (frame.dates[0], frame.dates[-1])


# ------------------------------------------------------------------- masks


def frame_mask(frame, p, rule):
    """The mask the sweep builds for ``rule`` at order ``p`` on ``frame``."""
    return rule_mask(p, frame.n_columns, rule, granger_pvalues(frame, p))


class TestRestrictionMask:
    def test_rule1_masks_target_column_only(self):
        frame = chained_frame(4, 0.5)
        mask = rule_mask(2, frame.n_columns, 1, None)
        assert mask.shape == (2, 3, 3)
        assert int(mask.sum()) == 4
        assert mask[:, 1:, 0].all()
        assert not mask[:, 0, :].any()

    def test_rules_nest(self):
        frame = chained_frame(2, 0.12)
        m1, m2, m3 = (frame_mask(frame, 1, rule) for rule in (1, 2, 3))
        assert np.all(m1 <= m2)
        assert np.all(m2 <= m3)
        # this draw has one precedence p-value inside (0.05, 0.1], so the
        # tighter threshold masks strictly more
        assert m3.sum() > m2.sum() > m1.sum()

    def test_strong_pair_stays_unmasked(self):
        frame = chained_frame(4, 0.5)
        i_y, i_u = frame.index_of("y"), frame.index_of("u")
        assert granger_wald(frame, "u", "y", 1).pvalue < 1e-4
        for rule in (2, 3):
            mask = frame_mask(frame, 1, rule)
            assert not mask[:, i_y, i_u].any()

    def test_mask_constant_across_lags(self):
        frame = chained_frame(2, 0.12)
        mask = frame_mask(frame, 3, 3)
        for k in (1, 2):
            assert np.array_equal(mask[0], mask[k])


# --------------------------------------------------------- explainable rate


def _silent_model(n=3):
    names = tuple(f"v{i}" for i in range(n))
    return RVarModel(
        names=names,
        p=1,
        intercept=np.zeros(n),
        coeffs=np.zeros((1, n, n)),
        mask=zero_mask(1, n),
        sigma_e=np.diag(np.arange(1.0, n + 1.0)),
        train_start=dt.date(2020, 1, 1),
        train_end=dt.date(2020, 12, 31),
    )


class TestExplainableRate:
    def test_no_dynamics_means_all_own(self):
        decomp = fevd(_silent_model(), horizon=6)
        for name in decomp.names:
            assert explainable_rate(decomp, name) == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_share(self):
        shares = np.zeros((1, 2, 2))
        shares[0, 1, 1] = 0.7
        shares[0, 1, 0] = 0.3
        shares[0, 0, 0] = 1.0
        decomp = FevdResult(("p", "q"), shares, np.ones((1, 2)), (0, 1))
        assert explainable_rate(decomp, "q") == pytest.approx(30.0)

    def test_bounded_for_random_models(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = 3
            coeffs = rng.uniform(-0.4, 0.4, (1, n, n)) * 0.8
            raw = rng.standard_normal((n, n))
            model = RVarModel(
                names=("x", "y", "z"),
                p=1,
                intercept=np.zeros(n),
                coeffs=coeffs,
                mask=zero_mask(1, n),
                sigma_e=raw @ raw.T + 0.5 * np.eye(n),
                train_start=dt.date(2020, 1, 1),
                train_end=dt.date(2020, 12, 31),
            )
            decomp = fevd(model, horizon=8)
            for name in model.names:
                rate = explainable_rate(decomp, name)
                assert 0.0 <= rate <= 100.0

    def test_horizon_bounds(self):
        decomp = fevd(_silent_model(), horizon=4)
        assert explainable_rate(decomp, "v0", horizon=4) == pytest.approx(0.0)
        with pytest.raises(ParameterError):
            explainable_rate(decomp, "v0", horizon=5)
        with pytest.raises(ParameterError):
            explainable_rate(decomp, "v0", horizon=0)


# ------------------------------------------------------------- search space


class TestSearchSpace:
    def test_enumeration_order_and_size(self):
        space = SearchSpace(
            (("y", "a"), ("y", "a", "b")),
            ((dt.date(2020, 1, 1), dt.date(2020, 6, 30)),),
            (1, 2),
            (1, 3),
        )
        combos = list(space.combinations())
        assert space.size() == len(combos) == 8
        assert [c[0] for c in combos] == list(range(8))
        # subset varies slowest, rule fastest
        assert combos[0][1:] == (("y", "a"), (dt.date(2020, 1, 1), dt.date(2020, 6, 30)), 1, 1)
        assert combos[1][3:] == (1, 3)
        assert combos[4][1] == ("y", "a", "b")

    def test_target_must_lead_every_subset(self):
        window = ((dt.date(2020, 1, 1), dt.date(2020, 6, 30)),)
        with pytest.raises(ParameterError):
            SearchSpace((("y", "a"), ("a", "y")), window, (1,))
        with pytest.raises(ParameterError):
            SearchSpace((("y",),), window, (1,))
        with pytest.raises(ParameterError):
            SearchSpace((("y", "a", "a"),), window, (1,))

    def test_order_and_rule_domains(self):
        window = ((dt.date(2020, 1, 1), dt.date(2020, 6, 30)),)
        with pytest.raises(ParameterError):
            SearchSpace((("y", "a"),), window, (8,))
        with pytest.raises(ParameterError):
            SearchSpace((("y", "a"),), window, (0,))
        with pytest.raises(ParameterError):
            SearchSpace((("y", "a"),), window, (1,), (4,))
        with pytest.raises(ParameterError):
            SearchSpace((("y", "a"),), ((dt.date(2020, 6, 30), dt.date(2020, 1, 1)),), (1,))

    def test_sign_config_validated(self):
        with pytest.raises(ParameterError):
            ScoringConfig(required_signs={"a": 2})


# ---------------------------------------------------------------- run_search


class TestRunSearch:
    def test_single_admissible_combination_chosen(self):
        frame = integrated_levels(16)
        space = SearchSpace((NAMES5,), (whole_range(frame),), (2,), (3,))
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        assert result.chosen_index == 0
        assert result.chosen.status == "ok"
        assert result.model.p == 2

    def test_recovers_generator_order(self):
        frame = integrated_levels(16)
        last = frame.dates[-1]
        space = SearchSpace(
            (NAMES5,),
            tuple((frame.dates[50 * k], last) for k in range(3)),
            (1, 2, 3),
            (1, 3),
        )
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        assert result.chosen.order == 2
        assert result.chosen.status == "ok"
        # underfit candidates leave serial correlation behind
        for r in result.records:
            if r.order == 1 and not r.status.startswith("failed:cointegration"):
                assert r.status.startswith("failed:whiteness")

    def test_every_rejection_names_a_gate(self):
        frame = integrated_levels(16)
        last = frame.dates[-1]
        space = SearchSpace(
            (NAMES5,),
            tuple((frame.dates[50 * k], last) for k in range(3)),
            (1, 2, 3),
            (1, 3),
        )
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        rejected = [r for r in result.records if not r.admissible]
        assert rejected
        for r in rejected:
            gate = r.status.split(":", 2)[1].split(" ")[0]
            assert r.status.startswith("failed:")
            assert gate in {"window", "difference", "adf", "cointegration", "fit",
                            "stability", "whiteness", "dw", "sign"}

    def test_unstable_order_rejected_stable_chosen(self):
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (1, 2), (1,))
        result = run_search(frame, space, ScoringConfig())
        one, two = result.records
        assert one.status == "failed:stability"
        assert one.stats["max_modulus"] > 1.0
        assert two.status == "ok"
        assert result.chosen.order == 2

    def test_wrong_required_sign_rejects(self):
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (2,), (1,))
        passing = run_search(frame, space, ScoringConfig())
        got = passing.chosen.stats["irf_cum:u"]
        bad = ScoringConfig(required_signs={"u": -int(np.sign(got))})
        with pytest.raises(NoModelError):
            run_search(frame, space, bad)

    def test_all_failures_raise_with_reasons(self):
        rng = np.random.default_rng(99)
        frame = make_frame(rng.standard_normal((200, 3)) * 5.0, ("y", "u", "v"))
        space = SearchSpace(
            (("y", "u", "v"),), (whole_range(frame),), (1, 2), (1, 2)
        )
        with pytest.raises(NoModelError) as err:
            run_search(frame, space, ScoringConfig())
        failures = err.value.failures
        assert len(failures) == space.size()
        for index, status in failures:
            # stationary levels look cointegrated to the residual screen
            assert status == "failed:cointegration"

    def test_missing_column_rejected_up_front(self):
        frame = integrated_levels(16)
        space = SearchSpace(
            (("y", "missing"),), (whole_range(frame),), (1,), (1,)
        )
        with pytest.raises(ParameterError):
            run_search(frame, space, ScoringConfig())

    def test_deterministic_and_parallel_equivalent(self):
        frame = spiky_levels(0)
        start, end = whole_range(frame)
        # three (subset, window) units, so jobs=2 runs a pool; the 15-day
        # window is too short for the ADF gate
        windows = (
            (start, end),
            (start + dt.timedelta(days=10), end),
            (start, start + dt.timedelta(days=14)),
        )
        space = SearchSpace((("y", "u", "v"),), windows, (1, 2), (1, 2))
        first = run_search(frame, space, ScoringConfig())
        second = run_search(frame, space, ScoringConfig())
        parallel = run_search(frame, space, ScoringConfig(), jobs=2)
        assert first.chosen_index == second.chosen_index == parallel.chosen_index
        assert search_log_csv(first) == search_log_csv(second) == search_log_csv(parallel)
        statuses = [r.status for r in first.records]
        assert all(s.startswith("failed:adf:") for s in statuses[8:])
        assert "ok" in statuses[:8]

    def test_one_window_runs_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-window search must not start a pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (1, 2), (1, 2))
        result = run_search(frame, space, ScoringConfig(), jobs=2)
        assert result.chosen.order == 2

    def test_blas_on_one_thread_then_restored(self, monkeypatch):
        blas = openblas()
        if blas is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS, so its thread count cannot be set")
        get, put = blas
        before = get()
        seen = []
        real = sweep.fit_restricted_var

        def recording(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "fit_restricted_var", recording)
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (1, 2), (1, 2))
        try:
            put(2)
            run_search(frame, space, ScoringConfig())
            assert seen and set(seen) == {1}
            assert get() == 2
            sweep._sweep_initializer(frame, ScoringConfig())  # a pool worker stays pinned
            assert get() == 1
        finally:
            put(before)

    @pytest.mark.parametrize("inherited, puts", [(1, []), (2, [1])])
    def test_worker_pins_only_an_unpinned_blas(self, monkeypatch, inherited, puts):
        calls = []
        monkeypatch.setattr(sweep, "openblas", lambda: (lambda: inherited, calls.append))
        sweep._sweep_initializer(spiky_levels(0), ScoringConfig())
        assert calls == puts

    def test_pool_workers_run_one_os_thread(self, monkeypatch, tmp_path):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count a process's OS threads")
        blas = openblas()
        if blas is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS, so its thread count cannot be set")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the thread count is taken in a patched function only forked workers inherit")
        get, put = blas
        log = tmp_path / "threads.txt"
        real = sweep._evaluate_window

        def counting(*args):
            batch = real(*args)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(os.listdir('/proc/self/task'))}\n")
            return batch

        monkeypatch.setattr(sweep, "_evaluate_window", counting)
        frame = spiky_levels(0)
        start, end = whole_range(frame)
        windows = tuple((start + dt.timedelta(days=d), end) for d in (0, 5, 10, 15))
        space = SearchSpace((("y", "u", "v"),), windows, (1, 2), (1, 2))
        before = get()
        try:
            put(2)  # a multi-core budget, so the parent pins before it forks
            run_search(frame, space, ScoringConfig(), jobs=2)
        finally:
            put(before)
        units = [line.split() for line in log.read_text().splitlines()]
        assert len(units) == len(windows)
        assert str(os.getpid()) not in {pid for pid, _ in units}
        assert [threads for _, threads in units] == ["1"] * len(windows)

    def test_precedence_failure_shared_by_rules(self, monkeypatch):
        calls = []

        def broken(frame, cause, effect, lags):
            calls.append(lags)
            raise ParameterError(f"no test at lags={lags}")

        monkeypatch.setattr(masks, "granger_wald", broken)
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (1, 2), (1, 2, 3))
        result = run_search(frame, space, ScoringConfig())
        assert calls == [1, 2]
        for r in result.records:
            if r.rule == 1:
                assert not r.status.startswith("failed:fit")
            else:
                assert r.status == f"failed:fit (no test at lags={r.order})"

    def test_residuals_once_per_fitted_candidate(self, monkeypatch):
        calls = []
        real = sweep.residuals

        def counted(model, frame):
            calls.append(model.p)
            return real(model, frame)

        monkeypatch.setattr(sweep, "residuals", counted)
        monkeypatch.setattr(diagnostics, "residuals", counted)
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (1, 2), (1, 2))
        result = run_search(frame, space, ScoringConfig())
        whitened = [r for r in result.records if any(k.startswith("lb_p:") for k in r.stats)]
        assert any("aic" in r.stats for r in whitened)
        assert sorted(calls) == sorted(r.order for r in whitened)

    def _count_tests(self, monkeypatch, space, frame):
        calls = {"adf_test": 0, "engle_granger": 0, "granger_wald": 0}
        for module, name in ((sweep, "adf_test"), (sweep, "engle_granger"), (masks, "granger_wald")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        return dict(calls), result

    def test_window_tests_run_once_per_window(self, monkeypatch):
        frame = integrated_levels(16)
        last = frame.dates[-1]
        windows = tuple((frame.dates[50 * k], last) for k in range(3))
        windows += ((frame.dates[0], frame.dates[10]),)  # too short for ADF
        subset = ("y", "a", "b")
        space = SearchSpace((subset,), windows, (1, 2, 3), (2, 3))
        calls, result = self._count_tests(monkeypatch, space, frame)
        past_adf = {r.date_range for r in result.records if not r.status.startswith("failed:adf")}
        assert len(past_adf) == 3
        assert calls["engle_granger"] == len(past_adf)
        assert calls["adf_test"] <= len(subset) * len(windows)

        rule2 = SearchSpace((subset,), windows, (1, 2, 3), (2,))
        calls2, _ = self._count_tests(monkeypatch, rule2, frame)
        assert calls2["granger_wald"] == calls["granger_wald"] > 0

    def test_ranked_puts_best_bic_first(self):
        frame = integrated_levels(16)
        space = SearchSpace((NAMES5,), (whole_range(frame),), (2, 3), (1, 3))
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        ranked = result.ranked()
        assert ranked[0].index == result.chosen_index
        ok = [r for r in ranked if r.admissible]
        bics = [r.stats["bic"] for r in ok]
        assert bics == sorted(bics)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chosen_model_is_the_sweeps_fit(self, jobs):
        frame = integrated_levels(16)
        # six (subset, window) units, so jobs=2 fits in pool workers; the
        # chosen record sits between two other admissible ones, and rule 3
        # masks driver pairs beyond rule 1's cut through the precedence tests
        subsets = (("y", "a", "b", "c"), NAMES5, ("y", "b", "c", "d"))
        windows = tuple((frame.dates[50 * k], frame.dates[-1]) for k in range(2))
        space = SearchSpace(subsets, windows, (2,), (3,))
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5), jobs=jobs)
        chosen = result.chosen
        assert [r.index for r in result.records if r.admissible] == [0, 2, 4, 5]
        assert chosen.index == 2
        assert result.model.mask.sum() > rule_mask(2, 5, 1, None).sum()
        assert result.model is chosen.model
        for r in result.records:
            assert (r.model is not None) == r.admissible
        diffed = difference(frame.select(chosen.subset).slice_dates(*chosen.date_range))
        with one_blas_thread():
            want = fit_restricted_var(diffed, chosen.order, frame_mask(diffed, chosen.order, chosen.rule))
        got = result.model
        assert (got.names, got.p, got.train_start, got.train_end) == (
            want.names, want.p, want.train_start, want.train_end
        )
        for name in ("intercept", "coeffs", "mask", "sigma_e"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_model_field_left_out_of_equality_and_repr(self):
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (2,), (1,))
        chosen = run_search(frame, space, ScoringConfig()).chosen
        bare = sweep.CandidateRecord(
            chosen.index, chosen.subset, chosen.date_range, chosen.order, chosen.rule,
            chosen.status, chosen.stats,
        )
        assert chosen.model is not None and bare.model is None
        assert chosen == bare
        assert repr(chosen) == repr(bare)


# ----------------------------------------------------------------- log + io


class TestSearchLog:
    def test_one_row_per_combination(self):
        frame = spiky_levels(0)
        space = SearchSpace((("y", "u", "v"),), (whole_range(frame),), (1, 2), (1,))
        result = run_search(frame, space, ScoringConfig())
        lines = search_log_csv(result).strip().split("\n")
        header = lines[0].split(",")
        assert lines[0].startswith("index,subset,start,end,order,rule,status")
        assert len(lines) == 1 + space.size()
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert rows[0]["status"] == "failed:stability"
        assert rows[1]["status"] == "ok"
        assert rows[1]["subset"] == "y|u|v"
        assert float(rows[1]["bic"]) == pytest.approx(result.chosen.stats["bic"])
        # rejected-at-stability row leaves the score columns blank
        assert rows[0]["bic"] == ""
