"""Restriction masks, explainable rate, and the model-space sweep."""

import csv
import datetime as dt
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_dates, make_frame, src_env
from pool_probe import blas_threads, probed_pool, scipy_openblas, worker_reads
from run_search_experiment import A1, A2, INTERCEPT

from gridgap import TimeSeriesFrame
from gridgap import blas as blas_module
from gridgap.blas import one_blas_thread, openblas
from gridgap.errors import NoModelError, ParameterError
from gridgap.rvar import (
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

# Five-variable system, order 2, stationary in differences, with the lag
# coefficients and intercept of scripts/run_search_experiment.py.  The first
# column never feeds the other equations, matching the mandatory part of
# every restriction rule; the remaining couplings are strong enough that
# precedence tests keep them.
NAMES5 = ("y", "a", "b", "c", "d")
# the script's SIGMA differs off the diagonal; c10's golden log was drawn with this one
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
        d[t] = INTERCEPT + A1 @ d[t - 1] + A2 @ d[t - 2] + chol @ rng.standard_normal(5)
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
        shares = fevd(_silent_model(), horizon=6)
        assert explainable_rate(shares) == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_share(self):
        # the target is the first variable
        shares = np.zeros((1, 2, 2))
        shares[0, 0, 0] = 0.7
        shares[0, 0, 1] = 0.3
        shares[0, 1, 1] = 1.0
        assert explainable_rate(shares) == pytest.approx(30.0)

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
            rate = explainable_rate(fevd(model, horizon=8))
            assert 0.0 <= rate <= 100.0


# ------------------------------------------------------------- search space


class TestSearchSpace:
    def test_enumeration_order_and_size(self):
        frame = integrated_levels(16)
        window = whole_range(frame)
        space = SearchSpace((("y", "a"), ("y", "a", "b")), (window,), (1, 2), (1, 3))
        records = run_search(frame, space, ScoringConfig()).records
        combos = [(r.index, r.subset, r.date_range, r.order, r.rule) for r in records]
        assert space.size() == len(combos) == 8
        assert [c[0] for c in combos] == list(range(8))
        # subset varies slowest, rule fastest
        assert combos[0][1:] == (("y", "a"), window, 1, 1)
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


def _numpy_blas_threads(item, fail_at=None):
    """numpy's OpenBLAS thread count in the process that runs ``item``."""
    if item == fail_at:
        raise RuntimeError(f"item {item} failed")
    return blas_threads()[0]


class TestRunSearch:
    def test_single_admissible_combination_chosen(self):
        frame = integrated_levels(16)
        space = SearchSpace((NAMES5,), (whole_range(frame),), (2,), (3,))
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        assert result.chosen.index == 0
        assert result.chosen.status == "ok"
        assert result.chosen.model.p == 2

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
        assert first.chosen.index == second.chosen.index == parallel.chosen.index
        assert search_log_csv(first) == search_log_csv(second) == search_log_csv(parallel)
        statuses = [r.status for r in first.records]
        assert all(s.startswith("failed:adf:") for s in statuses[8:])
        assert "ok" in statuses[:8]

    def test_one_window_runs_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-window search must not start a pool")

        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", no_pool)
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
            monkeypatch.setattr(blas_module, "_POOL_STATE", {})
            # a pool worker stays pinned
            blas_module._pool_initializer(sweep._evaluate_window, (frame, ScoringConfig()))
            assert get() == 1
        finally:
            put(before)

    def test_pool_map_pins_numpy_blas_while_it_runs(self, monkeypatch, tmp_path):
        # read outside any pin: pool_map itself pins, on the loop and the pool
        blas = openblas()
        if blas is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS, so its thread count cannot be set")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform has no fork start method")
        get, put = blas
        log, started, parent = tmp_path / "workers.txt", [], []

        class Pool(probed_pool("fork", log, started)):
            def __init__(self, *args, **kwargs):
                parent.append(get())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", Pool)
        pool_map = blas_module.pool_map
        before = get()
        try:
            put(2)
            assert list(pool_map(_numpy_blas_threads, range(3), (), 1)) == [1] * 3
            assert get() == 2
            assert list(pool_map(_numpy_blas_threads, range(4), (), 2)) == [1] * 4
            assert (started, parent) == ([2], [1])  # the workers forked from a pinned parent
            assert [threads for _, threads, _ in worker_reads(log)] == [1] * 4
            assert get() == 2
            for workers in (1, 2):
                with pytest.raises(RuntimeError, match="item 1 failed"):
                    list(pool_map(_numpy_blas_threads, range(3), (1,), workers))
                assert get() == 2
                results = pool_map(_numpy_blas_threads, range(3), (), workers)
                assert next(results) == 1
                assert get() == 1  # held between results
                results.close()
                assert get() == 2
            assert not blas_module.BLAS_PIN.locked()
            assert list(pool_map(_numpy_blas_threads, range(2), (), 1)) == [1] * 2
        finally:
            put(before)

    @pytest.mark.parametrize("inherited, puts", [(1, []), (2, [1])])
    def test_worker_pins_only_an_unpinned_blas(self, monkeypatch, inherited, puts):
        calls = []
        monkeypatch.setattr(blas_module, "openblas", lambda: (lambda: inherited, calls.append))
        monkeypatch.setattr(blas_module, "_POOL_STATE", {})
        blas_module._pool_initializer(sweep._evaluate_window, (spiky_levels(0), ScoringConfig()))
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
            tasks = len(os.listdir("/proc/self/task"))
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {tasks} {blas_threads()[1]}\n")
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
        assert str(os.getpid()) not in {pid for pid, _, _ in units}
        assert [threads for _, threads, _ in units] == ["1"] * len(windows)
        # scipy's OpenBLAS, which runs the least squares, was pinned before the fork
        scipy_threads = "1" if scipy_openblas() else "None"
        assert [threads for _, _, threads in units] == [scipy_threads] * len(windows)

    def test_first_statistic_pins_only_scipys_openblas(self):
        if blas_module.openblas() is None or scipy_openblas() is None:
            pytest.skip("numpy or scipy has no bundled OpenBLAS of its own to pin")
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from gridgap import blas\n"
            "import gridgap.rvar, gridgap.search, gridgap.cli.main\n"
            "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
            "before = blas.openblas()[0]()\n"
            "gridgap.rvar.ljung_box(np.sin(np.arange(40.0)), 4)\n"
            "import scipy\n"
            "after = blas.openblas()[0](), blas.scipy_openblas(scipy)[0]()\n"
            "print(json.dumps([loaded, before, *after]))\n"
        )
        env = src_env(OPENBLAS_NUM_THREADS="2")
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        loaded, numpy_before, numpy_after, scipy_after = json.loads(done.stdout)
        assert loaded == []  # importing the packages loads no scipy module
        assert numpy_after == numpy_before  # numpy's count is pinned only around a pool
        assert scipy_after == 1

    def test_search_pins_scipy_before_its_pool_forks(self, tmp_path):
        """In a fresh process whose first statistic is a pooled search, scipy is
        loaded and pinned in the parent before the pool starts, and every
        forked worker reads one thread."""
        if blas_module.openblas() is None or scipy_openblas() is None:
            pytest.skip("numpy or scipy has no bundled OpenBLAS of its own to pin")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform has no fork start method")
        code = (
            "import json, sys\n"
            "from gridgap import blas\n"
            "from gridgap.search import ScoringConfig, SearchSpace, run_search\n"
            "from pool_probe import blas_threads, probed_pool, worker_reads\n"
            "from test_search import spiky_levels, whole_range\n"
            "log, started, parent = sys.argv[1], [], []\n"
            "class Pool(probed_pool('fork', log, started)):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        parent.append(blas_threads()[1])\n"
            "        super().__init__(*args, **kwargs)\n"
            "blas.ProcessPoolExecutor = Pool\n"
            "frame = spiky_levels(0)\n"
            "start, end = whole_range(frame)\n"
            "space = SearchSpace((('y', 'u', 'v'),), ((start, end),) * 2, (1, 2), (1, 2))\n"
            "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
            "run_search(frame, space, ScoringConfig(), jobs=2)\n"
            "workers = [threads for _, _, threads in worker_reads(log)]\n"
            "print(json.dumps([loaded, started, parent, workers]))\n"
        )
        tests = os.path.dirname(os.path.abspath(__file__))
        scripts = os.path.join(os.path.dirname(tests), "scripts")
        env = src_env(OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], tests, scripts])
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "workers.txt")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        loaded, started, parent, workers = json.loads(done.stdout)
        assert loaded == []  # nothing loaded scipy before the search
        assert started == [2]
        assert parent == [1]  # scipy's OpenBLAS was pinned before the pool started
        assert workers == [1, 1]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_on_start_method_matches_serial(self, monkeypatch, tmp_path, method):
        blas = openblas()
        if blas is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS, so its thread count cannot be read")
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"this platform has no {method} start method")
        frame = spiky_levels(0)
        start, end = whole_range(frame)
        windows = tuple((start + dt.timedelta(days=d), end) for d in (0, 5, 10, 15))
        space = SearchSpace((("y", "u", "v"),), windows, (1, 2), (1, 2))
        serial = run_search(frame, space, ScoringConfig())
        started, log = [], tmp_path / "workers.txt"
        monkeypatch.setattr(blas_module, "ProcessPoolExecutor", probed_pool(method, log, started))
        pooled = run_search(frame, space, ScoringConfig(), jobs=2)
        assert started == [2]
        reads = worker_reads(log)
        assert len(reads) == len(windows)
        assert os.getpid() not in {pid for pid, _, _ in reads}
        # a spawned worker pins numpy's OpenBLAS itself, and scipy's on its first statistic
        assert [threads for _, threads, _ in reads] == [1] * len(windows)
        scipy_threads = 1 if scipy_openblas() else None
        assert [threads for _, _, threads in reads] == [scipy_threads] * len(windows)
        assert pooled.chosen.index == serial.chosen.index
        assert search_log_csv(pooled) == search_log_csv(serial)
        assert any(r.model is not None for r in serial.records)
        for a, b in zip(serial.records, pooled.records):
            assert (a.model is None) == (b.model is None)
            if a.model is not None:
                for name in ("intercept", "coeffs", "sigma_e"):
                    assert np.array_equal(getattr(a.model, name), getattr(b.model, name))

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
        calls = dict.fromkeys(("adf_test", "engle_granger", "granger_pvalues", "granger_wald"), 0)
        counted_names = (
            (sweep, "adf_test"), (sweep, "engle_granger"), (sweep, "granger_pvalues"),
            (masks, "granger_wald"),
        )
        for module, name in counted_names:
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

        # one pass of precedence tests per (passing window, order), shared by rules 2 and 3
        window_gates = ("failed:window", "failed:difference", "failed:adf", "failed:cointegration")
        passing = {r.date_range for r in result.records if not r.status.startswith(window_gates)}
        assert passing
        assert calls["granger_pvalues"] == len(passing) * len(space.orders)

        rule2 = SearchSpace((subset,), windows, (1, 2, 3), (2,))
        calls2, _ = self._count_tests(monkeypatch, rule2, frame)
        assert calls2["granger_wald"] == calls["granger_wald"] > 0

        rule1 = SearchSpace((subset,), windows, (1, 2, 3), (1,))
        calls1, _ = self._count_tests(monkeypatch, rule1, frame)
        assert calls1["granger_pvalues"] == calls1["granger_wald"] == 0

    def test_ranked_puts_best_bic_first(self):
        frame = integrated_levels(16)
        space = SearchSpace((NAMES5,), (whole_range(frame),), (2, 3), (1, 3))
        result = run_search(frame, space, ScoringConfig(required_signs=SIGNS5))
        ranked = result.ranked()
        assert ranked[0].index == result.chosen.index
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
        assert chosen.model.mask.sum() > rule_mask(2, 5, 1, None).sum()
        for r in result.records:
            assert (r.model is not None) == r.admissible
        diffed = difference(frame.select(chosen.subset).slice_dates(*chosen.date_range))
        with one_blas_thread():
            want = fit_restricted_var(diffed, chosen.order, frame_mask(diffed, chosen.order, chosen.rule))
        got = chosen.model
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

    def test_status_with_a_comma_stays_one_cell(self):
        # a 16-day window is too short for the ADF test, whose reason holds a comma
        frame = spiky_levels(0)
        short = (frame.dates[0], frame.dates[15])
        space = SearchSpace((("y", "u", "v"),), (short, whole_range(frame)), (1, 2), (1,))
        result = run_search(frame, space, ScoringConfig())
        header, *rows = csv.reader(search_log_csv(result).splitlines())
        assert "," in result.records[0].status
        assert [len(row) for row in rows] == [len(header)] * space.size()
        assert [row[header.index("status")] for row in rows] == [r.status for r in result.records]
