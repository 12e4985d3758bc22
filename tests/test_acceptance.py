"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single ``criterion NN PASS`` line on success; a failed
assertion is the corresponding FAIL.  Runtime-bounded criteria measure only
the work the bound covers.
"""

import csv
import ctypes
import datetime as dt
import io
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from gridgap.cli import MANIFEST_NAME
from gridgap.cli.main import main
from gridgap.frames import TimeSeriesFrame
from gridgap.ingest import (
    WideHourlyTable,
    qc_fill_missing,
    qc_outliers,
    write_series_csv,
    write_wide_csv,
)
from gridgap.ntl import lowpass_5x5, threshold_floor, write_grid, write_metadata
from gridgap.rvar import (
    RVarModel,
    adf_test,
    durbin_watson,
    fevd,
    fit_restricted_var,
    granger_wald,
    irf,
    ljung_box_statistic,
    run_diagnostics,
    stability_test,
    zero_mask,
)
from gridgap.backcast import TrainingConfig
from gridgap.search import ScoringConfig, SearchSpace, run_search, search_log_csv
from gridgap.transforms import difference

from conftest import make_dates, make_frame
from helpers import brute_lowpass, simulate_var
from make_synthetic import driver_levels, write_backcast_tables
from test_rvar_analysis import _random_stable_model
from test_search import SIGNS5, integrated_levels


def _report(num: int, label: str) -> None:
    print(f"criterion {num:02d} PASS: {label}")


def test_c01_fevd_row_sums_and_nonnegativity():
    start = time.perf_counter()
    worst_sum = 0.0
    worst_share = 0.0
    for seed in range(100):
        model = _random_stable_model(seed)
        shares = fevd(model, horizon=12)
        worst_sum = max(worst_sum, np.max(np.abs(shares.sum(axis=2) - 1.0)))
        worst_share = min(worst_share, shares.min())
    elapsed = time.perf_counter() - start
    assert worst_sum <= 1e-9
    assert worst_share >= -1e-12
    assert elapsed < 5.0
    _report(1, f"100 models: row-sum error {worst_sum:.2e}, min share {worst_share:.2e}, {elapsed:.2f}s")


def test_c02_fevd_against_monte_carlo():
    start = time.perf_counter()
    a = np.array([[0.6, 0.25], [0.05, 0.4]])
    sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
    model = RVarModel(("a", "b"), 1, np.zeros(2), a[None], zero_mask(1, 2), sigma)
    horizons = (1, 5, 10)
    shares = fevd(model, horizon=max(horizons))

    rng = np.random.default_rng(20260815)
    chol = np.linalg.cholesky(sigma)
    paths = 100_000
    z = rng.standard_normal((paths, max(horizons), 2))
    # orthogonalized shocks contribute independent variance, so per-shock
    # simulations decompose the forecast error exactly
    contrib = np.zeros((max(horizons), 2, 2))
    for j in (0, 1):
        zj = np.zeros_like(z)
        zj[:, :, j] = z[:, :, j]
        err = np.zeros((paths, 2))
        for t in range(max(horizons)):
            err = err @ a.T + zj[:, t] @ chol.T
            contrib[t, :, j] = err.var(axis=0)
    mc_shares = contrib / contrib.sum(axis=2, keepdims=True)
    worst = max(np.max(np.abs(shares[h - 1] - mc_shares[h - 1])) for h in horizons)
    elapsed = time.perf_counter() - start
    assert worst <= 0.02
    assert elapsed < 60.0
    _report(2, f"max |share - MC| = {worst:.4f} over h in {horizons}, {elapsed:.1f}s")


def test_c03_irf_equals_shocked_simulation():
    worst = 0.0
    for seed in range(100, 150):
        model = _random_stable_model(seed)
        n, p = model.n_vars, model.p
        j = seed % n
        res = irf(model, shock=model.names[j], horizon=20)
        # deterministic twin runs: identical zero history, one receives a
        # unit innovation at the impact period; intercepts cancel in the
        # difference
        intercept = np.random.default_rng(seed).normal(0, 1, n)
        base = np.zeros((21 + p, n))
        shocked = np.zeros((21 + p, n))
        for t in range(p, 21 + p):
            base[t] = intercept.copy()
            shocked[t] = intercept.copy()
            for lag in range(1, p + 1):
                base[t] += model.coeffs[lag - 1] @ base[t - lag]
                shocked[t] += model.coeffs[lag - 1] @ shocked[t - lag]
            if t == p:
                shocked[t, j] += 1.0
        diff = shocked[p:] - base[p:]
        worst = max(worst, np.max(np.abs(res - diff)))
    assert worst <= 1e-12
    _report(3, f"50 models, t <= 20: max |irf - simulation| = {worst:.2e}")


def test_c04_restricted_ols():
    rng = np.random.default_rng(4)
    # (a) all-false mask reproduces plain least squares
    values = rng.normal(0, 1, (300, 3)).cumsum(axis=0) * 0.01 + rng.normal(0, 1, (300, 3))
    frame = make_frame(values, names=("a", "b", "c"))
    p = 2
    model = fit_restricted_var(frame, p)
    y = frame.values
    rows = len(y) - p
    x = np.ones((rows, 1 + 3 * p))
    for lag in range(1, p + 1):
        x[:, 1 + (lag - 1) * 3 : 1 + lag * 3] = y[p - lag : p - lag + rows]
    target = y[p:]
    worst = 0.0
    for i in range(3):
        beta = np.linalg.solve(x.T @ x, x.T @ target[:, i])
        worst = max(worst, abs(beta[0] - model.intercept[i]))
        for lag in range(1, p + 1):
            for j in range(3):
                worst = max(worst, abs(beta[1 + (lag - 1) * 3 + j] - model.coeffs[lag - 1, i, j]))
    assert worst <= 1e-10

    # (b) masked coefficients are exact zeros
    mask = rng.random((p, 3, 3)) < 0.4
    masked = fit_restricted_var(frame, p, mask=mask)
    assert np.all(masked.coeffs[mask] == 0.0)

    # (c) coefficient recovery on a known VAR(2); oscillatory dynamics keep
    # the two lag blocks decorrelated, so T=2000 pins every coefficient down
    a1 = np.array([[0.9, 0.1, 0.0], [0.0, 0.8, 0.15], [0.1, 0.0, 0.85]])
    a2 = np.array([[-0.5, 0.05, 0.0], [0.0, -0.45, -0.1], [0.05, 0.0, -0.55]])
    sim = simulate_var(
        np.array([a1, a2]), np.zeros(3), np.eye(3), 2000, np.random.default_rng(12)
    )
    fitted = fit_restricted_var(make_frame(sim, names=("a", "b", "c")), 2)
    err = np.max(np.abs(fitted.coeffs - np.array([a1, a2])))
    assert err <= 0.05
    _report(4, f"normal-equation gap {worst:.1e}; T=2000 recovery error {err:.3f}")


def test_c05_golden_statistics():
    q = ljung_box_statistic(np.array([0.1, 0.2]), 100)
    assert q == pytest.approx(5.1936, abs=1e-3)
    assert durbin_watson(np.array([1.0, -1.0, 1.0, -1.0])) == 3.0

    worst = 0.0
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = int(rng.integers(1, 4))
        a = rng.uniform(-0.9, 0.9, p)
        a[-1] = np.sign(a[-1]) * max(abs(a[-1]), 0.05)  # keep degree p
        model = RVarModel(("y",), p, np.zeros(1), a.reshape(p, 1, 1), zero_mask(p, 1), np.eye(1))
        moduli = stability_test(model).moduli
        oracle = np.sort(np.abs(np.roots(np.concatenate([[1.0], -a]))))[::-1]
        worst = max(worst, np.max(np.abs(np.array(moduli) - oracle)))
    assert worst <= 1e-10
    _report(5, f"LB {q:.4f}, DW exact 3.0, AR(p<=3) moduli gap {worst:.1e}")


def test_c06_size_and_power():
    start = time.perf_counter()
    walk_rejects = 0
    ar_rejects = 0
    dws = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.standard_normal(500))
        if adf_test(walk).pvalue < 0.05:
            walk_rejects += 1
        e = rng.standard_normal(500)
        ar = np.zeros(500)
        for t in range(1, 500):
            ar[t] = 0.5 * ar[t - 1] + e[t]
        if adf_test(ar).pvalue < 0.05:
            ar_rejects += 1
        dws.append(durbin_watson(rng.standard_normal(500)))
    assert walk_rejects / 200 <= 0.10
    assert ar_rejects / 200 >= 0.90
    assert 1.9 <= np.mean(dws) <= 2.1

    granger_rejects = 0
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        frame = make_frame(rng.standard_normal((200, 2)), names=("x", "y"))
        if granger_wald(frame, "x", "y", lags=2).pvalue < 0.05:
            granger_rejects += 1
    rate = granger_rejects / 500
    assert 0.02 <= rate <= 0.09
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        6,
        f"ADF size {walk_rejects / 2:.1f}%, power {ar_rejects / 2:.1f}%;"
        f" Granger size {rate * 100:.1f}%; DW mean {np.mean(dws):.3f}; {elapsed:.0f}s",
    )


SUMMARY_ROW = re.compile(r"^Average in April: -?\d+\.\d{2}% \[-?\d+\.\d{2}, -?\d+\.\d{2}\]$")


def _write_backcast_fixture(root, days):
    """make_synthetic's backcast tables over ``days``, with the 10% drop
    through the final April."""
    final_april = max(d.year for d in days if d.month == 4)
    write_backcast_tables(
        root, np.random.default_rng(5), days, (final_april, 4), ("load", "temp", "hum", "wind")
    )
    return final_april


def _backcast_config(root, candidates, final_april):
    path = root / f"bc_{candidates}.cfg"
    path.write_text(
        "load = load.csv\nweather.temperature = temp.csv\nweather.humidity = hum.csv\n"
        "weather.wind = wind.csv\ngdp = 1.0\n"
        f"train_start = {final_april - 1}-01-01\ntrain_end = {final_april}-02-28\n"
        f"eval_start = {final_april}-03-01\neval_end = {final_april}-04-30\n"
        f"summary_month = {final_april}-04\n"
        f"candidates = {candidates}\nkeep_fraction = 0.25\nepochs = 150\n"
    )
    return path


def _april_rate(out_dir):
    summary = (out_dir / "summary.txt").read_text().strip()
    assert SUMMARY_ROW.match(summary), summary
    return float(summary.split(": ")[1].split("%")[0])


@pytest.mark.parametrize("candidates,budget", [(80, 60.0), (800, 600.0)])
def test_c07_backcast_end_to_end(tmp_path, candidates, budget):
    days = make_dates(731, "2019-01-01")  # through 2020-12-31
    final_april = _write_backcast_fixture(tmp_path, days)
    cfg = _backcast_config(tmp_path, candidates, final_april)
    out = tmp_path / f"out_{candidates}"
    start = time.perf_counter()
    assert main(["backcast", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    rate = _april_rate(out)
    assert abs(rate - 10.0) <= 1.5
    assert elapsed < budget
    _report(7, f"{candidates} candidates: April reduction {rate:.2f}%, {elapsed:.0f}s < {budget:.0f}s")


def test_c08_ensemble_selection_arithmetic():
    config = TrainingConfig(candidates=800, keep_fraction=0.25)
    assert config.keep_count == 200
    _report(8, "800 candidates at keep_fraction 0.25 -> exactly 200 members")


def test_c09_qc_recall_and_interpolation():
    days = make_dates(60, "2020-01-01")
    hours = np.arange(24)
    clean = 1000.0 + 100.0 * np.sin(hours / 24 * 2 * np.pi) + np.zeros((60, 1))
    values = clean.copy()
    rng = np.random.default_rng(9)
    spike_cells = [(2 * k, int(rng.integers(0, 24))) for k in range(20)]
    dip_cells = [(2 * k + 1, int(rng.integers(0, 24))) for k in range(20)]
    for d, h in spike_cells:
        values[d, h] = 8 * clean[d].mean()
    for d, h in dip_cells:
        values[d, h] = 0.03 * clean[d].mean()
    table = WideHourlyTable(days, values, "load")
    _, report = qc_outliers(table)
    found = {(days.index(d), h) for d, h, _ in report.outliers}
    injected = set(spike_cells) | set(dip_cells)
    assert found == injected  # recall 100%, false positives 0

    # withheld cells on within-day linear segments come back exactly
    linear = 200.0 + 3.0 * hours + np.zeros((20, 1))
    withheld = [(k, 3 + k % 20) for k in range(0, 20, 2)]
    holed = linear.copy()
    for d, h in withheld:
        holed[d, h] = np.nan
    filled, fill_report = qc_fill_missing(WideHourlyTable(make_dates(20), holed, "load"))
    assert not fill_report.unresolved
    for d, h in withheld:
        assert filled.values[d, h] == linear[d, h]
    _report(9, f"40/40 injected outliers found, 0 false positives; {len(withheld)} exact refills")


# The c10 search log as the per-combination sweep wrote it; any refactor of
# the search must reproduce every verdict and every statistic.
C10_GOLDEN_LOG = Path(__file__).parent / "data" / "c10_search_log.csv"
_LOG_TEXT_COLUMNS = ("index", "subset", "start", "end", "order", "rule", "status")


def _assert_matches_golden_log(text: str, golden_path: Path) -> None:
    got_reader = csv.DictReader(io.StringIO(text))
    got = list(got_reader)
    with open(golden_path, newline="") as fh:
        want_reader = csv.DictReader(fh)
        want = list(want_reader)
    assert got_reader.fieldnames == want_reader.fieldnames
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key, expected in w.items():
            value = g[key]
            if key in _LOG_TEXT_COLUMNS or expected == "":
                assert value == expected, (w["index"], key, value, expected)
            else:
                assert value != "", (w["index"], key)
                np.testing.assert_allclose(
                    float(value), float(expected), rtol=1e-12, err_msg=f"row {w['index']} {key}"
                )


def test_c10_search_over_seeded_system():
    frame = integrated_levels(16)
    end = frame.dates[-1]
    windows = tuple(
        (frame.dates[0] + dt.timedelta(days=10 * k), end) for k in range(23)
    )
    space = SearchSpace((frame.names,), windows, orders=(1, 2, 3), rules=(1, 2, 3))
    assert space.size() == 207 >= 200
    scoring = ScoringConfig(required_signs=SIGNS5)
    start = time.perf_counter()
    result = run_search(frame, space, scoring)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    chosen = result.chosen
    assert chosen.order == 2  # the generator's order, from candidates {1, 2, 3}
    assert chosen.status == "ok"
    window = frame.slice_dates(*chosen.date_range)
    report = run_diagnostics(
        chosen.model, difference(window), cointegration_ok=True, lb_lags=scoring.lb_lags
    )
    assert report.all_pass(lb_alpha=scoring.lb_alpha, dw_range=scoring.dw_range)
    rejected = [r for r in result.records if r.status != "ok"]
    assert rejected and all(r.status.startswith("failed:") for r in rejected)
    admissible = sum(1 for r in result.records if r.status == "ok")
    _assert_matches_golden_log(search_log_csv(result), C10_GOLDEN_LOG)
    _report(
        10,
        f"207 combinations in {elapsed:.1f}s; order 2 recovered;"
        f" {admissible} admissible, {len(rejected)} rejected with reasons",
    )


def test_c11_ntl_bit_exact_against_brute_force():
    rng = np.random.default_rng(11)
    grid = rng.uniform(0.0, 60.0, (8, 8))
    floor = 10.0
    thresholded = threshold_floor(grid, floor)
    brute_threshold = grid.copy()
    for r in range(8):
        for c in range(8):
            if brute_threshold[r, c] < floor:
                brute_threshold[r, c] = 0.0
    assert np.array_equal(thresholded, brute_threshold)

    smoothed = lowpass_5x5(grid)
    assert np.array_equal(smoothed, brute_lowpass(grid))
    _report(11, "threshold and 5x5 low-pass bit-exact vs double-loop oracle on 8x8")


class _Determinism:
    """Rerun one CLI command twice and demand identical output digests."""

    @staticmethod
    def run_twice(argv_without_out, out_a, out_b, expect=0):
        assert main(argv_without_out + ["--out", str(out_a)]) == expect
        assert main(argv_without_out + ["--out", str(out_b)]) == expect
        digests_a = json.loads((out_a / MANIFEST_NAME).read_text())["outputs"]
        digests_b = json.loads((out_b / MANIFEST_NAME).read_text())["outputs"]
        assert digests_a and digests_a == digests_b
        # every file a run wrote is in its digest map, and nothing else is
        for out, digests in ((out_a, digests_a), (out_b, digests_b)):
            written = {
                str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()
            } - {MANIFEST_NAME}
            assert written == set(digests)
        return digests_a


# c12's output digests as one version wrote them, with the numeric stack they
# were frozen on; a change that moves output bits re-freezes this file and
# says which outputs moved and why.
GOLDEN_OUTPUTS = Path(__file__).parent / "data" / "golden_outputs.json"


def _openblas_core(package) -> str:
    """The kernel family the OpenBLAS bundled in ``package``'s wheel chose for
    this CPU; it decides GEMM rounding (numpy's) and LAPACK rounding (scipy's)."""
    root = Path(package.__file__).parent
    found = [*root.parent.glob(f"{root.name}.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for path in sorted(found):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_char_p
                    return get().decode()
    return "unknown"


def numeric_stack() -> dict:
    """The libraries, and the BLAS kernels, whose arithmetic decides the output bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_core": _openblas_core(np),
        "scipy_blas_core": _openblas_core(scipy),
    }


def c12_digests(tmp_path) -> dict[str, dict[str, str]]:
    """Run each of the nine commands twice, and ``qc-report`` twice more on a
    table it repairs; their rerun-equal output digests.

    ``scripts/freeze_golden.py`` writes this map to ``GOLDEN_OUTPUTS``.
    """
    digests = {}

    # ingest + qc-report
    days = make_dates(8, "2020-01-01")
    lines = ["day,h,mw"]
    for d in days:
        for h in range(24):
            lines.append(f"{d.isoformat()},{h},{1000 + 40 * np.sin(h / 24 * 2 * np.pi):.3f}")
    (tmp_path / "raw.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "s.schema").write_text(
        "name = demo\nkind = load\n"
        "date_column = day\nhour_column = h\nvalue_column = mw\n"
    )
    (tmp_path / "ingest.cfg").write_text(
        "source.load.data = raw.csv\nsource.load.schema = s.schema\n"
    )
    digests["ingest"] = _Determinism.run_twice(
        ["ingest", "--config", str(tmp_path / "ingest.cfg")], tmp_path / "in_a", tmp_path / "in_b"
    )

    write_wide_csv(
        WideHourlyTable(days, np.full((8, 24), 500.0), "load"), tmp_path / "wide.csv"
    )
    (tmp_path / "qc.cfg").write_text("table = wide.csv\nkind = load\n")
    digests["qc-report"] = _Determinism.run_twice(
        ["qc-report", "--config", str(tmp_path / "qc.cfg")], tmp_path / "qc_a", tmp_path / "qc_b"
    )

    # qc-report with repairs: an outlier and a lone gap interpolated, a run from the backup
    hours = np.arange(24)
    wide = 500 + 20 * np.sin(hours / 24 * 2 * np.pi) + 3.0 * np.arange(8)[:, None]
    wide[1, 6] = 4000.0
    wide[3, 0] = np.nan  # across midnight from 2020-01-03
    wide[5, 2:6] = np.nan
    write_wide_csv(WideHourlyTable(days, wide, "load"), tmp_path / "repairs.csv")
    backup = 450 + 10 * np.cos(hours / 24 * 2 * np.pi) + np.zeros((8, 1))
    write_wide_csv(WideHourlyTable(days, backup, "load"), tmp_path / "repairs_backup.csv")
    (tmp_path / "qr.cfg").write_text(
        "table = repairs.csv\nkind = load\nbackup = repairs_backup.csv\n"
    )
    digests["qc-repairs"] = _Determinism.run_twice(
        ["qc-report", "--config", str(tmp_path / "qr.cfg")], tmp_path / "qr_a", tmp_path / "qr_b"
    )

    # trend
    ramp = np.concatenate([np.full(40, 90.0), np.linspace(90, 60, 15), np.full(45, 60.0)])
    season = 4 * np.sin(np.arange(100) / 7 * 2 * np.pi)
    write_series_csv(
        TimeSeriesFrame(make_dates(100), ("demand",), (ramp + season).reshape(-1, 1)),
        tmp_path / "trend.csv",
    )
    (tmp_path / "trend.cfg").write_text("series = trend.csv\ncolumn = demand\n")
    digests["trend"] = _Determinism.run_twice(
        ["trend", "--config", str(tmp_path / "trend.cfg")], tmp_path / "tr_a", tmp_path / "tr_b"
    )

    # analyze / search share a fixture; analyze output feeds irf/fevd
    levels = driver_levels(np.random.default_rng(3), 360, ("y", "u", "v"), "2019-01-01")
    write_series_csv(levels, tmp_path / "levels.csv")
    (tmp_path / "an.cfg").write_text(
        "series = levels.csv\ntarget = y\norders = 1,2\nrules = 1,3\nsign.u = 1\n"
    )
    digests["analyze"] = _Determinism.run_twice(
        ["analyze", "--config", str(tmp_path / "an.cfg")], tmp_path / "an_a", tmp_path / "an_b"
    )
    digests["search"] = _Determinism.run_twice(
        ["search", "--config", str(tmp_path / "an.cfg")], tmp_path / "se_a", tmp_path / "se_b"
    )

    model_path = tmp_path / "an_a" / "model.json"
    (tmp_path / "irf.cfg").write_text(f"model = {model_path}\nshock = u\nhorizon = 10\n")
    digests["irf"] = _Determinism.run_twice(
        ["irf", "--config", str(tmp_path / "irf.cfg")], tmp_path / "ir_a", tmp_path / "ir_b"
    )
    (tmp_path / "fevd.cfg").write_text(f"model = {model_path}\nhorizon = 10\nvariable = y\n")
    digests["fevd"] = _Determinism.run_twice(
        ["fevd", "--config", str(tmp_path / "fevd.cfg")], tmp_path / "fe_a", tmp_path / "fe_b"
    )

    # ntl
    grid = np.random.default_rng(7).uniform(0, 60, (8, 8))
    flags = np.zeros((8, 8))
    flags[2, 5] = 1
    write_grid(tmp_path / "g.txt", grid)
    write_grid(tmp_path / "f.txt", flags)
    write_grid(tmp_path / "a.txt", np.full((8, 8), 0.4))
    write_metadata(
        tmp_path / "m.txt",
        {"flags_grid": "f.txt", "lunar_angle_grid": "a.txt", "lunar_fraction": 0.6},
    )
    (tmp_path / "ntl.cfg").write_text("grid = g.txt\nmetadata = m.txt\n")
    digests["ntl"] = _Determinism.run_twice(
        ["ntl", "--config", str(tmp_path / "ntl.cfg")], tmp_path / "nt_a", tmp_path / "nt_b"
    )

    # backcast, smallest viable training set (full-year month coverage)
    bdays = make_dates(480, "2019-01-01")
    final_april = _write_backcast_fixture(tmp_path, bdays)
    (tmp_path / "bc.cfg").write_text(
        "load = load.csv\nweather.temperature = temp.csv\nweather.humidity = hum.csv\n"
        "weather.wind = wind.csv\ngdp = 1.0\n"
        "train_start = 2019-01-01\ntrain_end = 2019-12-31\n"
        f"eval_start = {final_april}-03-01\neval_end = {final_april}-04-15\n"
        f"summary_month = {final_april}-03\ncandidates = 6\nkeep_fraction = 0.5\nepochs = 40\n"
    )
    digests["backcast"] = _Determinism.run_twice(
        ["backcast", "--config", str(tmp_path / "bc.cfg"), "--seed", "3"],
        tmp_path / "bc_a",
        tmp_path / "bc_b",
    )
    return digests


def test_c12_cli_determinism(tmp_path):
    digests = c12_digests(tmp_path)
    assert len(digests) == 10  # the nine commands, and qc-report once more with repairs
    golden = json.loads(GOLDEN_OUTPUTS.read_text())
    stack = numeric_stack()
    if golden["stack"] == stack:
        assert digests == golden["outputs"]
        versus = "and equal to the golden digests"
    else:
        versus = f"(golden digests not compared: frozen on {golden['stack']}, running on {stack})"
    _report(12, f"identical rerun digests for all commands: {', '.join(digests)} {versus}")


def test_c13_real_data_reproduction():
    pytest.skip(
        "criterion 13 SKIP: optional real-data check needs network access to the"
        " public data hub; explicitly not a merge gate"
    )
