"""End-to-end command-line tests: exit codes, outputs, manifests, determinism."""

import datetime as dt
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridgap
from gridgap.backcast import training_threads
from gridgap.cli import MANIFEST_NAME, sha256_file
from gridgap.cli.main import main
from gridgap.frames import TimeSeriesFrame
from gridgap.ingest import WideHourlyTable, read_wide_csv, write_series_csv, write_wide_csv
from gridgap.ntl import read_grid, write_grid, write_metadata
from gridgap.rvar import fit_restricted_var, load_model, save_model, simulate_var

from conftest import make_dates


def read_manifest_outputs(out_dir):
    payload = json.loads((out_dir / MANIFEST_NAME).read_text())
    return payload["outputs"]


def integrated_csv(path, seed=3, steps=360):
    """Three cointegration-free integrated series whose differences are VAR(1)."""
    rng = np.random.default_rng(seed)
    a1 = np.array([[0.3, 0.35, -0.25], [0.0, 0.4, 0.2], [0.0, 0.1, 0.3]])
    x = np.zeros((steps + 120, 3))
    for t in range(1, steps + 120):
        x[t] = a1 @ x[t - 1] + rng.normal(0, 1, 3)
    levels = np.cumsum(x[120:], axis=0) + np.array([800.0, 60.0, 40.0])
    frame = TimeSeriesFrame(make_dates(steps, "2019-01-01"), ("y", "u", "v"), levels)
    write_series_csv(frame, path)
    return frame


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 1

    def test_missing_config_flag(self):
        assert main(["trend"]) == 1

    def test_config_file_absent(self, tmp_path, capsys):
        assert main(["trend", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_empty_config(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# only a comment\n")
        assert main(["trend", "--config", str(cfg)]) == 1

    def test_bad_jobs_value(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("series = missing.csv\n")
        assert main(["trend", "--config", str(cfg), "--jobs", "0"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs import time and resident memory; gridgap needs only scipy.special
        src = os.path.dirname(os.path.dirname(gridgap.__file__))
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        code = "import sys, gridgap.cli.main; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"


class TestIngest:
    def build(self, tmp_path, with_backup=False, gap_hours=(5,)):
        days = make_dates(10, "2020-01-01")
        lines = ["day,h,mw"]
        for d in days:
            for h in range(24):
                if d == days[3] and h in gap_hours:
                    continue
                v = 1000 + 50 * np.sin(h / 24 * 2 * np.pi)
                if d == days[2] and h == 7:
                    v *= 9  # spike well above 5x the daily mean
                lines.append(f"{d.isoformat()},{h},{v:.3f}")
        (tmp_path / "raw.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "load.schema").write_text(
            "name = demo\nkind = load\nfield = load\nlocation = all\n"
            "date_column = day\nhour_column = h\nvalue_column = mw\n"
        )
        cfg = "source.load.data = raw.csv\nsource.load.schema = load.schema\n"
        if with_backup:
            blines = ["day,h,mw"]
            for d in days:
                for h in range(24):
                    blines.append(f"{d.isoformat()},{h},{900.0}")
            (tmp_path / "backup.csv").write_text("\n".join(blines) + "\n")
            cfg += "backup.load.data = backup.csv\nbackup.load.schema = load.schema\n"
        (tmp_path / "ingest.cfg").write_text(cfg)
        return tmp_path / "ingest.cfg"

    def test_clean_run(self, tmp_path):
        cfg = self.build(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        table = read_wide_csv(out / "load.wide.csv", "load")
        assert len(table.dates) == 10
        assert not table.missing_cells()
        qc = (out / "load.qc.txt").read_text()
        assert qc.startswith("# qc-report/1")
        # spike flagged then refilled, plus the injected gap
        assert sum(1 for line in qc.splitlines() if line.startswith("outlier,")) == 1
        assert sum(1 for line in qc.splitlines() if line.startswith("fill,")) == 2

    def test_manifest_digests_match_files(self, tmp_path):
        cfg = self.build(tmp_path)
        out = tmp_path / "out"
        main(["ingest", "--config", str(cfg), "--out", str(out)])
        payload = json.loads((out / MANIFEST_NAME).read_text())
        assert payload["command"] == "ingest"
        assert payload["seed"] == 0
        assert str(tmp_path / "raw.csv") in payload["inputs"]
        for name, digest in payload["outputs"].items():
            assert sha256_file(out / name) == digest

    def test_unresolved_run_exits_two(self, tmp_path):
        cfg = self.build(tmp_path, gap_hours=(5, 6, 7))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unresolved," in (out / "load.qc.txt").read_text()
        assert (out / MANIFEST_NAME).exists()  # outputs still written

    def test_backup_resolves_run(self, tmp_path):
        cfg = self.build(tmp_path, with_backup=True, gap_hours=(5, 6, 7))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        table = read_wide_csv(out / "load.wide.csv", "load")
        assert table.values[3, 6] == 900.0

    def test_missing_data_file(self, tmp_path, capsys):
        (tmp_path / "ingest.cfg").write_text("source.x.data = gone.csv\nsource.x.schema = s\n")
        assert main(["ingest", "--config", str(tmp_path / "ingest.cfg")]) == 1
        assert "gone.csv" in capsys.readouterr().err


class TestQcReport:
    def test_gappy_table_exits_two(self, tmp_path):
        vals = np.full((6, 24), 500.0)
        vals[2, 10:14] = np.nan
        write_wide_csv(WideHourlyTable(make_dates(6), vals, "load"), tmp_path / "t.csv")
        (tmp_path / "qc.cfg").write_text("table = t.csv\nkind = load\n")
        out = tmp_path / "out"
        assert main(["qc-report", "--config", str(tmp_path / "qc.cfg"), "--out", str(out)]) == 2
        report = (out / "qc_report.txt").read_text()
        assert report.count("unresolved,") == 4

    def test_clean_table_exits_zero(self, tmp_path):
        vals = np.full((6, 24), 500.0)
        write_wide_csv(WideHourlyTable(make_dates(6), vals, "load"), tmp_path / "t.csv")
        (tmp_path / "qc.cfg").write_text("table = t.csv\nkind = load\n")
        out = tmp_path / "out"
        assert main(["qc-report", "--config", str(tmp_path / "qc.cfg"), "--out", str(out)]) == 0
        cleaned = read_wide_csv(out / "cleaned.wide.csv", "load")
        assert np.array_equal(cleaned.values, vals)


class TestTrend:
    def test_transition_window(self, tmp_path):
        n = 120
        ramp = np.concatenate([np.full(50, 100.0), np.linspace(100, 60, 20), np.full(50, 60.0)])
        season = 5 * np.sin(np.arange(n) / 7 * 2 * np.pi)
        frame = TimeSeriesFrame(make_dates(n), ("demand",), (ramp + season).reshape(-1, 1))
        write_series_csv(frame, tmp_path / "s.csv")
        (tmp_path / "t.cfg").write_text("series = s.csv\ncolumn = demand\n")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(tmp_path / "t.cfg"), "--out", str(out)]) == 0
        kv = dict(
            line.split(" = ") for line in (out / "transition.txt").read_text().splitlines()
        )
        begin = dt.date.fromisoformat(kv["begin"])
        end = dt.date.fromisoformat(kv["end"])
        assert frame.dates[40] <= begin <= frame.dates[60]
        assert frame.dates[60] <= end <= frame.dates[80]
        assert kv["degenerate"] == "false"
        rows = (out / "trend.csv").read_text().splitlines()
        assert rows[0] == "date,demand,trend"
        assert len(rows) == n + 1
        assert (out / "trend.svg").read_text().startswith("<svg")


class TestAnalyze:
    @pytest.fixture()
    def cfg(self, tmp_path):
        integrated_csv(tmp_path / "levels.csv")
        (tmp_path / "a.cfg").write_text(
            "series = levels.csv\ntarget = y\norders = 1,2\nrules = 1,3\nsign.u = 1\n"
        )
        return tmp_path / "a.cfg"

    def test_full_outputs(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        for name in (
            "search_log.csv",
            "model.json",
            "diagnostics.txt",
            "irf.csv",
            "irf.svg",
            "fevd.csv",
            "fevd.svg",
        ):
            assert (out / name).exists(), name
        model = load_model(out / "model.json")
        assert model.names == ("y", "u", "v")
        diag = (out / "diagnostics.txt").read_text()
        assert "stable = True" in diag
        assert "explainable_rate = " in diag

    def test_fevd_rows_sum_to_one(self, cfg, tmp_path):
        out = tmp_path / "out"
        main(["analyze", "--config", str(cfg), "--out", str(out)])
        rows = (out / "fevd.csv").read_text().splitlines()
        assert rows[0] == "horizon,variable,share:y,share:u,share:v"
        assert len(rows) == 1 + 10 * 3
        for row in rows[1:]:
            parts = row.split(",")
            assert abs(sum(float(x) for x in parts[2:]) - 1) < 1e-9

    def test_irf_impact_rows(self, cfg, tmp_path):
        out = tmp_path / "out"
        main(["analyze", "--config", str(cfg), "--out", str(out)])
        rows = [r.split(",") for r in (out / "irf.csv").read_text().splitlines()]
        assert rows[0] == ["shock", "step", "y", "u", "v"]
        impact = {r[0]: r for r in rows[1:] if r[1] == "0"}
        assert float(impact["u"][3]) == 1.0 and float(impact["u"][2]) == 0.0
        assert float(impact["v"][4]) == 1.0

    def test_rerun_digests_identical(self, cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--config", str(cfg), "--out", str(out_a)])
        main(["analyze", "--config", str(cfg), "--out", str(out_b)])
        assert read_manifest_outputs(out_a) == read_manifest_outputs(out_b)

    def test_env_out_dir_and_flag_precedence(self, cfg, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("GRIDGAP_OUT", str(env_dir))
        main(["search", "--config", str(cfg)])
        assert (env_dir / "model.json").exists()
        flag_dir = tmp_path / "flag_out"
        main(["search", "--config", str(cfg), "--out", str(flag_dir)])
        assert (flag_dir / "model.json").exists()
        assert read_manifest_outputs(env_dir) == read_manifest_outputs(flag_dir)


class TestSearch:
    def test_search_writes_log_and_model_only(self, tmp_path):
        integrated_csv(tmp_path / "levels.csv")
        (tmp_path / "s.cfg").write_text("series = levels.csv\ntarget = y\norders = 1\nrules = 1\n")
        out = tmp_path / "out"
        assert main(["search", "--config", str(tmp_path / "s.cfg"), "--out", str(out)]) == 0
        assert (out / "search_log.csv").exists()
        assert (out / "model.json").exists()
        assert not (out / "diagnostics.txt").exists()
        log = (out / "search_log.csv").read_text().splitlines()
        assert log[1].split(",")[6] == "ok"

    def test_no_admissible_model_exits_three(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        levels = rng.normal(0, 5, (200, 3)) + [500.0, 50.0, 30.0]
        frame = TimeSeriesFrame(make_dates(200), ("y", "u", "v"), levels)
        write_series_csv(frame, tmp_path / "white.csv")
        (tmp_path / "s.cfg").write_text("series = white.csv\norders = 1,2\nrules = 1\n")
        out = tmp_path / "out"
        assert main(["search", "--config", str(tmp_path / "s.cfg"), "--out", str(out)]) == 3
        rows = (out / "failures.csv").read_text().splitlines()
        assert rows[0] == "index,status"
        assert len(rows) == 3  # two orders, one rule, one window
        assert all(row.split(",")[1] == "failed:cointegration" for row in rows[1:])
        assert not (out / "model.json").exists()
        assert (out / MANIFEST_NAME).exists()

    def test_jobs_env_matches_serial(self, tmp_path, monkeypatch):
        integrated_csv(tmp_path / "levels.csv")
        (tmp_path / "s.cfg").write_text("series = levels.csv\ntarget = y\norders = 1,2\n")
        serial = tmp_path / "serial"
        main(["search", "--config", str(tmp_path / "s.cfg"), "--out", str(serial)])
        monkeypatch.setenv("GRIDGAP_JOBS", "2")
        parallel = tmp_path / "parallel"
        main(["search", "--config", str(tmp_path / "s.cfg"), "--out", str(parallel)])
        assert read_manifest_outputs(serial) == read_manifest_outputs(parallel)
        payload = json.loads((parallel / MANIFEST_NAME).read_text())
        assert payload["jobs"] == 2


class TestIrfFevdCommands:
    @pytest.fixture()
    def model_path(self, tmp_path):
        a1 = np.array([[0.5, 0.2], [0.0, 0.3]])
        values = simulate_var(
            np.array([a1]), np.zeros(2), np.eye(2), 400, np.random.default_rng(11)
        )
        frame = TimeSeriesFrame(make_dates(400), ("y", "x"), values)
        model = fit_restricted_var(frame, 1)
        path = tmp_path / "model.json"
        save_model(model, path)
        return path

    def test_irf_csv(self, tmp_path, model_path):
        (tmp_path / "i.cfg").write_text(f"model = {model_path}\nshock = x\nhorizon = 6\n")
        out = tmp_path / "out"
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(out)]) == 0
        rows = (out / "irf.csv").read_text().splitlines()
        assert rows[0] == "shock,step,y,x"
        assert len(rows) == 8
        assert rows[1].split(",")[1:] == ["0", "0.0", "1.0"]

    def test_irf_cumulative(self, tmp_path, model_path):
        (tmp_path / "i.cfg").write_text(
            f"model = {model_path}\nshock = x\nhorizon = 6\ncumulative = true\n"
        )
        out = tmp_path / "out"
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "irf.csv").read_text().splitlines()[1:]]
        running = [float(r[3]) for r in rows]
        assert running == sorted(running)  # positive AR coefficients accumulate

    def test_irf_unknown_shock(self, tmp_path, model_path, capsys):
        (tmp_path / "i.cfg").write_text(f"model = {model_path}\nshock = nope\n")
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(tmp_path)]) == 1

    def test_fevd_with_ordering(self, tmp_path, model_path):
        (tmp_path / "f.cfg").write_text(
            f"model = {model_path}\nhorizon = 5\nvariable = y\nordering = x,y\n"
        )
        out = tmp_path / "out"
        assert main(["fevd", "--config", str(tmp_path / "f.cfg"), "--out", str(out)]) == 0
        rows = (out / "fevd.csv").read_text().splitlines()
        assert len(rows) == 1 + 5 * 2
        for row in rows[1:]:
            assert abs(sum(float(x) for x in row.split(",")[2:]) - 1) < 1e-9
        assert (out / "fevd.svg").read_text().startswith("<svg")


class TestNtl:
    def build(self, tmp_path):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0, 60, (8, 8))
        flags = np.zeros((8, 8))
        flags[3, 3] = 1
        write_grid(tmp_path / "g.txt", grid)
        write_grid(tmp_path / "f.txt", flags)
        write_grid(tmp_path / "a.txt", np.full((8, 8), 0.3))
        write_metadata(
            tmp_path / "m.txt",
            {"flags_grid": "f.txt", "lunar_angle_grid": "a.txt", "lunar_fraction": 0.5},
        )
        (tmp_path / "n.cfg").write_text("grid = g.txt\nmetadata = m.txt\nfloor = 5\n")
        return tmp_path / "n.cfg"

    def test_pipeline_outputs(self, tmp_path):
        cfg = self.build(tmp_path)
        out = tmp_path / "out"
        assert main(["ntl", "--config", str(cfg), "--out", str(out)]) == 0
        processed = read_grid(out / "processed.grid.txt")
        assert processed.shape == (8, 8)
        assert np.all(processed >= 0)
        report = (out / "ntl_report.txt").read_text()
        assert "repaired = 1" in report
        assert "repaired,3,3" in report
        assert "colormap = viridis" in report

    def test_rerun_digest_identical(self, tmp_path):
        cfg = self.build(tmp_path)
        out_a, out_b = tmp_path / "a_out", tmp_path / "b_out"
        main(["ntl", "--config", str(cfg), "--out", str(out_a)])
        main(["ntl", "--config", str(cfg), "--out", str(out_b)])
        assert read_manifest_outputs(out_a) == read_manifest_outputs(out_b)


class TestBackcast:
    def build(self, tmp_path, drop_month=(2021, 3), rate=0.10):
        days = make_dates(821, "2019-01-01")
        rng = np.random.default_rng(5)
        doy = np.array([d.timetuple().tm_yday for d in days])
        hours = np.arange(24)
        temp = 15 + 10 * np.sin((doy[:, None] - 100) / 365 * 2 * np.pi) + 4 * np.sin(
            hours / 24 * 2 * np.pi
        )
        hum = 60 + 20 * np.cos(doy[:, None] / 365 * 2 * np.pi) + 0.0 * hours
        wind = np.abs(8 + 3 * np.sin(doy[:, None] / 23) + 0.0 * hours)
        base = 900 + 120 * np.cos((doy - 30) / 365 * 2 * np.pi)
        weekend = np.array([0.93 if d.weekday() >= 5 else 1.0 for d in days])
        load = base[:, None] * weekend[:, None] * (1 + 0.08 * np.sin(hours / 24 * 2 * np.pi))
        load = load + rng.normal(0, 4, load.shape)
        dropped = np.array([(d.year, d.month) == drop_month for d in days])
        load[dropped] *= 1 - rate
        for name, arr, kind in (
            ("load", load, "load"),
            ("temp", temp + 0 * load, "temperature"),
            ("hum", hum + 0 * load, "humidity"),
            ("wind", wind + 0 * load, "wind"),
        ):
            write_wide_csv(WideHourlyTable(days, np.asarray(arr, float), kind), tmp_path / f"{name}.csv")
        (tmp_path / "b.cfg").write_text(
            "load = load.csv\nweather.temperature = temp.csv\nweather.humidity = hum.csv\n"
            "weather.wind = wind.csv\ngdp = 1.0\n"
            "train_start = 2019-01-01\ntrain_end = 2020-12-31\n"
            "eval_start = 2021-01-01\neval_end = 2021-03-31\nsummary_month = 2021-03\n"
            "candidates = 8\nkeep_fraction = 0.5\nepochs = 100\n"
        )
        return tmp_path / "b.cfg"

    def test_recovers_injected_drop(self, tmp_path):
        cfg = self.build(tmp_path)
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().strip()
        assert summary.startswith("Average in March: ")
        rate = float(summary.split(": ")[1].split("%")[0])
        assert abs(rate - 10.0) < 2.5
        rows = (out / "reduction.csv").read_text().splitlines()
        assert rows[0] == "date,point,q10,q25,q75,q90"
        assert len(rows) == 1 + 90
        payload = json.loads((out / MANIFEST_NAME).read_text())
        assert payload["seed"] == 3

    def test_saved_ensemble_reproduces_reduction(self, tmp_path):
        cfg = self.build(tmp_path)
        out = tmp_path / "out"
        main(["backcast", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        (tmp_path / "b2.cfg").write_text(
            "load = load.csv\nweather.temperature = temp.csv\nweather.humidity = hum.csv\n"
            f"weather.wind = wind.csv\ngdp = 1.0\nensemble = {out / 'ensemble.json'}\n"
            "eval_start = 2021-01-01\neval_end = 2021-03-31\nsummary_month = 2021-03\n"
        )
        out2 = tmp_path / "out2"
        assert main(["backcast", "--config", str(tmp_path / "b2.cfg"), "--out", str(out2)]) == 0
        assert sha256_file(out / "reduction.csv") == sha256_file(out2 / "reduction.csv")
        assert sha256_file(out / "ensemble.json") == sha256_file(out2 / "ensemble.json")

    def test_manifest_records_threads_and_jobs_keep_digests(self, tmp_path):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("epochs = 100", "epochs = 20"))
        runs = {}
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            args = ["backcast", "--config", str(cfg), "--jobs", str(jobs), "--out", str(out)]
            assert main(args) == 0
            runs[jobs] = json.loads((out / MANIFEST_NAME).read_text())
        assert runs[1]["outputs"] == runs[3]["outputs"]
        for jobs, payload in runs.items():
            threads, budget = training_threads(8, jobs)
            assert payload["details"] == {"training_threads": threads, "blas_budget": budget}
        assert runs[3]["details"]["training_threads"] == 3

    def test_gdp_scalar_and_steps_conflict(self, tmp_path):
        cfg = self.build(tmp_path)
        text = cfg.read_text() + "gdp.2021-01 = 1.05\n"
        cfg.write_text(text)
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_summary_month_without_coverage(self, tmp_path):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("summary_month = 2021-03", "summary_month = 2021-07"))
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
