"""End-to-end command-line tests: exit codes, outputs, manifests, determinism."""

import ast
import datetime as dt
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridgap
from gridgap.backcast import ensemble as ensemble_module
from gridgap.backcast import training_workers
from gridgap.cli import manifest as manifest_module
from gridgap.cli import MANIFEST_NAME, sha256_file
from gridgap.cli.main import main
from gridgap.frames import TimeSeriesFrame
from gridgap.ingest import WideHourlyTable, read_wide_csv, write_series_csv, write_wide_csv
from gridgap.ntl import read_grid, write_grid, write_metadata
from gridgap.rvar import (
    DiagnosticsReport,
    RVarModel,
    fit_restricted_var,
    load_model,
    save_model,
    zero_mask,
)

from conftest import make_dates, src_env
from helpers import (
    as_format_1,
    drop_last_row,
    negate_shape,
    simulate_var,
    spoil_base64,
    truncate_f8,
)
from make_synthetic import driver_levels
from test_acceptance import c12_digests

main_module = importlib.import_module("gridgap.cli.main")  # gridgap.cli.main is also the function


def read_manifest_outputs(out_dir):
    payload = json.loads((out_dir / MANIFEST_NAME).read_text())
    return payload["outputs"]


def modules_naming(identifier: str) -> set[str]:
    """The modules of the package, as paths under it, whose code names
    ``identifier``: as a name, an attribute, an import or a definition."""
    package = Path(gridgap.__file__).parent
    naming = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if identifier in {getattr(node, k, None) for k in ("id", "attr", "name")}:
                naming.add(path.relative_to(package).as_posix())
    return naming


def integrated_csv(path, seed=3, steps=360):
    """Three cointegration-free integrated series whose differences are VAR(1)."""
    frame = driver_levels(np.random.default_rng(seed), steps, ("y", "u", "v"), "2019-01-01")
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

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"series = s.csv\ncolumn = \xff\n")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (byte 24)\n"
        assert not out.exists()

    def test_bad_jobs_value(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("series = missing.csv\n")
        assert main(["trend", "--config", str(cfg), "--jobs", "0"]) == 1

    @pytest.mark.parametrize(
        "command",
        ["ingest", "qc-report", "backcast", "analyze", "irf", "fevd", "search", "trend", "ntl"],
    )
    def test_config_error_exits_one_without_manifest(self, tmp_path, command, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("x = 1\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_failed_runs_make_no_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GRIDGAP_OUT", raising=False)
        monkeypatch.delenv("GRIDGAP_JOBS", raising=False)
        (tmp_path / "c.cfg").write_text("series = missing.csv\n")
        (tmp_path / "empty.cfg").write_text("# only a comment\n")
        (tmp_path / "x.cfg").write_text("x = 1\n")
        for argv in (
            ["trend", "--config", "c.cfg", "--jobs", "0"],
            ["trend", "--config", "c.cfg"],
            ["trend", "--config", "empty.cfg"],
            ["trend", "--config", "nope.cfg"],
            ["backcast", "--config", "x.cfg"],
        ):
            assert main(argv) == 1, argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "empty.cfg", "x.cfg"]

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_import_leaves_scipy_unloaded(self):
        # scipy costs import time and resident memory; it loads on the first statistic
        code = (
            "import sys, gridgap.cli.main\n"
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_commands_without_a_statistic_load_no_scipy(self, tmp_path):
        # only search and analyze run a statistic; the other seven never load scipy
        scripts = Path(__file__).resolve().parent.parent / "scripts"
        demo = tmp_path / "demo"
        subprocess.run(
            [sys.executable, str(scripts / "make_synthetic.py"), "--out", str(demo)],
            env=src_env(),
            capture_output=True,
            check=True,
        )
        backcast = (demo / "backcast.cfg").read_text()
        two = backcast.replace("candidates = 80", "candidates = 2").replace("epochs = 150", "epochs = 5")
        assert "candidates = 2" in two and "epochs = 5" in two
        (demo / "two.cfg").write_text(two)
        a1 = np.array([[0.5, 0.2], [0.0, 0.3]])
        values = simulate_var(
            np.array([a1]), np.zeros(2), np.eye(2), 200, np.random.default_rng(11)
        )
        frame = TimeSeriesFrame(make_dates(200), ("y", "x"), values)
        save_model(fit_restricted_var(frame, 1), demo / "model.json")
        (demo / "irf.cfg").write_text("model = model.json\nshock = x\nhorizon = 6\n")
        (demo / "fevd.cfg").write_text("model = model.json\nhorizon = 6\n")
        runs = [
            ("ingest", "ingest.cfg"),
            ("qc-report", "qc.cfg"),
            ("trend", "trend.cfg"),
            ("ntl", "ntl.cfg"),
            ("backcast", "two.cfg"),
            ("irf", "irf.cfg"),
            ("fevd", "fevd.cfg"),
        ]
        argvs = [
            [command, "--config", str(demo / cfg), "--out", str(tmp_path / command)]
            for command, cfg in runs
        ]
        code = (
            "import json, sys\n"
            "from gridgap.cli.main import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, [m for m in sys.modules if m.partition('.')[0] == 'scipy']]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs)],
            env=src_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        codes, loaded = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0] * len(runs)
        assert loaded == []

    def test_package_runs_as_module_without_scipy(self):
        # -X importtime lists every import on stderr; any other line there is a warning
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-X", "importtime", "-m", "gridgap"]
        done = subprocess.run([*argv, "--help"], env=src_env(), capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: gridgap")
        lines = done.stderr.splitlines()
        assert all(line.startswith("import time:") for line in lines)
        imported = {line.rpartition("|")[2].strip() for line in lines}
        assert "gridgap.cli.main" in imported
        assert [name for name in imported if name.partition(".")[0] == "scipy"] == []

    def test_scipy_is_imported_in_one_module(self):
        # every call into scipy goes through the loader that pins its OpenBLAS
        # before any pool forks; an import anywhere else could load it unpinned
        package = Path(gridgap.__file__).parent
        importing = set()
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.partition(".")[0] == "scipy" for name in names):
                    importing.add(path.relative_to(package).as_posix())
        assert importing == {"rvar/ols.py"}

    def test_readme_python_blocks_run(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, str(readme), "exec"), {})
            # a submodule imported by name also resolves, so check the export list
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and node.module.startswith("gridgap."):
                    exported = importlib.import_module(node.module).__all__
                    for alias in node.names:
                        assert alias.name in exported, f"{node.module}.{alias.name}"

    def test_only_blas_names_a_process_pool(self):
        # a pool started anywhere else could skip the workers' one-thread BLAS pin
        assert modules_naming("ProcessPoolExecutor") == {"blas.py"}

    def test_only_blas_names_one_blas_thread(self):
        # the pool pins numpy's BLAS itself; a caller pinning around it again
        # would split the rule across modules
        assert modules_naming("one_blas_thread") == {"blas.py"}

    @pytest.mark.parametrize(
        "module",
        ["gridgap"] + [f"gridgap.{p}" for p in ("ingest", "rvar", "search", "backcast", "cli")],
    )
    def test_every_export_resolves(self, module):
        package = importlib.import_module(module)
        assert [n for n in package.__all__ if not hasattr(package, n)] == []


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
            "name = demo\nkind = load\n"
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
        assert not np.isnan(table.values).any()
        qc = (out / "load.qc.txt").read_text()
        assert qc.startswith("# qc-report/1")
        # spike flagged then refilled, plus the injected gap
        assert sum(1 for line in qc.splitlines() if line.startswith("outlier,")) == 1
        assert sum(1 for line in qc.splitlines() if line.startswith("fill,")) == 2

    def test_infinite_raw_value_filled_like_a_gap(self, tmp_path):
        cfg = self.build(tmp_path, gap_hours=())
        raw = tmp_path / "raw.csv"
        lines = raw.read_text().splitlines()
        day, hour, _ = lines[1 + 5 * 24 + 10].split(",")
        lines[1 + 5 * 24 + 10] = f"{day},{hour},inf"
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        table = read_wide_csv(out / "load.wide.csv", "load")
        assert np.isfinite(table.values).all()
        qc = (out / "load.qc.txt").read_text().splitlines()
        fills = [line for line in qc if line.startswith("fill,")]
        # the spike's refill plus exactly one fill for the refused cell
        assert len(fills) == 2
        assert sum(line.startswith(f"fill,{day},10,") for line in fills) == 1
        # a refused cell is not a dropped duplicate; it is listed as a reject
        assert "duplicates_dropped = 0" in qc
        assert [line for line in qc if line.startswith("reject,")] == [
            f"reject,{1 + 5 * 24 + 10 + 1},bad value 'inf'"
        ]

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

    def test_minute_source_averaged_per_hour(self, tmp_path):
        days = make_dates(3, "2020-01-01")
        lines = ["day,time,rh"]
        for d in days:
            for h in range(24):
                for minute in (0, 20, 40):
                    lines.append(f"{d.isoformat()},{h:02d}:{minute:02d},{50 + h + minute / 10}")
        (tmp_path / "raw.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "rh.schema").write_text(
            "name = wx\nkind = humidity\n"
            "date_column = day\ntime_column = time\nvalue_column = rh\n"
        )
        (tmp_path / "ingest.cfg").write_text("source.rh.data = raw.csv\nsource.rh.schema = rh.schema\n")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(tmp_path / "ingest.cfg"), "--out", str(out)]) == 0
        table = read_wide_csv(out / "rh.wide.csv", "humidity")
        assert table.dates == days
        assert table.values.tolist() == [[52.0 + h for h in range(24)]] * 3  # mean of h:00, h:20, h:40
        assert "duplicates_dropped = 0" in (out / "rh.qc.txt").read_text().splitlines()

    @pytest.mark.parametrize(
        "name, message",
        [
            ("raw.csv", "source demo: not UTF-8 text"),
            ("load.schema", "load.schema: not UTF-8 text"),
        ],
        ids=["raw-csv", "descriptor"],
    )
    def test_non_utf8_byte_exits_one(self, tmp_path, capsys, name, message):
        cfg = self.build(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"mw", b"m\xff", 1))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_cr_line_endings_ingest_like_lf(self, tmp_path):
        cfg = self.build(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "lf")]) == 0
        raw = tmp_path / "raw.csv"
        raw.write_bytes(raw.read_bytes().replace(b"\n", b"\r"))
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "cr")]) == 0
        assert read_manifest_outputs(tmp_path / "cr") == read_manifest_outputs(tmp_path / "lf")

    def test_cell_over_the_csv_field_limit_exits_one_naming_the_line(self, tmp_path, capsys):
        cfg = self.build(tmp_path)
        raw = tmp_path / "raw.csv"
        lines = raw.read_text().splitlines()
        lines[2] += "9" * 131_072
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: source demo line 3: field larger than field limit (131072)\n"
        )
        assert not out.exists()

    def test_byte_order_mark_ingests_like_plain_text(self, tmp_path):
        cfg = self.build(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"\xef\xbb\xbf" + raw.read_bytes())
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "bom")]) == 0
        for name in ("load.wide.csv", "load.qc.txt"):
            plain, bom = (tmp_path / out / name for out in ("plain", "bom"))
            assert bom.read_bytes() == plain.read_bytes()

    def test_each_raw_file_is_read_right_before_it_is_parsed(self, tmp_path, monkeypatch):
        cfg = self.build(tmp_path, with_backup=True)
        (tmp_path / "raw2.csv").write_bytes((tmp_path / "raw.csv").read_bytes())
        cfg.write_text(
            cfg.read_text() + "source.zz.data = raw2.csv\nsource.zz.schema = load.schema\n"
        )
        events = []
        read_bytes, parse_source = Path.read_bytes, main_module.parse_source

        def read(path):
            if path.suffix == ".csv":
                events.append(f"read {path.name}")
            return read_bytes(path)

        def parse(data, schema):
            events.append("parse")
            return parse_source(data, schema)

        monkeypatch.setattr(Path, "read_bytes", read)
        monkeypatch.setattr(main_module, "parse_source", parse)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # one raw file in memory at a time: source zz is read after load and its backup are parsed
        assert events == [
            "read raw.csv", "parse", "read backup.csv", "parse", "read raw2.csv", "parse"
        ]

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

    def test_backup_read_as_table_kind(self, tmp_path):
        vals = np.full((6, 24), 500.0)
        vals[2, 10:14] = np.nan
        write_wide_csv(WideHourlyTable(make_dates(6), vals, "load"), tmp_path / "t.csv")
        write_wide_csv(
            WideHourlyTable(make_dates(6), np.full((6, 24), 450.0), "load"), tmp_path / "b.csv"
        )
        # the backup is always read as `kind`
        (tmp_path / "qc.cfg").write_text("table = t.csv\nkind = load\nbackup = b.csv\n")
        out = tmp_path / "out"
        assert main(["qc-report", "--config", str(tmp_path / "qc.cfg"), "--out", str(out)]) == 0
        cleaned = read_wide_csv(out / "cleaned.wide.csv", "load")
        assert (cleaned.values[2, 10:14] == 450.0).all()

    def test_non_numeric_cell_exits_one(self, tmp_path, capsys):
        vals = np.full((6, 24), 500.0)
        write_wide_csv(WideHourlyTable(make_dates(6), vals, "load"), tmp_path / "t.csv")
        table = tmp_path / "t.csv"
        table.write_text(table.read_text().replace("500.0", "abc", 1))
        (tmp_path / "qc.cfg").write_text("table = t.csv\nkind = load\n")
        out = tmp_path / "out"
        assert main(["qc-report", "--config", str(tmp_path / "qc.cfg"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {table} line 2: hour 0 is not a number: 'abc'" in err

    @pytest.mark.parametrize("backup", [False, True], ids=["unresolved", "backup"])
    def test_gap_before_a_skipped_stretch_is_not_interpolated(self, tmp_path, backup):
        # hour 23 of 2020-01-01 is empty and the next row is 2020-03-01
        dates = (dt.date(2020, 1, 1), dt.date(2020, 3, 1))
        vals = np.full((2, 24), 100.0)
        vals[0, 23] = np.nan
        vals[1, 0] = 300.0
        write_wide_csv(WideHourlyTable(dates, vals, "load"), tmp_path / "t.csv")
        write_wide_csv(WideHourlyTable(dates, np.full((2, 24), 90.0), "load"), tmp_path / "b.csv")
        cfg = tmp_path / "qc.cfg"
        cfg.write_text("table = t.csv\nkind = load\n" + ("backup = b.csv\n" if backup else ""))
        out = tmp_path / "out"
        assert main(["qc-report", "--config", str(cfg), "--out", str(out)]) == (0 if backup else 2)
        report = (out / "qc_report.txt").read_text()
        want = "fill,2020-01-01,23,backup,90.0" if backup else "unresolved,2020-01-01,23"
        assert want in report.splitlines() and "interpolated" not in report


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

    def test_manifest_keys_inputs_by_normalized_path(self, tmp_path, monkeypatch):
        (tmp_path / "demo").mkdir()
        _trend_input(tmp_path / "demo")
        monkeypatch.chdir(tmp_path)
        inputs = []
        for spelling in ("demo/c.cfg", "./demo/../demo/c.cfg"):
            out = tmp_path / f"out{len(inputs)}"
            assert main(["trend", "--config", spelling, "--out", str(out)]) == 0
            inputs.append(json.loads((out / MANIFEST_NAME).read_text())["inputs"])
        assert inputs[0] == inputs[1]
        assert sorted(inputs[0]) == [os.path.join("demo", "c.cfg"), os.path.join("demo", "s.csv")]

    def test_unknown_column_message_is_printed_as_it_is(self, tmp_path, capsys):
        _trend_input(tmp_path)
        (tmp_path / "c.cfg").write_text("series = s.csv\ncolumn = zz\n")
        out = tmp_path / "out"
        assert main(["trend", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no column named 'zz'; have ('demand',)\n"
        assert not out.exists()


def _trend_input(tmp_path):
    n = 120
    ramp = np.concatenate([np.full(50, 100.0), np.linspace(100, 60, 20), np.full(50, 60.0)])
    frame = TimeSeriesFrame(make_dates(n), ("demand",), ramp.reshape(-1, 1))
    write_series_csv(frame, tmp_path / "s.csv")
    (tmp_path / "c.cfg").write_text("series = s.csv\n")
    return tmp_path / "s.csv"


def _qc_input(tmp_path):
    write_wide_csv(WideHourlyTable(make_dates(6), np.full((6, 24), 500.0), "load"), tmp_path / "t.csv")
    (tmp_path / "c.cfg").write_text("table = t.csv\nkind = load\n")
    return tmp_path / "t.csv"


# commands whose config names one series or wide CSV, and a writer of that input
CSV_INPUTS = {"trend": _trend_input, "qc-report": _qc_input}


@pytest.mark.parametrize("command", CSV_INPUTS)
def test_csv_with_a_non_utf8_byte_exits_one_naming_the_offset(tmp_path, capsys, command):
    path = CSV_INPUTS[command](tmp_path)
    data = path.read_bytes()
    offset = data.rindex(b",") + 1  # the last cell's first byte
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte {offset})\n"
    assert not out.exists()


@pytest.mark.parametrize("command", CSV_INPUTS)
def test_csv_with_a_cell_over_the_field_limit_exits_one_naming_the_line(tmp_path, capsys, command):
    path = CSV_INPUTS[command](tmp_path)
    lines = path.read_text().splitlines()
    lines[3] += "9" * 131_072  # the last cell of line 4
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path} line 4: field larger than field limit (131072)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", CSV_INPUTS)
def test_csv_with_a_byte_order_mark_reads_like_plain_text(tmp_path, command):
    path = CSV_INPUTS[command](tmp_path)
    cfg = str(tmp_path / "c.cfg")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main([command, "--config", cfg, "--out", str(tmp_path / "bom")]) == 0
    assert read_manifest_outputs(tmp_path / "bom") == read_manifest_outputs(tmp_path / "plain")


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

    def test_all_pass_judges_at_the_config_thresholds(self, cfg, tmp_path, monkeypatch):
        cfg.write_text(cfg.read_text() + "adf_alpha = 0.2\nlb_alpha = 0.01\ndw_lo = 1.2\ndw_hi = 2.8\n")
        real = DiagnosticsReport.all_pass
        calls = []

        def spy(report, *args, **kwargs):
            bound = inspect.signature(real).bind(report, *args, **kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments, real(report, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(DiagnosticsReport, "all_pass", spy)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        [(arguments, passes)] = calls
        assert (arguments["adf_alpha"], arguments["lb_alpha"]) == (0.2, 0.01)
        assert arguments["dw_range"] == (1.2, 2.8)
        assert f"all_pass = {passes}" in (out / "diagnostics.txt").read_text()

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

    @pytest.mark.parametrize("subsets", ["y,u,v", "u,y;y,u,v"], ids=["all-others", "one-other"])
    def test_subsets_not_leading_with_target_exit_one(self, tmp_path, capsys, subsets):
        integrated_csv(tmp_path / "levels.csv")
        (tmp_path / "s.cfg").write_text(
            f"series = levels.csv\ntarget = u\nsubsets = {subsets}\norders = 1\nrules = 1\n"
        )
        out = tmp_path / "out"
        assert main(["search", "--config", str(tmp_path / "s.cfg"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: subsets: 'y,u,v' does not lead with target 'u'\n"
        assert not (out / MANIFEST_NAME).exists()

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

    def test_irf_cumulative_refuses_variable(self, tmp_path, model_path, capsys):
        """The cumulative chart shows every variable, so a focus variable would go unread."""
        (tmp_path / "i.cfg").write_text(
            f"model = {model_path}\nshock = x\nvariable = y\ncumulative = true\n"
        )
        out = tmp_path / "out"
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(out)]) == 1
        want = "error: variable: not read with cumulative = true, which charts every variable\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("cumulative", ["false", "true"])
    def test_irf_negative_horizon_exits_one(self, tmp_path, model_path, capsys, cumulative):
        (tmp_path / "i.cfg").write_text(
            f"model = {model_path}\nshock = x\nhorizon = -1\ncumulative = {cumulative}\n"
        )
        out = tmp_path / "out"
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: horizon must be >= 0, got -1\n"
        assert not out.exists()

    def test_irf_unknown_shock(self, tmp_path, model_path, capsys):
        (tmp_path / "i.cfg").write_text(f"model = {model_path}\nshock = nope\n")
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(tmp_path)]) == 1

    @pytest.fixture()
    def explosive_model(self, tmp_path):
        # an explosive root of 2 overflows float64 within 1100 steps
        model = RVarModel(
            ("y", "x"), 1, np.zeros(2), np.array([[[2.0, 0.0], [0.0, 0.5]]]),
            zero_mask(1, 2), np.eye(2),
        )
        save_model(model, tmp_path / "model.json")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes
    def test_irf_overflow_exits_one_without_manifest(self, tmp_path, capsys, explosive_model):
        (tmp_path / "i.cfg").write_text("model = model.json\nshock = y\nhorizon = 1100\n")
        out = tmp_path / "out"
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(out)]) == 1
        assert "error: chart values must be finite" in capsys.readouterr().err
        assert not (out / MANIFEST_NAME).exists()
        assert not (out / "irf.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes
    def test_fevd_overflow_exits_one_without_csv(self, tmp_path, capsys, explosive_model):
        (tmp_path / "f.cfg").write_text("model = model.json\nhorizon = 1100\n")
        out = tmp_path / "out"
        assert main(["fevd", "--config", str(tmp_path / "f.cfg"), "--out", str(out)]) == 1
        assert "error: chart values must be finite" in capsys.readouterr().err
        assert not (out / MANIFEST_NAME).exists()
        assert not (out / "fevd.csv").exists()

    def test_irf_refuses_non_finite_coefficient(self, tmp_path, capsys, model_path):
        payload = json.loads(model_path.read_text())
        payload["coeffs"][0][0][1] = float("nan")
        model_path.write_text(json.dumps(payload))
        (tmp_path / "i.cfg").write_text(f"model = {model_path}\nshock = x\nhorizon = 6\n")
        out = tmp_path / "out"
        assert main(["irf", "--config", str(tmp_path / "i.cfg"), "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_fevd_refuses_repeated_names(self, tmp_path, capsys):
        values = simulate_var(
            np.array([np.diag([0.5, 0.3, 0.2])]), np.zeros(3), np.eye(3), 300,
            np.random.default_rng(5),
        )
        frame = TimeSeriesFrame(make_dates(300), ("load", "mobility", "price"), values)
        save_model(fit_restricted_var(frame, 1), tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["names"] = ["load", "load", "price"]
        (tmp_path / "model.json").write_text(json.dumps(payload))
        (tmp_path / "f.cfg").write_text("model = model.json\nhorizon = 5\n")
        out = tmp_path / "out"
        assert main(["fevd", "--config", str(tmp_path / "f.cfg"), "--out", str(out)]) == 1
        assert "unique and non-empty" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("floor", ["-1", "nan", "inf"])
    def test_floor_outside_zero_to_infinity_exits_one(self, tmp_path, capsys, floor):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("floor = 5", f"floor = {floor}"))
        out = tmp_path / "out"
        assert main(["ntl", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: floor must be nonnegative and finite, got {float(floor)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exits_one(self, tmp_path, capsys, cell):
        cfg = self.build(tmp_path)
        rows = (tmp_path / "g.txt").read_text().splitlines()
        rows[3] = " ".join([cell, *rows[3].split()[1:]])
        (tmp_path / "g.txt").write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["ntl", "--config", str(cfg), "--out", str(out)]) == 1
        path = tmp_path / "g.txt"
        assert capsys.readouterr().err == f"error: {path}: row 3 holds a non-finite cell\n"
        assert not out.exists()

    def test_overflowing_grid_exits_one(self, tmp_path, capsys):
        cfg = self.build(tmp_path)
        write_grid(tmp_path / "g.txt", np.full((8, 8), 1e308))  # the 5x5 sum overflows
        out = tmp_path / "out"
        assert main(["ntl", "--config", str(cfg), "--out", str(out)]) == 1
        message = "processing overflowed to a non-finite intensity"
        assert capsys.readouterr().err == f"error: {tmp_path / 'g.txt'}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["f.txt", "a.txt"], ids=["flags", "angle"])
    def test_sidecar_grid_of_another_shape_exits_one_naming_both_files(
        self, tmp_path, capsys, name
    ):
        cfg = self.build(tmp_path)
        write_grid(tmp_path / name, np.zeros((4, 4)))
        out = tmp_path / "out"
        assert main(["ntl", "--config", str(cfg), "--out", str(out)]) == 1
        grid = tmp_path / "g.txt"
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / name}: shape (4, 4) differs from {grid}'s (8, 8)\n"
        assert not out.exists()

    def test_any_nonzero_flag_marks_pixel_unusable(self, tmp_path):
        cfg = self.build(tmp_path)
        grid = read_grid(tmp_path / "g.txt")
        grid[3, 3] = 999.0
        write_grid(tmp_path / "g.txt", grid)
        flags = np.zeros((8, 8))
        flags[3, 3] = 0.5
        write_grid(tmp_path / "f.txt", flags)
        out = tmp_path / "out"
        assert main(["ntl", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "ntl_report.txt").read_text()
        assert "repaired = 1" in report and "repaired,3,3" in report

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: drop_last_row(payload["models"][0]["layers"][1]["w"]),
            lambda payload: payload["models"][0].update(widths=[1, 2, 3]),
            lambda payload: payload["feature_config"].update(quantile_levels=[0.5]),
            lambda payload: payload["feature_config"]["weather_kinds"].reverse(),
            lambda payload: truncate_f8(payload["models"][0]["layers"][0]["b"]),
            lambda payload: spoil_base64(payload["input_mean"]),
            lambda payload: payload["models"][0]["layers"][2]["w"]["shape"].append(1),
            lambda payload: negate_shape(payload["models"][0]["layers"][1]["w"]),
            lambda payload: payload.update(target_std=float("nan")),
        ],
        ids=[
            "layers_do_not_chain",
            "widths_not_the_layers",
            "other_levels",
            "other_kind_order",
            "truncated_f8",
            "not_base64",
            "shape_not_the_length",
            "negative_dimension",
            "target_std_nan",
        ],
    )
    def test_malformed_saved_ensemble_exits_one(self, tmp_path, capsys, edit):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("epochs = 100", "epochs = 5"))
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 0
        saved = tmp_path / "ensemble.json"
        payload = json.loads((out / "ensemble.json").read_text())
        edit(payload)
        saved.write_text(json.dumps(payload))
        cfg.write_text(cfg.read_text() + "ensemble = ensemble.json\n")
        out2 = tmp_path / "out2"
        capsys.readouterr()
        assert main(["backcast", "--config", str(cfg), "--out", str(out2)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "malformed ensemble" in err
        if payload["feature_config"] != ensemble_module.FEATURE_LAYOUT:
            layouts = f"{payload['feature_config']}, expected {ensemble_module.FEATURE_LAYOUT}"
            assert f"feature layout {layouts}" in err
        assert not out2.exists()

    def test_format_1_ensemble_exits_one(self, tmp_path, capsys):
        """A file of the first format, arrays as JSON decimals, must be retrained."""
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("epochs = 100", "epochs = 5"))
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "ensemble.json").read_text())
        as_format_1(payload)
        (tmp_path / "ensemble.json").write_text(json.dumps(payload))
        cfg.write_text(cfg.read_text() + "ensemble = ensemble.json\n")
        out2 = tmp_path / "out2"
        capsys.readouterr()
        assert main(["backcast", "--config", str(cfg), "--out", str(out2)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'backcast-ensemble/1'" in err and "'backcast-ensemble/2'" in err
        assert not out2.exists()

    def test_saved_ensemble_copied_as_it_is(self, tmp_path):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("epochs = 100", "epochs = 5"))
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 0
        # valid but not as save_ensemble writes it
        indented = json.dumps(json.loads((out / "ensemble.json").read_text()), indent=2)
        (tmp_path / "ensemble.json").write_text(indented)
        cfg.write_text(cfg.read_text() + "ensemble = ensemble.json\n")
        out2 = tmp_path / "out2"
        assert main(["backcast", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out2 / "ensemble.json").read_text() == indented
        assert sha256_file(out / "reduction.csv") == sha256_file(out2 / "reduction.csv")
        outputs = json.loads((out2 / MANIFEST_NAME).read_text())["outputs"]
        assert outputs["ensemble.json"] == sha256_file(tmp_path / "ensemble.json")

    def test_reused_ensemble_is_hashed_from_the_bytes_read(self, tmp_path, monkeypatch):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("epochs = 100", "epochs = 5"))
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        saved = tmp_path / "ensemble.json"
        saved.write_bytes((tmp_path / "out" / "ensemble.json").read_bytes())
        cfg.write_text(cfg.read_text() + "ensemble = ensemble.json\n")
        hashed = []
        sha256_of_file = manifest_module.sha256_file
        monkeypatch.setattr(
            manifest_module, "sha256_file", lambda path: hashed.append(path) or sha256_of_file(path)
        )
        out = tmp_path / "out2"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 0
        assert saved not in hashed  # the output copy is still hashed, once
        inputs = json.loads((out / MANIFEST_NAME).read_text())["inputs"]
        assert inputs[str(saved)] == sha256_file(saved)

    @pytest.mark.parametrize(
        "line, key",
        [
            ("learning_rate = -1", "learning_rate"),
            ("learning_rate = 0", "learning_rate"),
            ("learning_rate = nan", "learning_rate"),
            ("learning_rate = inf", "learning_rate"),
            ("epochs = 0", "epochs"),
        ],
    )
    def test_training_key_out_of_range_exits_one_before_training(
        self, tmp_path, capsys, monkeypatch, line, key
    ):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("epochs = 100", "epochs = 5") + line + "\n")
        monkeypatch.setattr(main_module, "train_ensemble", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, line, message",
        [
            ("hum.csv", 39, " line 40: hour 0 is not a number: 'abc'"),
            ("temp.csv", 0, ": expected header ['date', '0', '1']...,23 got ['date', 'abc', '1', '2']"),
            ("wind.csv", None, " is empty"),
        ],
        ids=["bad-cell", "bad-header", "empty"],
    )
    def test_wide_csv_errors_name_the_file(self, tmp_path, capsys, name, line, message):
        cfg = self.build(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        if line is None:
            lines = []
        else:
            cells = lines[line].split(",")
            cells[1] = "abc"
            lines[line] = ",".join(cells)
        path.write_text("".join(row + "\n" for row in lines))
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("candidates", [2, 8], ids=["one-kept", "four-kept"])
    def test_negative_observed_daily_mean_exits_one_naming_the_date(
        self, tmp_path, capsys, candidates
    ):
        # the refusal holds whatever the number of members kept
        cfg = self.build(tmp_path)
        cfg.write_text(
            cfg.read_text()
            .replace("epochs = 100", "epochs = 5")
            .replace("candidates = 8", f"candidates = {candidates}")
        )
        load = read_wide_csv(tmp_path / "load.csv", "load")
        load.values[load.dates.index(dt.date(2021, 2, 10))] = -1.0
        write_wide_csv(load, tmp_path / "load.csv")
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: negative observed daily mean on 2021-02-10\n"
        assert not (out / MANIFEST_NAME).exists()

    def test_manifest_records_workers_and_jobs_keep_digests(self, tmp_path, monkeypatch):
        # 8 x 20 trains on the pool whatever the start method
        no_threshold = dict.fromkeys(("fork", "forkserver", "spawn"), 0)
        monkeypatch.setattr(ensemble_module, "_POOL_MIN_WORK", no_threshold)
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
            workers, budget = training_workers(8, 20, jobs)
            assert payload["details"] == {"training_workers": workers, "blas_budget": budget}
        assert runs[3]["details"]["training_workers"] == 3

    def test_infinite_load_cell_exits_one(self, tmp_path, capsys):
        cfg = self.build(tmp_path)
        load = tmp_path / "load.csv"
        lines = load.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "inf"
        lines[5] = ",".join(cells)
        load.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "line 6: hour 2 is infinite" in err
        assert not (out / "reduction.csv").exists()

    def test_gdp_scalar_and_steps_conflict(self, tmp_path):
        cfg = self.build(tmp_path)
        text = cfg.read_text() + "gdp.2021-01 = 1.05\n"
        cfg.write_text(text)
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_gdp_step_month_out_of_range(self, tmp_path, capsys):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("gdp = 1.0\n", "gdp.2020-13 = 5\n"))
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "error: gdp.2020-13: month 13 outside 1..12" in capsys.readouterr().err

    def test_summary_month_without_coverage(self, tmp_path):
        cfg = self.build(tmp_path)
        cfg.write_text(cfg.read_text().replace("summary_month = 2021-03", "summary_month = 2021-07"))
        assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("min_days", [0, -2])
    def test_summary_min_days_below_one_exits_one_before_training(
        self, tmp_path, capsys, monkeypatch, min_days
    ):
        # a month without eval days once reached the summary and crashed there
        cfg = self.build(tmp_path)
        text = cfg.read_text().replace("summary_month = 2021-03", "summary_month = 2021-07")
        cfg.write_text(text + f"summary_min_days = {min_days}\n")
        monkeypatch.setattr(main_module, "train_ensemble", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        assert main(["backcast", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: summary_min_days must be >= 1, got {min_days}\n"
        assert not out.exists()


# c12's runs (output directory prefix) and the inputs each records, relative
# to the corpus directory: the config and every file it names, the NTL
# sidecar's two grids included
C12_INPUTS = {
    "in": ("ingest.cfg", "raw.csv", "s.schema"),
    "qc": ("qc.cfg", "wide.csv"),
    "qr": ("qr.cfg", "repairs.csv", "repairs_backup.csv"),
    "tr": ("trend.cfg", "trend.csv"),
    "an": ("an.cfg", "levels.csv"),
    "se": ("an.cfg", "levels.csv"),
    "ir": ("irf.cfg", "an_a/model.json"),
    "fe": ("fevd.cfg", "an_a/model.json"),
    "nt": ("ntl.cfg", "g.txt", "m.txt", "f.txt", "a.txt"),
    "bc": ("bc.cfg", "load.csv", "temp.csv", "hum.csv", "wind.csv"),
}


def test_every_input_is_read_once_and_hashed_from_the_bytes_read(tmp_path, monkeypatch):
    hashed, read = [], []
    sha256_of_file, read_bytes = manifest_module.sha256_file, Path.read_bytes
    monkeypatch.setattr(
        manifest_module, "sha256_file", lambda path: hashed.append(Path(path)) or sha256_of_file(path)
    )
    monkeypatch.setattr(Path, "read_bytes", lambda path: read.append(path) or read_bytes(path))
    c12_digests(tmp_path)
    monkeypatch.undo()
    inputs, outputs = [], []
    for prefix, names in C12_INPUTS.items():
        for out in (tmp_path / f"{prefix}_a", tmp_path / f"{prefix}_b"):
            manifest = json.loads((out / MANIFEST_NAME).read_text())
            # the digest of each file on disk, as a manifest that hashes it from disk records it
            assert manifest["inputs"] == {
                str(tmp_path / name): hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in names
            }, prefix
            inputs += [tmp_path / name for name in names]
            outputs += [out / name for name in manifest["outputs"]]
    # no input is hashed from disk: each output is, once, as its manifest is written
    assert sorted(hashed) == sorted(outputs)
    assert sorted(read) == sorted(inputs)
