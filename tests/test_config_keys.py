"""Key tables: each config, descriptor and sidecar is read by the keys its table lists.

An unknown key ends the run with one ``error:`` line naming its closest
known key; every config, descriptor and sidecar the repository writes
parses against its table; and every key a command reads is a row of its
command's table.
"""

import datetime as dt
import importlib
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gridgap.backcast import TrainingConfig
from gridgap.cli import RunRecorder
from gridgap.cli.main import COMMANDS, main, parse_config
from gridgap.errors import ConfigError
from gridgap.frames import TimeSeriesFrame
from gridgap.ingest import SourceSchema, write_series_csv
from gridgap.ingest.schema import InputFile, read_keyfile
from gridgap.ntl import SIDECAR_KEYS, write_grid

from test_acceptance import c12_digests

ROOT = Path(__file__).resolve().parent.parent
main_module = importlib.import_module("gridgap.cli.main")  # gridgap.cli.main is also the function


def table(command: str) -> dict:
    return COMMANDS[command][2]


def parse(tmp_path, command: str, text: str) -> dict:
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    return parse_config(str(cfg), table(command), RunRecorder(command, tmp_path / "unused"))


# (command, an otherwise complete config, a misspelled key, the key it misspells)
TYPOS = [
    ("ingest", "source.load.data = raw.csv\nsource.load.schema = load.schema\n",
     "source.load.dat = raw.csv", "source.<label>.data"),
    ("qc-report", "table = t.csv\nkind = load\nbackup = b.csv\n", "backup_kind = price", "backup"),
    ("backcast", "load = load.csv\nweather.temperature = t.csv\nweather.humidity = h.csv\n"
     "weather.wind = w.csv\neval_start = 2021-03-01\neval_end = 2021-04-30\n"
     "train_start = 2019-01-01\ntrain_end = 2021-02-28\n", "candiates = 4", "candidates"),
    ("analyze", "series = levels.csv\norders = 1,2\n", "targte = y", "target"),
    ("irf", "model = model.json\nshock = x\n", "horzion = 6", "horizon"),
    ("fevd", "model = model.json\nvariable = y\n", "oredring = x,y", "ordering"),
    ("search", "series = levels.csv\ntarget = y\n", "rulse = 1", "rules"),
    ("trend", "series = s.csv\n", "colum = demand", "column"),
    ("ntl", "grid = g.txt\nfloor = 5\n", "smoth = false", "smooth"),
]
# keys the commands once read and no longer do
REMOVED = [
    ("trend", "series = s.csv\n", "mode = valley", "period"),
    ("ntl", "grid = g.txt\n", "colormap = viridis", "floor"),
]


@pytest.mark.parametrize(
    "command, text, typo, closest",
    TYPOS + REMOVED,
    ids=[t[0] for t in TYPOS] + ["trend-mode", "ntl-colormap"],
)
def test_misspelled_key_exits_one_naming_the_closest_key(
    tmp_path, capsys, command, text, typo, closest
):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text + typo + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    key = typo.split(" = ")[0]
    err = capsys.readouterr().err
    assert err == f"error: unknown key '{key}' (closest known key: '{closest}')\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [
        ("ingest", "source.load.units"),  # a source field other than data or schema
        ("backcast", "weather.pressure"),  # a weather kind the features do not use
        ("backcast", "sign.u"),  # a search key
        ("search", "candidates"),  # a backcast key
    ],
)
def test_keys_outside_the_table_are_refused(tmp_path, command, key):
    with pytest.raises(ConfigError, match=f"unknown key '{re.escape(key)}'"):
        parse(tmp_path, command, f"{key} = 1\n")


def test_table_gives_typed_values_and_dataclass_defaults(tmp_path):
    for name in ("load.csv", "t.csv", "h.csv", "w.csv"):
        (tmp_path / name).write_text("")
    values = parse(
        tmp_path,
        "backcast",
        "load = load.csv\nweather.temperature = t.csv\nweather.humidity = h.csv\n"
        "weather.wind = w.csv\neval_start = 2021-03-01\neval_end = 2021-04-30\n"
        "gdp.2021-01 = 1.05\nsummary_month = 2021-04\nepochs = 7\n",
    )
    # a file is checked here and read by its command
    assert isinstance(values["load"], InputFile) and values["load"].path == tmp_path / "load.csv"
    assert values["gdp.<month>"] == {"2021-01": 1.05}
    assert values["summary_month"] == (2021, 4)
    assert values["epochs"] == 7
    assert values["candidates"] == TrainingConfig.candidates
    assert "train_start" not in values and "ensemble" not in values


@pytest.mark.parametrize(
    "text, message",
    [
        ("candidates = x\n", "candidates: expected an integer, got 'x'"),
        ("split = half\n", "split: expected a number, got 'half'"),
        ("eval_start = 2021-13-01\n", "eval_start: expected YYYY-MM-DD, got '2021-13-01'"),
        ("load = gone.csv\n", "load: file not found: "),
    ],
)
def test_bad_value_keeps_its_message(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "load = load.csv\nweather.temperature = t.csv\nweather.humidity = h.csv\n"
        "weather.wind = w.csv\neval_start = 2021-03-01\neval_end = 2021-04-30\n" + text
    )
    for name in ("load.csv", "t.csv", "h.csv", "w.csv"):
        (tmp_path / name).write_text("")
    assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


def test_unreadable_file_exits_one_before_any_output(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "load = load.csv\nweather.temperature = t.csv\nweather.humidity = h.csv\n"
        "weather.wind = w.csv\neval_start = 2021-03-01\neval_end = 2021-04-30\n"
    )
    for name in ("load.csv", "t.csv", "h.csv", "w.csv"):
        (tmp_path / name).write_text("")
    access = os.access  # h.csv is a regular file that this process may not read
    monkeypatch.setattr(
        os, "access", lambda path, mode: os.path.basename(path) != "h.csv" and access(path, mode)
    )
    assert main(["backcast", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: weather.humidity: file not readable: {tmp_path / 'h.csv'}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["search", "analyze"])
def test_sign_key_naming_no_series_column_exits_one(tmp_path, capsys, command):
    frame = TimeSeriesFrame(
        tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(40)),
        ("load", "mobility", "price"),
        np.random.default_rng(0).normal(size=(40, 3)).cumsum(axis=0),
    )
    write_series_csv(frame, tmp_path / "s.csv")
    cfg = tmp_path / "c.cfg"
    # a misspelt sign key would otherwise turn the sign gate off without a word
    cfg.write_text("series = s.csv\nsign.mobility = 1\nsign.mobilty = -1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sign.mobilty: no column 'mobilty' in the series (closest: 'mobility')\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["search", "analyze"])
@pytest.mark.parametrize(
    "lines, message",
    [
        (
            "sign.mobility = 1\nsign.load = -1\n",
            "sign.load: 'load' is the target; a sign applies to a driver",
        ),
        (
            "subsets = load,price\nsign.price = 1\nsign.mobility = 1\n",
            "sign.mobility: 'mobility' is a driver in no subset; a sign applies to a driver",
        ),
    ],
    ids=["target", "driver_in_no_subset"],
)
def test_sign_key_gating_no_driver_exits_one(tmp_path, capsys, command, lines, message):
    frame = TimeSeriesFrame(
        tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(40)),
        ("load", "mobility", "price"),
        np.random.default_rng(0).normal(size=(40, 3)).cumsum(axis=0),
    )
    write_series_csv(frame, tmp_path / "s.csv")
    cfg = tmp_path / "c.cfg"
    # the sweep reads a sign only for a driver of the model it scores: any other is unread
    cfg.write_text(f"series = s.csv\n{lines}")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("adf_alpha = 0", "adf_alpha"),
        ("adf_alpha = 1", "adf_alpha"),
        ("lb_alpha = 1.5", "lb_alpha"),
        ("lb_alpha = nan", "lb_alpha"),
        ("lb_lags = 0", "lb_lags"),
        ("dw_lo = 3", "dw_lo"),
        ("irf_horizon = -1", "irf_horizon"),
        ("fevd_horizon = 0", "fevd_horizon"),
    ],
)
def test_scoring_key_out_of_range_exits_one_before_the_sweep(tmp_path, capsys, line, key):
    frame = TimeSeriesFrame(
        tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(40)),
        ("load", "mobility"),
        np.random.default_rng(0).normal(size=(40, 2)).cumsum(axis=0),
    )
    write_series_csv(frame, tmp_path / "s.csv")
    cfg = tmp_path / "c.cfg"
    # left alone, each value would reject every combination or fail at one gate, unnamed
    cfg.write_text(f"series = s.csv\n{line}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must ") and err.count("\n") == 1
    assert not out.exists()


def test_gdp_steps_are_numbers_by_month(tmp_path):
    for name in ("load.csv", "t.csv", "h.csv", "w.csv"):
        (tmp_path / name).write_text("")
    config = (
        "load = load.csv\nweather.temperature = t.csv\nweather.humidity = h.csv\n"
        "weather.wind = w.csv\neval_start = 2021-03-01\neval_end = 2021-04-30\n"
    )
    values = parse(tmp_path, "backcast", config + "gdp.2021-01 = 1.05\ngdp.2021-06 = -2\n")
    assert main_module._gdp(values) == {(2021, 1): 1.05, (2021, 6): -2.0}
    with pytest.raises(ConfigError, match="gdp.2021-01: expected a number, got 'high'"):
        parse(tmp_path, "backcast", config + "gdp.2021-01 = high\n")
    with pytest.raises(ConfigError, match="gdp.2021: expected YYYY-MM, got '2021'"):
        main_module._gdp(parse(tmp_path, "backcast", config + "gdp.2021 = 1\n"))
    with pytest.raises(ConfigError, match="not both"):
        main_module._gdp(parse(tmp_path, "backcast", config + "gdp = 1\ngdp.2021-01 = 1\n"))


def test_bool_key_refuses_other_words(tmp_path):
    (tmp_path / "g.txt").write_text("")
    with pytest.raises(ConfigError, match="smooth: expected true/false, got 'maybe'"):
        parse(tmp_path, "ntl", "grid = g.txt\nsmooth = maybe\n")


@pytest.mark.parametrize(
    "command, name, line, message",
    [
        ("ingest", "s.schema", "unit_facter = 2",
         "unknown key 'unit_facter' (closest known key: 'unit_factor')"),
        ("ingest", "s.schema", "hour_shift = 1.5", "hour_shift: expected an integer, got '1.5'"),
        ("ingest", "s.schema", "unit_factor = much", "unit_factor: expected a number, got 'much'"),
        # a descriptor key that no descriptor set: sources are comma-separated
        ("ingest", "s.schema", "delimiter = ;",
         "unknown key 'delimiter' (closest known key: 'date_format')"),
        ("ntl", "m.txt", "lunar_fractoin = 0.5",
         "unknown key 'lunar_fractoin' (closest known key: 'lunar_fraction')"),
        ("ntl", "m.txt", "colormap = magma",
         "unknown key 'colormap' (closest known key: 'flags_grid')"),
    ],
    ids=[
        "descriptor-typo", "descriptor-int", "descriptor-float", "descriptor-removed-delimiter",
        "sidecar-typo", "sidecar-config-key",
    ],
)
def test_descriptor_and_sidecar_refusals_exit_one_naming_the_file(
    tmp_path, capsys, command, name, line, message
):
    (tmp_path / "a.csv").write_text("day,h,mw\n2020-01-01,0,1\n")
    (tmp_path / "s.schema").write_text(
        "name = a\nkind = load\ndate_column = day\nhour_column = h\nvalue_column = mw\n"
    )
    write_grid(tmp_path / "g.txt", [[1.0] * 5] * 5)
    (tmp_path / "m.txt").write_text("")
    (tmp_path / "c.cfg").write_text(
        "source.a.data = a.csv\nsource.a.schema = s.schema\n"
        if command == "ingest"
        else "grid = g.txt\nmetadata = m.txt\n"
    )
    with open(tmp_path / name, "a") as fh:
        fh.write(line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"
    assert not out.exists()


def test_ingest_missing_second_file_fails_before_any_output(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("day,h,mw\n2020-01-01,0,1\n")
    (tmp_path / "s.schema").write_text(
        "name = a\nkind = load\ndate_column = day\nhour_column = h\nvalue_column = mw\n"
    )
    (tmp_path / "c.cfg").write_text(
        "source.a.data = a.csv\nsource.a.schema = s.schema\n"
        "source.b.data = gone.csv\nsource.b.schema = s.schema\n"
    )
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
    assert "source.b.data: file not found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("kind = loads", "descriptor kind 'loads' not one of"),
        ("time_column = t", "exactly one of hour_column / time_column is required"),
    ],
    ids=["kind", "time-column"],
)
def test_descriptor_field_refusal_names_the_descriptor(tmp_path, capsys, line, message):
    # with two sources, only the path tells which descriptor is at fault
    descriptor = "name = {0}\nkind = load\ndate_column = day\nhour_column = h\nvalue_column = mw\n"
    for label in "ab":
        (tmp_path / f"{label}.csv").write_text("day,h,mw\n2020-01-01,0,1\n")
        (tmp_path / f"{label}.schema").write_text(descriptor.format(label))
    with open(tmp_path / "b.schema", "a") as fh:
        fh.write(line + "\n")
    (tmp_path / "c.cfg").write_text(
        "source.a.data = a.csv\nsource.a.schema = a.schema\n"
        "source.b.data = b.csv\nsource.b.schema = b.schema\n"
    )
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'b.schema'}: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ("backup.b.data = a.csv\nbackup.b.schema = s.schema\n", "backup.b.data: no source.b.data"),
        ("backup.a.schema = s.schema\n", "config is missing required key 'backup.a.data'"),
    ],
    ids=["backup-without-source", "backup-without-data"],
)
def test_ingest_refuses_unpaired_backup_keys(tmp_path, capsys, keys, message):
    (tmp_path / "a.csv").write_text("day,h,mw\n2020-01-01,0,1\n")
    (tmp_path / "s.schema").write_text(
        "name = a\nkind = load\ndate_column = day\nhour_column = h\nvalue_column = mw\n"
    )
    (tmp_path / "c.cfg").write_text("source.a.data = a.csv\nsource.a.schema = s.schema\n" + keys)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_readme_config_keys_are_in_their_tables(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, flags=re.S).group(1)
    checked = 0
    for line in block.splitlines():
        if line.startswith("# "):
            # "# ingest: one block per source label", "# analyze / search"
            commands = re.split(r"\s*/\s*", line[2:].split(":")[0].strip())
            continue
        if "=" not in line:
            continue
        key = line.split("=")[0].strip()
        for command in commands:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"{key} = x\n")
            rec = RunRecorder(command, tmp_path / "unused")
            try:
                parse_config(str(cfg), table(command), rec)
            except ConfigError as exc:
                # a listed key may still fail, but never as unknown
                assert "unknown key" not in str(exc), (command, key)
            checked += 1
    assert checked >= 20


# the commands each config of scripts/make_synthetic.py feeds
SYNTHETIC_CONFIGS = {
    "ingest.cfg": ("ingest",),
    "qc.cfg": ("qc-report",),
    "backcast.cfg": ("backcast",),
    "backcast_full.cfg": ("backcast",),
    "analyze.cfg": ("analyze", "search"),
    "trend.cfg": ("trend",),
    "ntl.cfg": ("ntl",),
}


def test_every_generated_config_parses_against_its_table(tmp_path, monkeypatch, capsys):
    # the benchmark's configs fail its runs (run_failed) if a table loses a
    # key; the descriptors and sidecars the configs name parse against theirs
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import make_synthetic
    import workloads

    demo = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["make_synthetic.py", "--out", str(demo)])
    make_synthetic.main()
    assert sorted(p.name for p in demo.glob("*.cfg")) == sorted(SYNTHETIC_CONFIGS)
    cases = [(cmd, demo / name) for name, cmds in SYNTHETIC_CONFIGS.items() for cmd in cmds]
    for name, command in (("train", "backcast"), ("reuse", "backcast"), ("search", "search")):
        inputs = tmp_path / name
        inputs.mkdir()
        getattr(workloads, f"prepare_{name}")(inputs, 0)
        cases += [(command, inputs / "op.cfg"), (command, inputs / "warmup.cfg")]
    # reuse's op.cfg names the ensemble its warm-up run writes
    (tmp_path / "reuse" / "warmup").mkdir()
    (tmp_path / "reuse" / "warmup" / "ensemble.json").write_text("{}")
    descriptors = sidecars = 0
    for command, cfg in cases:
        rec = RunRecorder(command, tmp_path / "unused")
        values = parse_config(str(cfg), table(command), rec)
        assert str(cfg) in rec.inputs
        for descriptor in values.get("source.<label>.schema", {}).values():
            SourceSchema.from_file(descriptor)
            descriptors += 1
        if "metadata" in values:
            read_keyfile(values["metadata"], SIDECAR_KEYS)
            sidecars += 1
    assert (descriptors, sidecars) == (1, 1)


class _ReadTracker(dict):
    """The typed values, noting each key a command reads."""

    def __init__(self, values, reads):
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)


def test_every_key_a_command_reads_is_in_its_table(tmp_path, monkeypatch):
    reads = {}
    parse = main_module.parse_config

    def tracked(config, keys, rec):
        return _ReadTracker(parse(config, keys, rec), reads.setdefault(rec.command, set()))

    monkeypatch.setattr(main_module, "parse_config", tracked)
    c12_digests(tmp_path)
    assert sorted(reads) == sorted(COMMANDS)
    for command, keys in reads.items():
        assert keys and keys <= set(table(command)), (command, keys - set(table(command)))
