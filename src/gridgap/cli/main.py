"""Command-line front end.

Every subcommand reads one key-value config file, parsed by ``main`` against
the command's key table (``parse_config``) before the command runs, and
funnels all randomness through a single ``--seed`` flag.  ``main`` hands the
command the typed values and a ``RunRecorder``, and writes
``run_manifest.json`` next to the outputs when the command returns.  Exit
codes: 0 success, 1 error or bad usage (no manifest), 2 finished but with
unresolved data gaps, 3 model search rejected every candidate.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import difflib
import io
import os
import sys
from pathlib import Path

from ..backcast import (
    DEFAULT_WEATHER_KINDS,
    FeatureConfig,
    TrainingConfig,
    feature_matrix,
    load_ensemble,
    monthly_summary,
    reduction_series,
    save_ensemble,
    train_ensemble,
    training_workers,
)
from ..errors import ConfigError, CoverageError, GridGapError, NoModelError
from ..frames import federal_holidays
from ..ingest import (
    QcReport,
    SourceSchema,
    format_value,
    parse_keyvalue_text,
    parse_source,
    qc_fill_missing,
    qc_outliers,
    read_series_csv,
    read_wide_csv,
    write_wide_csv,
)
from ..ingest.schema import REQUIRED, decode_text, parse_keys
from ..ntl import load_raster, process_raster, write_grid
from ..rvar import fevd, irf, irf_cumulative, load_model, run_diagnostics, save_model
from ..search import ScoringConfig, SearchSpace, run_search, search_log_csv
from ..transforms import difference, trend_transition
from .charts import bar_chart, line_chart
from .manifest import RunRecorder

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GAPS = 2
EXIT_NO_MODEL = 3

OUT_ENV = "GRIDGAP_OUT"
JOBS_ENV = "GRIDGAP_JOBS"
DEFAULT_OUT = "gridgap-out"


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------- config keys


def _missing(key: str) -> ConfigError:
    return ConfigError(f"config is missing required key '{key}'")


def parse_config(config: str, keys: dict, rec: RunRecorder) -> dict:
    """Typed values of the config file ``config`` by a command's table ``keys``
    (see ``ingest.schema.parse_keys``): the config is recorded in ``rec``, and
    each file it names is recorded there when the command reads it."""
    path = Path(config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    data = path.read_bytes()
    raw = parse_keyvalue_text(decode_text(data, path))
    if not raw:
        raise ConfigError(f"{path}: config file defines no keys")
    rec.record_input(config, data)
    return parse_keys(raw, keys, path.parent, rec.record_input)


def _resolve_jobs(args) -> int:
    jobs = args.jobs
    if jobs is None:
        env = {JOBS_ENV: os.environ.get(JOBS_ENV, "1")}
        jobs = parse_keys(env, {JOBS_ENV: (int, 1)})[JOBS_ENV]
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _write_text(rec: RunRecorder, name: str, text: str) -> None:
    rec.output(name).write_text(text if text.endswith("\n") else text + "\n")


def _write_csv(rec: RunRecorder, name: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(rec, name, buf.getvalue())


# ---------------------------------------------------------------- ingest / qc


def _clean(rec: RunRecorder, names, table, backup, parsed=None, label: str = "") -> int:
    """Outlier pass and gap fill, the report merged after ``parsed``; writes
    the cleaned table and the report to ``names``, returns the unresolved count."""
    flagged, outlier_report = qc_outliers(table)
    cleaned, fill_report = qc_fill_missing(flagged, backup)
    report = (parsed or QcReport()).merge(outlier_report).merge(fill_report)
    write_wide_csv(cleaned, rec.output(names[0]))
    _write_text(rec, names[1], report.to_text())
    print(
        f"{label}{len(cleaned.dates)} days, {len(report.outliers)} outliers,"
        f" {len(report.fills)} fills, {len(report.unresolved)} unresolved"
    )
    return len(report.unresolved)


def _sources(cfg: dict, prefix: str) -> dict:
    """{label: (raw file, descriptor)} of the ``prefix.<label>.data|schema`` pairs."""
    data, schemas = cfg[f"{prefix}.<label>.data"], cfg[f"{prefix}.<label>.schema"]
    for label in sorted(data.keys() ^ schemas.keys()):
        raise _missing(f"{prefix}.{label}.{'schema' if label in data else 'data'}")
    return {label: (data[label], SourceSchema.from_file(schemas[label])) for label in data}


def cmd_ingest(cfg: dict, rec: RunRecorder) -> int:
    sources, backups = _sources(cfg, "source"), _sources(cfg, "backup")
    if not sources:
        raise ConfigError("config defines no source.<label>.data / source.<label>.schema pairs")
    for label in sorted(backups.keys() - sources.keys()):
        raise ConfigError(f"backup.{label}.data: no source.{label}.data to back up")
    unresolved = 0
    for label in sorted(sources):
        (data, schema), backup = sources[label], None
        wide, parsed = parse_source(data.read_bytes(), schema)  # one raw file held at a time
        if label in backups:
            data, schema = backups[label]
            backup = parse_source(data.read_bytes(), schema)[0]
        names = (f"{label}.wide.csv", f"{label}.qc.txt")
        unresolved += _clean(rec, names, wide, backup, parsed, f"{label}: ")
    return EXIT_GAPS if unresolved else EXIT_OK


def cmd_qc_report(cfg: dict, rec: RunRecorder) -> int:
    table = read_wide_csv(cfg["table"], cfg["kind"])
    backup = read_wide_csv(cfg["backup"], cfg["kind"]) if "backup" in cfg else None
    unresolved = _clean(rec, ("cleaned.wide.csv", "qc_report.txt"), table, backup)
    return EXIT_GAPS if unresolved else EXIT_OK


# ---------------------------------------------------------------- backcast


def _month_key(name: str, raw: str) -> tuple[int, int]:
    """(year, month) of a YYYY-MM value; ``name`` is the config key it came from."""
    try:
        year, month = raw.split("-")
        key = (int(year), int(month))
    except ValueError:
        raise ConfigError(f"{name}: expected YYYY-MM, got '{raw}'") from None
    if not 1 <= key[1] <= 12:
        raise ConfigError(f"{name}: month {key[1]} outside 1..12")
    return key


def _gdp(cfg: dict):
    """Scalar 'gdp' key, or 'gdp.YYYY-MM' step keys applied per month."""
    steps = {_month_key(f"gdp.{month}", month): v for month, v in cfg["gdp.<month>"].items()}
    if steps and "gdp" in cfg:
        raise ConfigError("give either a scalar 'gdp' or 'gdp.YYYY-MM' steps, not both")
    return steps or cfg.get("gdp", 1.0)


def cmd_backcast(cfg: dict, rec: RunRecorder) -> int:
    load_table = read_wide_csv(cfg["load"], "load")
    weather = {kind: read_wide_csv(cfg[f"weather.{kind}"], kind) for kind in DEFAULT_WEATHER_KINDS}
    gdp = _gdp(cfg)
    eval_start, eval_end = cfg["eval_start"], cfg["eval_end"]
    years = {eval_start.year, eval_end.year}
    if "ensemble" not in cfg:
        for key in ("train_start", "train_end"):
            if key not in cfg:
                raise _missing(key)
        train_start, train_end = cfg["train_start"], cfg["train_end"]
        years |= {train_start.year, train_end.year}
    holidays = federal_holidays(range(min(years), max(years) + 1))

    feature_config = FeatureConfig()
    if "ensemble" in cfg:
        raw = cfg["ensemble"].read_bytes()
        ensemble = load_ensemble(cfg["ensemble"], raw)
        feature_config = ensemble.feature_config
        # the validated bytes, not a re-serialization: save(load(f)) == f for
        # every file save_ensemble wrote
        rec.output("ensemble.json").write_bytes(raw)
    else:
        daily = load_table.daily_mean_frame("load")
        daily = daily.slice_dates(train_start, train_end)
        features = feature_matrix(daily.dates, weather, gdp, holidays, feature_config)
        names = ("candidates", "keep_fraction", "split", "epochs", "learning_rate")
        training = TrainingConfig(
            **{n: cfg[n] for n in names},
            width_range=(cfg["width_lo"], cfg["width_hi"]),
            seed=rec.seed,
        )
        workers, budget = training_workers(training.candidates, training.epochs, rec.jobs)
        rec.details.update(training_workers=workers, blas_budget=budget)
        ensemble = train_ensemble(
            features, daily.column("load"), daily.dates, training, feature_config, jobs=rec.jobs,
        )
        print(f"kept {len(ensemble.models)} of {training.candidates} candidates")
        save_ensemble(ensemble, rec.output("ensemble.json"))

    eval_dates = [d for d in load_table.dates if eval_start <= d <= eval_end]
    if not eval_dates:
        raise ConfigError(f"no observed days between {eval_start} and {eval_end}")
    eval_features = feature_matrix(eval_dates, weather, gdp, holidays, feature_config)
    series = reduction_series(ensemble, eval_features, eval_dates, load_table)

    levels = sorted(series.bounds)
    _write_csv(
        rec,
        "reduction.csv",
        ["date", "point"] + [f"q{int(round(level * 100))}" for level in levels],
        (
            [d.isoformat(), format_value(series.point[i])]
            + [format_value(series.bounds[level][i]) for level in levels]
            for i, d in enumerate(series.dates)
        ),
    )

    months = sorted({(d.year, d.month) for d in series.dates})
    if "summary_month" in cfg:
        months = [cfg["summary_month"]]
    min_days = cfg["summary_min_days"]
    rows = []
    for year, month in months:
        try:
            rows.append(monthly_summary(series, year, month, min_days=min_days).row())
        except CoverageError:
            if len(months) == 1:
                raise
    if not rows:
        raise CoverageError(f"no month between {eval_start} and {eval_end} has {min_days} days")
    _write_text(rec, "summary.txt", "\n".join(rows))

    line_chart(
        rec.output("reduction.svg"),
        "daily consumption reduction (%)",
        [d.isoformat() for d in series.dates],
        [("point", series.point), ("q10", series.bounds[0.10]), ("q90", series.bounds[0.90])],
    )
    print("\n".join(rows))
    return EXIT_OK


# ---------------------------------------------------------------- rvar search


def _parse_subsets(key: str, raw: str) -> tuple[tuple[str, ...], ...]:
    subsets = tuple(names for chunk in raw.split(";") if (names := _parse_names(key, chunk)))
    if not subsets:
        raise ConfigError(f"subsets: no variable lists in '{raw}'")
    return subsets


def _parse_names(key: str, raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_ranges(key: str, raw: str) -> tuple[tuple[dt.date, dt.date], ...]:
    ranges = []
    for chunk in filter(None, (part.strip() for part in raw.split(";"))):
        start, sep, end = chunk.partition("..")
        if not sep:
            raise ConfigError(f"ranges: expected 'start..end', got '{chunk}'")
        try:
            ranges.append((dt.date.fromisoformat(start.strip()), dt.date.fromisoformat(end.strip())))
        except ValueError:
            raise ConfigError(f"ranges: bad date in '{chunk}'") from None
    if not ranges:
        raise ConfigError(f"ranges: no windows in '{raw}'")
    return tuple(ranges)


def _parse_ints(key: str, raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got '{raw}'") from None
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def _space_and_scoring(cfg: dict, frame) -> tuple[SearchSpace, ScoringConfig]:
    target = cfg.get("target", frame.names[0])
    subsets = cfg.get("subsets", ((target, *[n for n in frame.names if n != target]),))
    ranges = cfg.get("ranges", ((frame.dates[0], frame.dates[-1]),))
    space = SearchSpace(subsets, ranges, cfg["orders"], cfg["rules"])
    for name in sorted(set(cfg["sign.<variable>"]) - set(frame.names)):
        closest = difflib.get_close_matches(name, frame.names, n=1, cutoff=0)[0]
        raise ConfigError(f"sign.{name}: no column '{name}' in the series (closest: '{closest}')")
    names = ("adf_alpha", "lb_alpha", "lb_lags", "irf_horizon", "fevd_horizon")
    scoring = ScoringConfig(
        **{n: cfg[n] for n in names},
        dw_range=(cfg["dw_lo"], cfg["dw_hi"]),
        required_signs=cfg["sign.<variable>"],
    )
    return space, scoring


def _sweep(cfg: dict, rec: RunRecorder):
    """Shared search body: (frame, scoring, result), or None once it has
    written the failure log because every combination was rejected."""
    frame = read_series_csv(cfg["series"])
    space, scoring = _space_and_scoring(cfg, frame)
    try:
        result = run_search(frame, space, scoring, jobs=rec.jobs)
    except NoModelError as exc:
        _write_csv(rec, "failures.csv", ["index", "status"], exc.failures)
        print(f"error: {exc} ({space.size()} combinations rejected)", file=sys.stderr)
        return None
    _write_text(rec, "search_log.csv", search_log_csv(result))
    save_model(result.model, rec.output("model.json"))
    chosen = result.chosen
    print(
        f"chosen combination {chosen.index}: subset={'|'.join(chosen.subset)}"
        f" window={chosen.date_range[0]}..{chosen.date_range[1]}"
        f" order={chosen.order} rule={chosen.rule} bic={chosen.stats['bic']:.4f}"
    )
    return frame, scoring, result


def cmd_search(cfg: dict, rec: RunRecorder) -> int:
    return EXIT_NO_MODEL if _sweep(cfg, rec) is None else EXIT_OK


def _write_irf(rec: RunRecorder, model, title: str, horizon: int, series, paths) -> None:
    """irf.svg of ``series``, then irf.csv of each (shock, response path): the
    chart refuses non-finite responses, so an overflowing model leaves no CSV."""
    line_chart(rec.output("irf.svg"), title, [str(t) for t in range(horizon + 1)], series)
    _write_csv(
        rec,
        "irf.csv",
        ["shock", "step", *model.names],
        (
            [shock, t, *(format_value(v) for v in path[t])]
            for shock, path in paths
            for t in range(horizon + 1)
        ),
    )


def _write_irf_outputs(rec: RunRecorder, model, shocks, horizon: int, focus: str) -> None:
    """Responses to each shock; the chart shows the focus variable's."""
    paths = [(r.shock, r.responses) for r in (irf(model, shock, horizon) for shock in shocks)]
    i = model.names.index(focus)
    series = [(shock, path[:, i]) for shock, path in paths]
    _write_irf(rec, model, f"response of {focus} to unit shocks", horizon, series, paths)


def _write_fevd_outputs(rec: RunRecorder, model, horizon: int, focus: str, ordering=None) -> None:
    """fevd.csv plus a chart of the focus variable, chart first as for irf."""
    result = fevd(model, horizon, ordering)
    focus_idx = model.names.index(focus)
    bar_chart(
        rec.output("fevd.svg"),
        f"variance shares of {focus} at horizon {horizon}",
        list(model.names),
        result.shares[horizon - 1, focus_idx],
    )
    _write_csv(
        rec,
        "fevd.csv",
        ["horizon", "variable", *(f"share:{n}" for n in model.names)],
        (
            [h, name, *(format_value(v) for v in result.shares[h - 1, i])]
            for h in range(1, horizon + 1)
            for i, name in enumerate(model.names)
        ),
    )


def cmd_analyze(cfg: dict, rec: RunRecorder) -> int:
    swept = _sweep(cfg, rec)
    if swept is None:
        return EXIT_NO_MODEL
    frame, scoring, result = swept
    chosen, model, target = result.chosen, result.model, result.chosen.subset[0]

    diffed = difference(frame.select(chosen.subset).slice_dates(*chosen.date_range))
    report = run_diagnostics(model, diffed, cointegration_ok=True, lb_lags=scoring.lb_lags)
    passes = report.all_pass(
        lb_alpha=scoring.lb_alpha, adf_alpha=scoring.adf_alpha, dw_range=scoring.dw_range
    )
    rate = chosen.stats["explainable_rate"]
    lines = [
        "# diagnostics/1",
        f"chosen_index = {chosen.index}",
        f"subset = {'|'.join(chosen.subset)}",
        f"window = {chosen.date_range[0].isoformat()}..{chosen.date_range[1].isoformat()}",
        f"order = {chosen.order}",
        f"rule = {chosen.rule}",
        f"stable = {report.stability.stable}",
        f"max_modulus = {format_value(report.stability.max_modulus)}",
        f"aic = {format_value(report.aic)}",
        f"bic = {format_value(report.bic)}",
        f"explainable_rate = {format_value(rate)}",
        f"all_pass = {passes}",
        "variable,adf_stat,adf_p,lb_q,lb_p,dw",
    ]
    lines += [
        ",".join([v.name, *(format_value(x) for x in (v.adf_stat, v.adf_p, v.lb_q, v.lb_p, v.dw))])
        for v in report.variables
    ]
    _write_text(rec, "diagnostics.txt", "\n".join(lines))

    _write_irf_outputs(rec, model, chosen.subset[1:], scoring.irf_horizon, target)
    _write_fevd_outputs(rec, model, scoring.fevd_horizon, target)
    print(f"explainable rate of {target} at horizon {scoring.fevd_horizon}: {rate:.2f}%")
    return EXIT_OK


def _focus(cfg: dict, model) -> str:
    focus = cfg.get("variable", model.names[0])
    if focus not in model.names:
        raise ConfigError(f"variable: '{focus}' not in model ({', '.join(model.names)})")
    return focus


def cmd_irf(cfg: dict, rec: RunRecorder) -> int:
    model = load_model(cfg["model"])
    shock, horizon, focus = cfg["shock"], cfg["horizon"], _focus(cfg, model)
    if cfg["cumulative"]:
        cum = irf_cumulative(model, shock, horizon)
        series = [(name, cum.responses[:, i]) for i, name in enumerate(model.names)]
        title = f"cumulative response to a unit {cum.shock} shock"
        _write_irf(rec, model, title, horizon, series, [(cum.shock, cum.responses)])
    else:
        _write_irf_outputs(rec, model, [shock], horizon, focus)
    return EXIT_OK


def cmd_fevd(cfg: dict, rec: RunRecorder) -> int:
    model = load_model(cfg["model"])
    _write_fevd_outputs(rec, model, cfg["horizon"], _focus(cfg, model), cfg.get("ordering"))
    return EXIT_OK


# ---------------------------------------------------------------- trend / ntl


def cmd_trend(cfg: dict, rec: RunRecorder) -> int:
    frame = read_series_csv(cfg["series"])
    column = cfg.get("column", frame.names[0])
    period = cfg["period"]
    result = trend_transition(frame, column, period, cfg["tol_fraction"])
    raw = frame.column(column)
    _write_csv(
        rec,
        "trend.csv",
        ["date", column, "trend"],
        (
            [d.isoformat(), format_value(raw[i]), format_value(result.trend[i])]
            for i, d in enumerate(result.dates)
        ),
    )
    transition = result.transition
    lines = [
        f"begin = {transition.begin.isoformat()}",
        f"end = {transition.end.isoformat()}",
        f"degenerate = {str(transition.degenerate).lower()}",
        f"period = {period}",
    ]
    _write_text(rec, "transition.txt", "\n".join(lines))
    line_chart(
        rec.output("trend.svg"),
        f"{column}: {period}-day trend",
        [d.isoformat() for d in result.dates],
        [(column, raw), ("trend", result.trend)],
    )
    flag = " (degenerate)" if transition.degenerate else ""
    print(f"transition {transition.begin.isoformat()}..{transition.end.isoformat()}{flag}")
    return EXIT_OK


def cmd_ntl(cfg: dict, rec: RunRecorder) -> int:
    raster = load_raster(cfg["grid"], cfg.get("metadata"), rec.record_input)
    floor, smooth = cfg["floor"], cfg["smooth"]
    result = process_raster(raster, floor, smooth)
    write_grid(rec.output("processed.grid.txt"), result.raster.intensity)
    lines = [
        "# ntl-report/1",
        f"height = {raster.height}",
        f"width = {raster.width}",
        f"floor = {format_value(floor)}",
        f"smooth = {str(smooth).lower()}",
        f"repaired = {len(result.repaired)}",
        f"isolated = {len(result.isolated)}",
    ]
    lines += [f"repaired,{r},{c}" for r, c in result.repaired]
    lines += [f"isolated,{r},{c}" for r, c in result.isolated]
    _write_text(rec, "ntl_report.txt", "\n".join(lines))
    print(f"{raster.height}x{raster.width} grid: {len(result.repaired)} repaired, {len(result.isolated)} isolated")
    return EXIT_OK


# ---------------------------------------------------------------- entry point

# search and analyze share one table: the demo feeds both the same file
_SEARCH_KEYS = {
    "series": (Path, REQUIRED), "target": (str, None),
    "subsets": (_parse_subsets, None), "ranges": (_parse_ranges, None),
    "orders": (_parse_ints, (1, 2, 3)), "rules": (_parse_ints, SearchSpace.rules),
    "sign.<variable>": (int, None),
    # scoring keys default to ScoringConfig's fields
    "adf_alpha": (float, ScoringConfig.adf_alpha), "lb_alpha": (float, ScoringConfig.lb_alpha),
    "lb_lags": (int, ScoringConfig.lb_lags),
    "dw_lo": (float, ScoringConfig.dw_range[0]), "dw_hi": (float, ScoringConfig.dw_range[1]),
    "irf_horizon": (int, ScoringConfig.irf_horizon),
    "fevd_horizon": (int, ScoringConfig.fevd_horizon),
}

# each command's function, help line, and table of the keys it reads (see parse_config)
COMMANDS = {
    "ingest": (cmd_ingest, "parse raw sources into cleaned wide tables plus QC reports", {
        "source.<label>.data": (Path, None), "source.<label>.schema": (Path, None),
        "backup.<label>.data": (Path, None), "backup.<label>.schema": (Path, None),
    }),
    "qc-report": (cmd_qc_report, "run outlier and gap checks over one wide table", {
        "table": (Path, REQUIRED), "kind": (str, REQUIRED), "backup": (Path, None),
    }),
    "backcast": (cmd_backcast, "train the baseline ensemble and compute daily reductions", {
        "load": (Path, REQUIRED),
        **{f"weather.{kind}": (Path, REQUIRED) for kind in DEFAULT_WEATHER_KINDS},
        "gdp": (float, None), "gdp.<month>": (float, None),
        "train_start": (dt.date, None), "train_end": (dt.date, None),
        "eval_start": (dt.date, REQUIRED), "eval_end": (dt.date, REQUIRED),
        "ensemble": (Path, None),
        "summary_month": (_month_key, None), "summary_min_days": (int, 20),
        # training keys default to TrainingConfig's fields
        "candidates": (int, TrainingConfig.candidates), "epochs": (int, TrainingConfig.epochs),
        "keep_fraction": (float, TrainingConfig.keep_fraction),
        "split": (float, TrainingConfig.split),
        "width_lo": (int, TrainingConfig.width_range[0]),
        "width_hi": (int, TrainingConfig.width_range[1]),
        "learning_rate": (float, TrainingConfig.learning_rate),
    }),
    "analyze": (
        cmd_analyze, "model search plus diagnostics, responses, and variance shares", _SEARCH_KEYS
    ),
    "irf": (cmd_irf, "impulse responses of a saved model", {
        "model": (Path, REQUIRED), "shock": (str, REQUIRED), "horizon": (int, 10),
        "variable": (str, None), "cumulative": (bool, False),
    }),
    "fevd": (cmd_fevd, "forecast error variance shares of a saved model", {
        "model": (Path, REQUIRED), "horizon": (int, 10),
        "variable": (str, None), "ordering": (_parse_names, None),
    }),
    "search": (
        cmd_search,
        "sweep subsets, windows, orders, and rules for one admissible model",
        _SEARCH_KEYS,
    ),
    "trend": (cmd_trend, "smoothed trend and regime-transition window of one series", {
        "series": (Path, REQUIRED), "column": (str, None),
        "period": (int, 7), "tol_fraction": (float, 0.05),
    }),
    "ntl": (cmd_ntl, "repair, rescale, floor, and smooth a nighttime radiance grid", {
        "grid": (Path, REQUIRED), "metadata": (Path, None),
        "floor": (float, 10.0), "smooth": (bool, True),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridgap", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (func, help_text, keys) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="key-value config file")
        sub.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
        sub.add_argument("--jobs", type=int, default=None, help=f"parallel workers (env {JOBS_ENV})")
        sub.add_argument("--out", default=None, help=f"output directory (env {OUT_ENV})")
        sub.set_defaults(func=func, keys=keys)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        out = Path(args.out or os.environ.get(OUT_ENV) or DEFAULT_OUT)
        rec = RunRecorder(args.command, out, str(args.config), args.seed, _resolve_jobs(args))
        code = args.func(parse_config(args.config, args.keys, rec), rec)
        rec.write()
        return code
    except (GridGapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
