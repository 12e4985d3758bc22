"""Command-line front end.

Every subcommand reads one key-value config file (paths inside it resolve
against the config file's directory) and funnels all randomness through a
single ``--seed`` flag.  ``main`` owns the run: it loads the config, hands
the command a ``RunRecorder``, and writes ``run_manifest.json`` next to the
outputs when the command returns.  Exit codes: 0 success, 1 error or bad
usage (no manifest), 2 finished but with unresolved data gaps, 3 model
search rejected every candidate.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
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
from ..ntl import load_raster, process_raster, read_metadata, write_grid
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

_TRUTHY = {"true", "yes", "1", "on"}
_FALSY = {"false", "no", "0", "off"}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------- config access


def _load_config(path: str) -> tuple[dict[str, str], Path]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cfg = parse_keyvalue_text(p.read_text())
    if not cfg:
        raise ConfigError(f"{p}: config file defines no keys")
    return cfg, p.parent


def _cfg_get(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"config is missing required key '{key}'")
    return cfg[key]


def _cfg_path(cfg: dict, key: str, base: Path, recorder: RunRecorder) -> Path:
    path = Path(_cfg_get(cfg, key))
    if not path.is_absolute():
        path = base / path
    if not path.is_file():
        raise ConfigError(f"{key}: file not found: {path}")
    recorder.record_input(path)
    return path


def _cfg_int(cfg: dict, key: str, default: int) -> int:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got '{raw}'") from None


def _cfg_float(cfg: dict, key: str, default: float) -> float:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got '{raw}'") from None


def _cfg_bool(cfg: dict, key: str, default: bool) -> bool:
    raw = cfg.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in _TRUTHY:
        return True
    if low in _FALSY:
        return False
    raise ConfigError(f"{key}: expected true/false, got '{raw}'")


def _cfg_date(cfg: dict, key: str) -> dt.date:
    raw = _cfg_get(cfg, key)
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected YYYY-MM-DD, got '{raw}'") from None


def _resolve_out(args) -> Path:
    return Path(args.out or os.environ.get(OUT_ENV) or DEFAULT_OUT)


def _resolve_jobs(args) -> int:
    raw = args.jobs
    if raw is None:
        env = os.environ.get(JOBS_ENV)
        if env is None:
            return 1
        try:
            raw = int(env)
        except ValueError:
            raise ConfigError(f"{JOBS_ENV}: expected an integer, got '{env}'") from None
    if raw < 1:
        raise ConfigError(f"jobs must be >= 1, got {raw}")
    return raw


def _write_text(rec: RunRecorder, name: str, text: str) -> None:
    rec.output(name).write_text(text if text.endswith("\n") else text + "\n")


def _write_csv(rec: RunRecorder, name: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(rec, name, buf.getvalue())


# ---------------------------------------------------------------- ingest / qc


def _clean_table(table, backup, parsed: QcReport | None = None):
    """Outlier pass, gap fill, then one report merged after ``parsed``."""
    flagged, outlier_report = qc_outliers(table)
    filled, fill_report = qc_fill_missing(flagged, backup)
    return filled, (parsed or QcReport()).merge(outlier_report).merge(fill_report)


def cmd_ingest(cfg: dict, base: Path, rec: RunRecorder) -> int:
    labels = sorted({k.split(".")[1] for k in cfg if k.startswith("source.") and k.count(".") == 2})
    if not labels:
        raise ConfigError("config defines no source.<label>.data / source.<label>.schema pairs")
    unresolved = 0
    for label in labels:
        data_path = _cfg_path(cfg, f"source.{label}.data", base, rec)
        schema = SourceSchema.from_file(_cfg_path(cfg, f"source.{label}.schema", base, rec))
        wide, parsed = parse_source(data_path.read_text(), schema)
        backup = None
        if f"backup.{label}.data" in cfg:
            bdata = _cfg_path(cfg, f"backup.{label}.data", base, rec)
            bschema = SourceSchema.from_file(_cfg_path(cfg, f"backup.{label}.schema", base, rec))
            backup, _ = parse_source(bdata.read_text(), bschema)
        cleaned, report = _clean_table(wide, backup, parsed)
        write_wide_csv(cleaned, rec.output(f"{label}.wide.csv"))
        _write_text(rec, f"{label}.qc.txt", report.to_text())
        unresolved += len(report.unresolved)
        print(
            f"{label}: {len(cleaned.dates)} days, {len(report.outliers)} outliers,"
            f" {len(report.fills)} fills, {len(report.unresolved)} unresolved"
        )
    return EXIT_GAPS if unresolved else EXIT_OK


def cmd_qc_report(cfg: dict, base: Path, rec: RunRecorder) -> int:
    kind = _cfg_get(cfg, "kind")
    table = read_wide_csv(_cfg_path(cfg, "table", base, rec), kind)
    backup = None
    if "backup" in cfg:
        backup = read_wide_csv(_cfg_path(cfg, "backup", base, rec), kind)
    cleaned, report = _clean_table(table, backup)
    write_wide_csv(cleaned, rec.output("cleaned.wide.csv"))
    _write_text(rec, "qc_report.txt", report.to_text())
    print(
        f"{len(cleaned.dates)} days, {len(report.outliers)} outliers,"
        f" {len(report.fills)} fills, {len(report.unresolved)} unresolved"
    )
    return EXIT_GAPS if report.unresolved else EXIT_OK


# ---------------------------------------------------------------- backcast


def _parse_gdp(cfg: dict):
    """Scalar 'gdp' key, or 'gdp.YYYY-MM' step keys applied per month."""
    steps = {}
    for key, raw in cfg.items():
        if not key.startswith("gdp."):
            continue
        month = _month_key(key, key[4:])
        try:
            steps[month] = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected gdp.YYYY-MM = value") from None
    if steps and "gdp" in cfg:
        raise ConfigError("give either a scalar 'gdp' or 'gdp.YYYY-MM' steps, not both")
    if steps:
        return steps
    return _cfg_float(cfg, "gdp", 1.0)


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


def _training_config(cfg: dict, seed: int) -> TrainingConfig:
    return TrainingConfig(
        candidates=_cfg_int(cfg, "candidates", 800),
        keep_fraction=_cfg_float(cfg, "keep_fraction", 0.25),
        split=_cfg_float(cfg, "split", 0.85),
        width_range=(_cfg_int(cfg, "width_lo", 8), _cfg_int(cfg, "width_hi", 64)),
        seed=seed,
        epochs=_cfg_int(cfg, "epochs", 400),
        learning_rate=_cfg_float(cfg, "learning_rate", 0.01),
    )


def cmd_backcast(cfg: dict, base: Path, rec: RunRecorder) -> int:
    load_table = read_wide_csv(_cfg_path(cfg, "load", base, rec), "load")
    weather = {
        kind: read_wide_csv(_cfg_path(cfg, f"weather.{kind}", base, rec), kind)
        for kind in DEFAULT_WEATHER_KINDS
    }
    gdp = _parse_gdp(cfg)
    eval_start, eval_end = _cfg_date(cfg, "eval_start"), _cfg_date(cfg, "eval_end")
    years = {eval_start.year, eval_end.year}
    if "ensemble" not in cfg:
        train_start, train_end = _cfg_date(cfg, "train_start"), _cfg_date(cfg, "train_end")
        years |= {train_start.year, train_end.year}
    holidays = federal_holidays(range(min(years), max(years) + 1))

    feature_config = FeatureConfig()
    if "ensemble" in cfg:
        path = _cfg_path(cfg, "ensemble", base, rec)
        raw = path.read_bytes()
        ensemble = load_ensemble(path, raw)
        feature_config = ensemble.feature_config
        # the validated bytes, not a re-serialization: save(load(f)) == f for
        # every file save_ensemble wrote
        rec.output("ensemble.json").write_bytes(raw)
    else:
        daily = load_table.daily_mean_frame("load", require_full_day=True)
        daily = daily.slice_dates(train_start, train_end)
        features = feature_matrix(daily.dates, weather, gdp, holidays, feature_config)
        training = _training_config(cfg, rec.seed)
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

    if "summary_month" in cfg:
        months = [_month_key("summary_month", cfg["summary_month"])]
    else:
        months = sorted({(d.year, d.month) for d in series.dates})
    min_days = _cfg_int(cfg, "summary_min_days", 20)
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
        [
            ("point", series.point),
            ("q10", series.bounds[0.10]),
            ("q90", series.bounds[0.90]),
        ],
    )
    for row in rows:
        print(row)
    return EXIT_OK


# ---------------------------------------------------------------- rvar search


def _parse_subsets(raw: str) -> tuple[tuple[str, ...], ...]:
    subsets = []
    for chunk in raw.split(";"):
        names = tuple(part.strip() for part in chunk.split(",") if part.strip())
        if names:
            subsets.append(names)
    if not subsets:
        raise ConfigError(f"subsets: no variable lists in '{raw}'")
    return tuple(subsets)


def _parse_ranges(raw: str) -> tuple[tuple[dt.date, dt.date], ...]:
    ranges = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
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


def _parse_ints(raw: str, key: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got '{raw}'") from None
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def _space_and_scoring(cfg: dict, frame) -> tuple[SearchSpace, ScoringConfig]:
    target = cfg.get("target", frame.names[0])
    if "subsets" in cfg:
        subsets = _parse_subsets(cfg["subsets"])
    else:
        subsets = ((target, *[n for n in frame.names if n != target]),)
    if "ranges" in cfg:
        ranges = _parse_ranges(cfg["ranges"])
    else:
        ranges = ((frame.dates[0], frame.dates[-1]),)
    orders = _parse_ints(cfg.get("orders", "1,2,3"), "orders")
    rules = _parse_ints(cfg.get("rules", "1,2,3"), "rules")
    space = SearchSpace(subsets, ranges, orders, rules)
    signs = {}
    for key, raw in cfg.items():
        if key.startswith("sign."):
            signs[key[5:]] = _cfg_int(cfg, key, 0)
    scoring = ScoringConfig(
        adf_alpha=_cfg_float(cfg, "adf_alpha", 0.05),
        lb_alpha=_cfg_float(cfg, "lb_alpha", 0.05),
        lb_lags=_cfg_int(cfg, "lb_lags", 40),
        dw_range=(_cfg_float(cfg, "dw_lo", 1.5), _cfg_float(cfg, "dw_hi", 2.5)),
        required_signs=signs,
        irf_horizon=_cfg_int(cfg, "irf_horizon", 10),
        fevd_horizon=_cfg_int(cfg, "fevd_horizon", 10),
    )
    return space, scoring


def _sweep(cfg: dict, base: Path, rec: RunRecorder):
    """Shared search body: returns (frame, scoring, result).

    When every combination is rejected it writes the failure log instead and
    returns None.
    """
    frame = read_series_csv(_cfg_path(cfg, "series", base, rec))
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


def cmd_search(cfg: dict, base: Path, rec: RunRecorder) -> int:
    return EXIT_NO_MODEL if _sweep(cfg, base, rec) is None else EXIT_OK


def _write_irf_outputs(rec: RunRecorder, model, shocks, horizon: int, focus: str) -> None:
    """irf.csv over all requested shocks plus a chart of the focus variable.

    The chart goes first: it refuses non-finite responses, so an overflowing
    model leaves no CSV behind.
    """
    results = [irf(model, shock, horizon) for shock in shocks]
    focus_idx = model.names.index(focus)
    line_chart(
        rec.output("irf.svg"),
        f"response of {focus} to unit shocks",
        [str(t) for t in range(horizon + 1)],
        [(r.shock, r.responses[:, focus_idx]) for r in results],
    )
    _write_csv(
        rec,
        "irf.csv",
        ["shock", "step", *model.names],
        (
            [r.shock, t, *(format_value(v) for v in r.responses[t])]
            for r in results
            for t in range(horizon + 1)
        ),
    )


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


def cmd_analyze(cfg: dict, base: Path, rec: RunRecorder) -> int:
    swept = _sweep(cfg, base, rec)
    if swept is None:
        return EXIT_NO_MODEL
    frame, scoring, result = swept
    chosen = result.chosen
    model = result.model
    target = chosen.subset[0]

    window = frame.select(chosen.subset).slice_dates(*chosen.date_range)
    diffed = difference(window)
    report = run_diagnostics(model, diffed, cointegration_ok=True, lb_lags=scoring.lb_lags)
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
        f"all_pass = {report.all_pass(lb_alpha=scoring.lb_alpha, dw_range=scoring.dw_range)}",
        "variable,adf_stat,adf_p,lb_q,lb_p,dw",
    ]
    for v in report.variables:
        lines.append(
            ",".join(
                [v.name] + [format_value(x) for x in (v.adf_stat, v.adf_p, v.lb_q, v.lb_p, v.dw)]
            )
        )
    _write_text(rec, "diagnostics.txt", "\n".join(lines))

    drivers = list(chosen.subset[1:])
    _write_irf_outputs(rec, model, drivers, scoring.irf_horizon, target)
    _write_fevd_outputs(rec, model, scoring.fevd_horizon, target)
    print(f"explainable rate of {target} at horizon {scoring.fevd_horizon}: {rate:.2f}%")
    return EXIT_OK


def cmd_irf(cfg: dict, base: Path, rec: RunRecorder) -> int:
    model = load_model(_cfg_path(cfg, "model", base, rec))
    shock = _cfg_get(cfg, "shock")
    horizon = _cfg_int(cfg, "horizon", 10)
    focus = cfg.get("variable", model.names[0])
    if focus not in model.names:
        raise ConfigError(f"variable: '{focus}' not in model ({', '.join(model.names)})")
    if _cfg_bool(cfg, "cumulative", False):
        cum = irf_cumulative(model, shock, horizon)
        line_chart(
            rec.output("irf.svg"),
            f"cumulative response to a unit {cum.shock} shock",
            [str(t) for t in range(horizon + 1)],
            [(name, cum.path[: horizon + 1, i]) for i, name in enumerate(model.names)],
        )
        _write_csv(
            rec,
            "irf.csv",
            ["shock", "step", *model.names],
            ([cum.shock, t, *(format_value(v) for v in cum.path[t])] for t in range(horizon + 1)),
        )
    else:
        _write_irf_outputs(rec, model, [shock], horizon, focus)
    return EXIT_OK


def cmd_fevd(cfg: dict, base: Path, rec: RunRecorder) -> int:
    model = load_model(_cfg_path(cfg, "model", base, rec))
    horizon = _cfg_int(cfg, "horizon", 10)
    focus = cfg.get("variable", model.names[0])
    if focus not in model.names:
        raise ConfigError(f"variable: '{focus}' not in model ({', '.join(model.names)})")
    ordering = None
    if "ordering" in cfg:
        ordering = tuple(part.strip() for part in cfg["ordering"].split(",") if part.strip())
    _write_fevd_outputs(rec, model, horizon, focus, ordering)
    return EXIT_OK


# ---------------------------------------------------------------- trend / ntl


def cmd_trend(cfg: dict, base: Path, rec: RunRecorder) -> int:
    frame = read_series_csv(_cfg_path(cfg, "series", base, rec))
    column = cfg.get("column", frame.names[0])
    period = _cfg_int(cfg, "period", 7)
    mode = cfg.get("mode", "mean")
    result = trend_transition(frame, column, period, mode, _cfg_float(cfg, "tol_fraction", 0.05))
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
    _write_text(
        rec,
        "transition.txt",
        "\n".join(
            [
                f"begin = {transition.begin.isoformat()}",
                f"end = {transition.end.isoformat()}",
                f"degenerate = {str(transition.degenerate).lower()}",
                f"mode = {mode}",
                f"period = {period}",
            ]
        ),
    )
    line_chart(
        rec.output("trend.svg"),
        f"{column}: {period}-day trend",
        [d.isoformat() for d in result.dates],
        [(column, raw), ("trend", result.trend)],
    )
    flag = " (degenerate)" if transition.degenerate else ""
    print(f"transition {transition.begin.isoformat()}..{transition.end.isoformat()}{flag}")
    return EXIT_OK


def cmd_ntl(cfg: dict, base: Path, rec: RunRecorder) -> int:
    grid_path = _cfg_path(cfg, "grid", base, rec)
    meta_path = None
    if "metadata" in cfg:
        meta_path = _cfg_path(cfg, "metadata", base, rec)
        meta = read_metadata(meta_path)
        for key in ("flags_grid", "lunar_angle_grid"):
            if key in meta:
                rec.record_input(meta_path.parent / meta[key])
    raster = load_raster(grid_path, meta_path)
    floor, smooth = _cfg_float(cfg, "floor", 10.0), _cfg_bool(cfg, "smooth", True)
    result = process_raster(raster, floor, smooth)
    write_grid(rec.output("processed.grid.txt"), result.raster.intensity)
    lines = [
        "# ntl-report/1",
        f"height = {raster.height}",
        f"width = {raster.width}",
        f"floor = {format_value(floor)}",
        f"smooth = {str(smooth).lower()}",
        f"colormap = {cfg.get('colormap', 'viridis')}",
        f"repaired = {len(result.repaired)}",
        f"isolated = {len(result.isolated)}",
    ]
    lines += [f"repaired,{r},{c}" for r, c in result.repaired]
    lines += [f"isolated,{r},{c}" for r, c in result.isolated]
    _write_text(rec, "ntl_report.txt", "\n".join(lines))
    print(f"{raster.height}x{raster.width} grid: {len(result.repaired)} repaired, {len(result.isolated)} isolated")
    return EXIT_OK


# ---------------------------------------------------------------- entry point

_COMMANDS = {
    "ingest": (cmd_ingest, "parse raw sources into cleaned wide tables plus QC reports"),
    "qc-report": (cmd_qc_report, "run outlier and gap checks over one wide table"),
    "backcast": (cmd_backcast, "train the baseline ensemble and compute daily reductions"),
    "analyze": (cmd_analyze, "model search plus diagnostics, responses, and variance shares"),
    "irf": (cmd_irf, "impulse responses of a saved model"),
    "fevd": (cmd_fevd, "forecast error variance shares of a saved model"),
    "search": (cmd_search, "sweep subsets, windows, orders, and rules for one admissible model"),
    "trend": (cmd_trend, "smoothed trend and regime-transition window of one series"),
    "ntl": (cmd_ntl, "repair, rescale, floor, and smooth a nighttime radiance grid"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridgap", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (func, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="key-value config file")
        sub.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
        sub.add_argument("--jobs", type=int, default=None, help=f"parallel workers (env {JOBS_ENV})")
        sub.add_argument("--out", default=None, help=f"output directory (env {OUT_ENV})")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg, base = _load_config(args.config)
        out, jobs = _resolve_out(args), _resolve_jobs(args)
        rec = RunRecorder(args.command, out, str(args.config), args.seed, jobs)
        rec.record_input(args.config)
        code = args.func(cfg, base, rec)
        rec.write()
        return code
    except (GridGapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
