"""Generate a self-contained synthetic data corpus for the demo pipeline.

Writes raw long-form load data with injected defects, two years of wide
hourly load and weather driven by a known seasonal function (with a 10%
consumption drop through the final April), an integrated three-variable
driver system for the model search, a regime-shift series for the trend
command, a small radiance grid with flagged pixels, and ready-to-run
config files for every subcommand.
"""

import argparse
import datetime as dt
from pathlib import Path

import numpy as np

from gridgap.frames import TimeSeriesFrame
from gridgap.ingest import WideHourlyTable, write_series_csv, write_wide_csv
from gridgap.ntl import write_grid, write_metadata


def daterange(n, start):
    first = dt.date.fromisoformat(start)
    return tuple(first + dt.timedelta(days=i) for i in range(n))


def write_raw_load(out: Path, rng) -> None:
    """Long-form CSV with one spike, one interior gap, and a duplicate row."""
    days = daterange(14, "2021-01-01")
    lines = ["day,h,mw"]
    for d in days:
        for h in range(24):
            if d == days[5] and h == 11:
                continue  # single missing hour, interpolated during QC
            v = 950 + 60 * np.sin(h / 24 * 2 * np.pi) + rng.normal(0, 5)
            if d == days[2] and h == 18:
                v *= 9
            lines.append(f"{d.isoformat()},{h},{v:.3f}")
    lines.append(lines[30])  # duplicate record, dropped during ingest
    (out / "raw_load.csv").write_text("\n".join(lines) + "\n")
    (out / "load.schema").write_text(
        "name = demo-feed\nkind = load\n"
        "date_column = day\nhour_column = h\nvalue_column = mw\n"
    )
    (out / "ingest.cfg").write_text(
        "source.load.data = raw_load.csv\nsource.load.schema = load.schema\n"
    )


BACKCAST_TABLES = ("load", "temperature", "humidity", "wind")


def write_backcast_tables(out: Path, rng, days, drop_month, names=BACKCAST_TABLES) -> None:
    """Hourly load driven by weather and calendar, with a 10% drop through
    ``drop_month`` (year, month), and its three weather tables: one wide CSV
    each, named ``names`` in the order of ``BACKCAST_TABLES``."""
    doy = np.array([d.timetuple().tm_yday for d in days])
    hours = np.arange(24)
    temp = (
        15
        + 10 * np.sin((doy[:, None] - 100) / 365 * 2 * np.pi)
        + 4 * np.sin(hours / 24 * 2 * np.pi)
    )
    hum = 60 + 20 * np.cos(doy[:, None] / 365 * 2 * np.pi) + 0.0 * hours
    wind = np.abs(8 + 3 * np.sin(doy[:, None] / 23) + 0.0 * hours)
    base = 900 + 120 * np.cos((doy - 30) / 365 * 2 * np.pi) + 3.0 * (temp.mean(axis=1) - 15)
    weekend = np.array([0.93 if d.weekday() >= 5 else 1.0 for d in days])
    load = base[:, None] * weekend[:, None] * (1 + 0.08 * np.sin(hours / 24 * 2 * np.pi))
    load = load + rng.normal(0, 4, load.shape)
    dropped = np.array([(d.year, d.month) == drop_month for d in days])
    load[dropped] *= 0.9
    arrays = (load, temp + 0 * load, hum + 0 * load, wind + 0 * load)
    for name, arr, kind in zip(names, arrays, BACKCAST_TABLES):
        write_wide_csv(WideHourlyTable(days, np.asarray(arr, float), kind), out / f"{name}.csv")


def write_backcast_corpus(out: Path, rng) -> None:
    write_backcast_tables(out, rng, daterange(851, "2019-01-01"), (2021, 4))  # through 2021-04-30
    common = (
        "load = load.csv\nweather.temperature = temperature.csv\n"
        "weather.humidity = humidity.csv\nweather.wind = wind.csv\ngdp = 1.0\n"
        "train_start = 2019-01-01\ntrain_end = 2021-02-28\n"
        "eval_start = 2021-03-01\neval_end = 2021-04-30\nsummary_month = 2021-04\n"
    )
    (out / "backcast.cfg").write_text(common + "candidates = 80\nepochs = 150\n")
    (out / "backcast_full.cfg").write_text(common + "candidates = 800\nepochs = 150\n")
    (out / "qc.cfg").write_text("table = load.csv\nkind = load\n")


DRIVER_A1 = np.array([[0.3, 0.35, -0.25], [0.0, 0.4, 0.2], [0.0, 0.1, 0.3]])


def driver_levels(rng, steps, names=("load", "mobility", "price"), start="2019-06-01"):
    """Integrated levels whose differences follow a small VAR(1), drawn after
    a 120-step burn-in."""
    x = np.zeros((steps + 120, 3))
    for t in range(1, steps + 120):
        x[t] = DRIVER_A1 @ x[t - 1] + rng.normal(0, 1, 3)
    levels = np.cumsum(x[120:], axis=0) + np.array([800.0, 60.0, 40.0])
    return TimeSeriesFrame(daterange(steps, start), names, levels)


def write_driver_system(out: Path, rng) -> None:
    """``driver_levels`` over 480 days, and an analyze config for them.

    The config sweeps several nested windows: the cointegration screen
    false-rejects individual windows now and then, and multiple starting
    points keep one unlucky window from sinking the whole search.
    """
    frame = driver_levels(rng, 480)
    write_series_csv(frame, out / "drivers.csv")
    start, end = frame.dates[0], frame.dates[-1]
    windows = ";".join(
        f"{start + dt.timedelta(days=30 * k)}..{end}" for k in range(8)
    )
    (out / "analyze.cfg").write_text(
        f"series = drivers.csv\ntarget = load\nranges = {windows}\n"
        "orders = 1,2,3\nrules = 1,2,3\nsign.mobility = 1\n"
    )


def write_trend_series(out: Path, rng) -> None:
    n = 150
    ramp = np.concatenate([np.full(60, 100.0), np.linspace(100, 62, 25), np.full(65, 62.0)])
    season = 5 * np.sin(np.arange(n) / 7 * 2 * np.pi)
    noise = rng.normal(0, 0.5, n)
    frame = TimeSeriesFrame(
        daterange(n, "2020-02-01"), ("onsite_workers",), (ramp + season + noise).reshape(-1, 1)
    )
    write_series_csv(frame, out / "mobility_trend.csv")
    (out / "trend.cfg").write_text("series = mobility_trend.csv\ncolumn = onsite_workers\n")


def write_radiance_grid(out: Path, rng) -> None:
    grid = rng.uniform(0.0, 80.0, (16, 16))
    grid[0:4, 0:4] *= 0.1  # dark quadrant, mostly floored away
    flags = np.zeros((16, 16))
    for r, c in ((3, 7), (9, 2), (12, 12)):
        flags[r, c] = 1
    write_grid(out / "radiance.grid.txt", grid)
    write_grid(out / "radiance.flags.txt", flags)
    write_grid(out / "radiance.angle.txt", np.full((16, 16), 0.4))
    write_metadata(
        out / "radiance.meta.txt",
        {
            "flags_grid": "radiance.flags.txt",
            "lunar_angle_grid": "radiance.angle.txt",
            "lunar_fraction": 0.62,
        },
    )
    (out / "ntl.cfg").write_text(
        "grid = radiance.grid.txt\nmetadata = radiance.meta.txt\nfloor = 10\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-data", help="corpus directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # one child stream per section, so edits to one never reshuffle another
    sections = (
        write_raw_load,
        write_backcast_corpus,
        write_driver_system,
        write_trend_series,
        write_radiance_grid,
    )
    for k, writer in enumerate(sections):
        writer(out, np.random.default_rng([args.seed, k]))
    print(f"synthetic corpus written to {out}/ ({len(list(out.iterdir()))} files)")


if __name__ == "__main__":
    main()
