import datetime as dt
import os

import numpy as np
import pytest

import gridgap
from gridgap import TimeSeriesFrame
from gridgap.ingest import WideHourlyTable


def src_env(**extra):
    """The environment with this checkout's src/ first on PYTHONPATH, plus
    ``extra``, for a child interpreter."""
    src = os.path.dirname(os.path.dirname(gridgap.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


def make_dates(n, start="2020-01-01"):
    first = dt.date.fromisoformat(start)
    return tuple(first + dt.timedelta(days=i) for i in range(n))


def make_frame(values, names=None, start="2020-01-01"):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if names is None:
        names = tuple(f"x{i}" for i in range(values.shape[1]))
    return TimeSeriesFrame(make_dates(values.shape[0], start), names, values)


def sine_day(amplitude=20.0, level=100.0):
    hours = np.arange(24)
    return level + amplitude * np.sin(2 * np.pi * hours / 24.0)


def make_hourly_table(n_days, kind="load", start="2020-01-01", amplitude=20.0, level=100.0):
    rows = np.tile(sine_day(amplitude, level), (n_days, 1))
    return WideHourlyTable(make_dates(n_days, start), rows, kind)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
