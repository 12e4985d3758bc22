"""Ensemble training, counterfactual prediction, and reduction arithmetic.

Many candidate networks are trained on independent random subsamples; the
quarter with the lowest held-out error survives. Candidate index i draws its
private stream from (seed, i). Enough training work runs on a process pool,
one candidate per task, with numpy's OpenBLAS pinned to one thread in every
worker; less runs in a plain loop. So the result is the same whatever
``jobs``, the core count and the pool's start method. The best are picked as
the candidates finish, so this process holds the weights of the kept members
only, never all candidates'; saving writes the file one member at a time.
"""

from __future__ import annotations

import base64
import heapq
import json
import math
import multiprocessing
import numbers
from calendar import month_name
from dataclasses import asdict, dataclass, fields

import numpy as np

from .. import blas
from ..errors import (
    CoverageError,
    DomainError,
    InsufficientDataError,
    MissingValueError,
    ParameterError,
    SchemaError,
)
from ..ingest import WideHourlyTable
from .features import QUANTILE_LEVELS, WEATHER_KINDS
from .network import forward, train_network

ENSEMBLE_FORMAT = "backcast-ensemble/2"
PREDICTION_LEVELS = (0.10, 0.25, 0.75, 0.90)
# every ensemble file's feature_config block: the one layout feature_matrix builds
FEATURE_LAYOUT = {"quantile_levels": list(QUANTILE_LEVELS), "weather_kinds": list(WEATHER_KINDS)}

# split redraws allowed before giving up on covering all twelve months
_MAX_SPLIT_TRIES = 200


@dataclass(frozen=True)
class TrainingConfig:
    candidates: int = 800
    keep_fraction: float = 0.25
    split: float = 0.85
    width_range: tuple[int, int] = (8, 64)
    seed: int = 0
    epochs: int = 400
    learning_rate: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "width_range", tuple(int(w) for w in self.width_range))
        if self.candidates < 1:
            raise ParameterError(f"candidates must be >= 1, got {self.candidates}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ParameterError(f"keep_fraction {self.keep_fraction} outside (0, 1]")
        if not 0.0 < self.split < 1.0:
            raise ParameterError(f"split {self.split} outside (0, 1)")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate < np.inf:
            rate = self.learning_rate
            raise ParameterError(f"learning_rate must be finite and positive, got {rate}")
        lo, hi = self.width_range
        if lo < 1 or hi < lo:
            raise ParameterError(f"width_range {self.width_range} must satisfy 1 <= lo <= hi")

    @property
    def keep_count(self) -> int:
        return max(1, int(self.candidates * self.keep_fraction + 1e-9))


def _is_number(value) -> bool:
    """Whether ``value`` is a real number, NaN included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class BaseModel:
    index: int
    widths: tuple[int, ...]
    metric: float
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if isinstance(self.index, bool) or not isinstance(self.index, numbers.Integral):
            raise ParameterError(f"member index {self.index!r} is not an integer")
        if not _is_number(self.metric):
            raise ParameterError(f"member metric {self.metric!r} is not a number")
        object.__setattr__(self, "index", int(self.index))
        object.__setattr__(self, "metric", float(self.metric))
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(
            self,
            "layers",
            tuple(
                (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                for w, b in self.layers
            ),
        )
        if len(self.layers) != 4:
            raise ParameterError(f"expected 4 weight layers, got {len(self.layers)}")
        fan_in = None
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.shape != w.shape[1:] or fan_in not in (None, w.shape[0]):
                raise ParameterError(f"layer {i}: W {w.shape} and b {b.shape} do not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ParameterError("non-finite weight in base model")
            fan_in = w.shape[1]
        if fan_in != 1:
            raise ParameterError(f"last layer has {fan_in} outputs, expected 1")
        hidden = tuple(w.shape[1] for w, _ in self.layers[:3])
        if self.widths != hidden:
            raise ParameterError(f"widths {self.widths} differ from the hidden layers {hidden}")


@dataclass(frozen=True)
class BackcastEnsemble:
    models: tuple[BaseModel, ...]
    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: float
    target_std: float
    config: TrainingConfig
    # every candidate's held-out metric in index order
    all_metrics: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "input_mean", np.asarray(self.input_mean, dtype=np.float64))
        object.__setattr__(self, "input_std", np.asarray(self.input_std, dtype=np.float64))
        if not self.models:
            raise ParameterError("ensemble needs at least one member")
        candidates = self.config.candidates
        indices = {m.index for m in self.models}
        if len(indices) != len(self.models) or not 0 <= min(indices) <= max(indices) < candidates:
            raise ParameterError(f"member indices must be distinct and in [0, {candidates})")
        metrics = () if self.all_metrics is None else tuple(self.all_metrics)
        if len(metrics) != candidates or not all(map(_is_number, metrics)):
            raise ParameterError(f"all_metrics must hold {candidates} numbers, one per candidate")
        metrics = tuple(map(float, metrics))
        object.__setattr__(self, "all_metrics", metrics)
        # the members are the candidates training keeps, each with its own metric
        for m in self.models:
            recorded = metrics[m.index]
            if m.metric != recorded and not (math.isnan(m.metric) and math.isnan(recorded)):
                raise ParameterError(
                    f"member {m.index} has metric {m.metric}, all_metrics records {recorded}"
                )
        keep_count = self.config.keep_count
        best, _ = _keep_best(enumerate(metrics), keep_count)
        if indices != {index for index, _ in best}:
            raise ParameterError(
                f"members are not the {keep_count} candidates of least metric in all_metrics"
            )
        dim = self.models[0].layers[0][0].shape[0]
        for m in self.models:
            if m.layers[0][0].shape[0] != dim:
                raise ParameterError("members disagree on feature dimension")
        if self.input_mean.shape != (dim,) or self.input_std.shape != (dim,):
            raise ParameterError("normalization parameters do not match feature dimension")
        # predictions divide by the input stds and scale by target_std: a zero,
        # negative or non-finite value would turn them into nan, inf or a mirror
        means = np.append(self.input_mean, self.target_mean)
        stds = np.append(self.input_std, self.target_std)
        if not (np.isfinite(means).all() and np.isfinite(stds).all() and (stds > 0.0).all()):
            raise ParameterError("normalization means must be finite, and stds finite and positive")

    @property
    def dimension(self) -> int:
        return self.models[0].layers[0][0].shape[0]

    def member_predictions(self, features: np.ndarray) -> np.ndarray:
        """(members, rows) raw predictions on the original target scale."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.dimension:
            raise SchemaError(
                f"feature dimension {features.shape[1]} != ensemble dimension {self.dimension}"
            )
        # forward reads x.T, a view of a Fortran-ordered array: no member copies z
        z = np.asfortranarray((features - self.input_mean) / self.input_std)
        preds = np.vstack([forward(m.layers, z) for m in self.models])
        return self.target_mean + self.target_std * preds


# -- workers -----------------------------------------------------------------

# Least training work, candidates x epochs, that repays starting the pool
# twice over, per start method: 2 x start-up / saving per candidate-epoch.
# Measured on a 2-vCPU box at jobs=2, 790 training rows, widths 8-64: in the
# plain loop a candidate-epoch costs about 1 ms (16 x 150 took 2.2-2.8 s), so
# two workers save about 0.5 ms each. A fork pool starts in about 35 ms wall
# (2 x 5: 46-52 ms on the pool, 21 ms in the loop) and 70 ms CPU, the
# parent's BLAS restart spin included. forkserver and spawn workers import
# numpy first: at 16 x 150 and 32 x 150 they finished about 0.45 s and
# 0.65 s behind an even split of the loop's time (fork about 1.3 s).
_POOL_MIN_WORK = {"fork": 150, "forkserver": 1800, "spawn": 2600}


def training_workers(candidates: int, epochs: int, jobs: int) -> tuple[int, int | None]:
    """Processes that ``train_ensemble`` trains on, and the BLAS budget it reads.

    The budget is numpy's OpenBLAS thread count (it honours
    ``OPENBLAS_NUM_THREADS``), read before the pool pins it to one thread.
    Training spends it on worker processes instead: ``min(candidates,
    max(jobs, budget))`` of them, or 1, a plain loop in this process, when
    ``candidates * epochs`` is below the start method's threshold. Without
    an OpenBLAS handle the budget is None and counts as one.
    """
    handle = blas.openblas()
    budget = None if handle is None else handle[0]()
    if candidates * epochs < _POOL_MIN_WORK[multiprocessing.get_start_method()]:
        return 1, budget
    return min(candidates, max(jobs, budget or 1)), budget


# -- candidate training ------------------------------------------------------


def _train_candidate(index, x, y_std, y_orig, target_mean, target_std, months, config: TrainingConfig):
    rng = np.random.default_rng((config.seed, index))
    lo, hi = config.width_range
    widths = tuple(int(v) for v in rng.integers(lo, hi + 1, size=3))
    n = x.shape[0]
    train_count = int(n * config.split)
    for _ in range(_MAX_SPLIT_TRIES):
        perm = rng.permutation(n)
        held = perm[train_count:]
        if len(set(months[held])) == 12:
            break
    else:
        raise CoverageError(
            f"candidate {index}: held-out sample never covered all 12 months"
        )
    train_idx = perm[:train_count]
    params, _ = train_network(
        x[train_idx],
        y_std[train_idx],
        widths,
        rng,
        epochs=config.epochs,
        learning_rate=config.learning_rate,
    )
    pred_held = target_mean + target_std * forward(params, x[held])
    metric = _monthly_norm(months[held], pred_held, y_orig[held])
    return index, metric, widths, params


def _monthly_norm(held_months, pred, actual) -> float:
    """L2 norm of the 12 mean absolute monthly errors."""
    errs = np.abs(pred - actual)
    vec = np.empty(12)
    for m in range(1, 13):
        sel = held_months == m
        vec[m - 1] = errs[sel].mean()
    return float(np.sqrt(vec @ vec))


def train_ensemble(
    features: np.ndarray,
    targets,
    dates,
    config: TrainingConfig | None = None,
    jobs: int = 1,
) -> BackcastEnsemble:
    """Train all candidates and keep the lowest-metric quarter.

    Requires at least a year of rows covering every calendar month, finite
    features and strictly positive, finite targets. Candidates train on
    ``training_workers(candidates, epochs, jobs)`` processes, one meaning a
    plain loop. The pool pins numpy's OpenBLAS to one thread while it runs
    and restores it afterwards, so models and metrics do not depend on
    ``jobs``, the core count or ``OPENBLAS_NUM_THREADS``. Concurrent calls
    in one process train one after another.
    """
    config = config or TrainingConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    dates = list(dates)
    if x.ndim != 2 or x.shape[0] != len(y) or len(dates) != len(y):
        raise ParameterError(
            f"features {x.shape}, targets {y.shape}, dates {len(dates)} do not align"
        )
    if len(y) < 365:
        raise InsufficientDataError(f"need >= 365 training days, have {len(y)}")
    months = np.array([d.month for d in dates])
    if len(set(months.tolist())) < 12:
        raise CoverageError(
            f"training span covers {len(set(months.tolist()))} months; need all 12"
        )
    if (y <= 0).any():
        bad = dates[int(np.argmax(y <= 0))]
        raise DomainError(f"non-positive target on {bad}")
    if not np.isfinite(x).all():
        raise ParameterError("non-finite feature value")
    finite = np.isfinite(y)
    if not finite.all():
        raise ParameterError(f"non-finite target on {dates[int(np.argmin(finite))]}")

    input_mean = x.mean(axis=0)
    input_std = x.std(axis=0)
    input_std[input_std == 0.0] = 1.0
    target_mean = float(y.mean())
    target_std = float(y.std()) or 1.0
    xz = (x - input_mean) / input_std
    yz = (y - target_mean) / target_std

    args = (xz, yz, y, target_mean, target_std, months, config)
    # without an OpenBLAS handle the pool pins nothing: outputs then depend on
    # that BLAS's own threading, and its threads may oversubscribe
    workers, _ = training_workers(config.candidates, config.epochs, jobs)
    results = blas.pool_map(_train_candidate, range(config.candidates), args, workers)
    kept, metrics = _keep_best(results, config.keep_count)
    models = tuple(BaseModel(i, widths, metric, params) for i, metric, widths, params in kept)
    return BackcastEnsemble(
        models, input_mean, input_std, target_mean, target_std, config, metrics
    )


def _keep_best(results, keep_count: int):
    """``(kept, metrics)``: the ``keep_count`` of ``results``, each led by
    ``(index, metric)``, with least ``(metric, index)``, NaN last, in index
    order, and every candidate's metric in index order.

    ``results`` arrive in index order. Only the best so far are held, so
    memory grows with ``keep_count``, not with the candidates.
    """
    metrics = []
    # the kept so far on a min-heap of the negated sort key (nan, metric,
    # index): the worst kept sits on top, to be pushed out by a better one
    worst_first = []
    for result in results:
        index, metric = result[:2]
        metrics.append(metric)
        nan = math.isnan(metric)
        entry = ((-nan, 0.0 if nan else -metric, -index), result)
        if len(worst_first) < keep_count:
            heapq.heappush(worst_first, entry)
        else:
            heapq.heappushpop(worst_first, entry)
    kept = sorted((result for _, result in worst_first), key=lambda r: r[0])
    return kept, tuple(metrics)


# -- prediction and reduction -------------------------------------------------


def predict_many(ensemble: BackcastEnsemble, features: np.ndarray):
    """Ensemble means and member quantiles per row: (points, {level: values}).

    Member predictions are sorted before aggregation, so the output is
    bit-identical under any permutation of the members.
    """
    preds = np.sort(ensemble.member_predictions(features), axis=0)
    points = preds.mean(axis=0)
    qs = np.quantile(preds, PREDICTION_LEVELS, axis=0, method="linear")
    return points, {lvl: qs[i] for i, lvl in enumerate(PREDICTION_LEVELS)}


def reduction_series(
    ensemble: BackcastEnsemble, features: np.ndarray, dates, actual: WideHourlyTable
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Daily reduction of observed consumption against the backcast:
    (points, {level: bounds}), one value per date.

    A day's rate is the percent shortfall of its observed daily mean, which
    must not be negative, against a positive baseline. The point rate uses
    the ensemble mean as baseline; each interval bound applies the same
    arithmetic to the corresponding member quantile, so the bounds rise
    with their level.
    """
    dates = list(dates)
    if len(dates) != np.atleast_2d(features).shape[0]:
        raise ParameterError("features and dates do not align")
    index = {d: i for i, d in enumerate(actual.dates)}
    missing = [d for d in dates if d not in index]
    if missing:
        raise ParameterError(f"observed table has no row for {missing[0]}")
    observed = actual.values[[index[d] for d in dates]]
    if np.isnan(observed).any():
        raise MissingValueError("actual day has missing hours; run QC first")
    daily = observed.mean(axis=1)
    if (daily < 0).any():
        raise DomainError(f"negative observed daily mean on {dates[int(np.argmax(daily < 0))]}")

    def rates(baseline):
        bad = baseline <= 0
        if bad.any():
            raise DomainError(f"baseline must be positive, got {baseline[np.argmax(bad)]}")
        return (1.0 - daily / baseline) * 100.0

    points, quantiles = predict_many(ensemble, features)
    return rates(points), {lvl: rates(b) for lvl, b in quantiles.items()}


def monthly_row(dates, points, bounds, year: int, month: int, min_days: int) -> str:
    """The ``summary.txt`` row of one month of ``reduction_series``' output
    on ``dates``: the mean daily reduction with the mean 10/90 bounds. A
    month needs at least one date, whatever ``min_days``."""
    sel = [i for i, d in enumerate(dates) if (d.year, d.month) == (year, month)]
    need = max(min_days, 1)
    if len(sel) < need:
        raise CoverageError(f"{year}-{month:02d} has {len(sel)} reduction days; need >= {need}")
    mean, low, high = (float(a[sel].mean()) for a in (points, bounds[0.10], bounds[0.90]))
    return f"Average in {month_name[month]}: {mean:.2f}% [{low:.2f}, {high:.2f}]"


# -- serialization -------------------------------------------------------------


def _encode(a: np.ndarray) -> dict:
    """An array as its shape and the base64 of its little-endian float64 bytes."""
    data = a.astype("<f8", copy=False).tobytes()
    return {"shape": list(a.shape), "f8": base64.b64encode(data).decode("ascii")}


def _decode(block: dict) -> np.ndarray:
    """The array ``_encode`` wrote; ValueError, TypeError or KeyError if ``block``
    is not one."""
    shape = block["shape"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"shape {shape!r} is not a list of integers >= 0")
    data = base64.b64decode(block["f8"], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{len(data)} bytes do not hold a float64 array of shape {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def save_ensemble(ensemble: BackcastEnsemble, path) -> None:
    """Write ``ensemble`` to ``path`` in format ``ENSEMBLE_FORMAT``: arrays as
    exact float64 bytes (``_encode``), scalars and metrics as JSON numbers.

    The file is written one member at a time, in the bytes ``json.dumps``
    gives the whole payload, so memory grows with one member, not the file."""
    head = {
        "format": ENSEMBLE_FORMAT,
        "feature_config": FEATURE_LAYOUT,
        "input_mean": _encode(ensemble.input_mean),
        "input_std": _encode(ensemble.input_std),
        "target_mean": ensemble.target_mean,
        "target_std": ensemble.target_std,
        "config": asdict(ensemble.config),
        "all_metrics": list(ensemble.all_metrics),
    }
    # "models" is the payload's last key, so the head's dumps less its closing
    # brace leads the file. Each piece is a dumps call, which runs CPython's C
    # encoder; json.dump would stream through the Python one.
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "models": [')
        for i, m in enumerate(ensemble.models):
            member = {
                "index": m.index,
                "widths": list(m.widths),
                "metric": m.metric,
                "layers": [{"w": _encode(w), "b": _encode(b)} for w, b in m.layers],
            }
            if i:
                fh.write(", ")
            fh.write(json.dumps(member))
        fh.write("]}")


def _config_from(cls, block: dict):
    """``cls`` from the block ``asdict`` saved: every field, and no other key."""
    names = sorted(f.name for f in fields(cls))
    if sorted(block) != names:
        raise ValueError(f"{cls.__name__} keys {sorted(block)}, expected {names}")
    return cls(**block)


def load_ensemble(path, raw: bytes) -> BackcastEnsemble:
    """The ensemble in ``raw``, the bytes of the ``save_ensemble`` file
    ``path``; a malformed one, or one of another format, raises ``SchemaError``.
    Files of format ``backcast-ensemble/1`` (arrays as JSON decimals) are not
    read: retrain the ensemble."""
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise SchemaError(f"{path}: not a JSON file ({exc})") from None
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != ENSEMBLE_FORMAT:
        raise SchemaError(
            f"{path}: ensemble format {fmt!r} is not read, expected {ENSEMBLE_FORMAT!r}; retrain it"
        )
    try:
        layout = payload["feature_config"]
        if layout != FEATURE_LAYOUT:
            raise ValueError(f"feature layout {layout}, expected {FEATURE_LAYOUT}")
        models = tuple(
            BaseModel(
                m["index"],
                tuple(m["widths"]),
                m["metric"],
                tuple((_decode(l["w"]), _decode(l["b"])) for l in m["layers"]),
            )
            for m in payload["models"]
        )
        return BackcastEnsemble(
            models,
            _decode(payload["input_mean"]),
            _decode(payload["input_std"]),
            payload["target_mean"],
            payload["target_std"],
            _config_from(TrainingConfig, payload["config"]),
            payload["all_metrics"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed ensemble ({type(exc).__name__}: {exc})") from None
