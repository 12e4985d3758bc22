"""Grid sweep over variable subsets, windows, orders, and restriction rules.

Each combination runs the same gate sequence: difference the levels, screen
the differences for unit roots, screen the levels for cointegration, build
the restriction mask from precedence tests, estimate, then check stability
and residual autocorrelation. Survivors are ranked by BIC with AIC as the
tie-breaker; response-sign requirements act as an admissibility filter.

Each (subset, window) is one unit of work that numbers and evaluates its own
orders and rules: its gates run once, and the precedence tests behind rules
2 and 3 once per order. Indices run over subset, window, order, then rule,
the last varying fastest, and the records come back in that order.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..blas import pool_map
from ..errors import NoModelError, ParameterError
from ..frames import TimeSeriesFrame
from ..rvar import (
    RVarModel,
    adf_test,
    criteria_from_residuals,
    durbin_watson,
    engle_granger,
    fevd,
    fit_restricted_var,
    irf,
    ljung_box,
    residuals,
    stability_test,
)
from ..rvar.ols import scipy_routines
from ..transforms import difference
from .masks import GRANGER_THRESHOLDS, explainable_rate, granger_pvalues, rule_mask

ORDER_RANGE = range(1, 8)


@dataclass(frozen=True)
class SearchSpace:
    variable_subsets: tuple[tuple[str, ...], ...]
    date_ranges: tuple[tuple[dt.date, dt.date], ...]
    orders: tuple[int, ...]
    rules: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        subsets = self.variable_subsets
        if not subsets:
            raise ParameterError("need at least one variable subset")
        target = subsets[0][0]
        for s in subsets:
            if len(s) < 2:
                raise ParameterError(f"subset {s} needs the target plus >= 1 driver")
            if s[0] != target:
                raise ParameterError(
                    f"every subset must lead with the target {target!r}, got {s}"
                )
            if len(set(s)) != len(s):
                raise ParameterError(f"duplicate name in subset {s}")
        if not self.date_ranges or not self.orders or not self.rules:
            raise ParameterError("date_ranges, orders and rules must be non-empty")
        for a, b in self.date_ranges:
            if a >= b:
                raise ParameterError(f"empty date range {a}..{b}")
        for o in self.orders:
            if o not in ORDER_RANGE:
                raise ParameterError(f"order {o} outside 1..7")
        for r in self.rules:
            if r not in (1, 2, 3):
                raise ParameterError(f"rule {r} outside {{1,2,3}}")

    def size(self) -> int:
        return (
            len(self.variable_subsets)
            * len(self.date_ranges)
            * len(self.orders)
            * len(self.rules)
        )


@dataclass(frozen=True)
class ScoringConfig:
    adf_alpha: float = 0.05
    lb_alpha: float = 0.05
    lb_lags: int = 40
    dw_range: tuple[float, float] = (1.5, 2.5)
    required_signs: dict[str, int] = field(default_factory=dict)
    irf_horizon: int = 10
    fevd_horizon: int = 10

    def __post_init__(self):
        for name in ("adf_alpha", "lb_alpha"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.lb_lags < 1:
            raise ParameterError(f"lb_lags must be >= 1, got {self.lb_lags}")
        if not self.dw_range[0] <= self.dw_range[1]:
            raise ParameterError(f"dw_lo must not exceed dw_hi, got {self.dw_range}")
        if self.irf_horizon < 0:
            raise ParameterError(f"irf_horizon must be >= 0, got {self.irf_horizon}")
        if self.fevd_horizon < 1:
            raise ParameterError(f"fevd_horizon must be >= 1, got {self.fevd_horizon}")
        for name, sign in self.required_signs.items():
            if sign not in (-1, 1):
                raise ParameterError(f"required sign for {name!r} must be -1 or +1")


@dataclass(frozen=True)
class CandidateRecord:
    index: int
    subset: tuple[str, ...]
    date_range: tuple[dt.date, dt.date]
    order: int
    rule: int
    status: str  # "ok" or "failed:<gate>"
    stats: dict = field(default_factory=dict)
    # the fitted model of an admissible record, None on a rejected one
    model: RVarModel | None = field(default=None, compare=False, repr=False)

    @property
    def admissible(self) -> bool:
        return self.status == "ok"


def _rank_key(record: CandidateRecord):
    """Least BIC first, AIC breaks ties, then enumeration order."""
    return (record.stats["bic"], record.stats["aic"], record.index)


@dataclass(frozen=True)
class SearchResult:
    records: tuple[CandidateRecord, ...]
    chosen: CandidateRecord  # the least-BIC admissible record, its model the one returned

    def ranked(self) -> tuple[CandidateRecord, ...]:
        """Admissible candidates by (BIC, AIC), then rejected ones in order."""
        ok = sorted((r for r in self.records if r.admissible), key=_rank_key)
        rest = [r for r in self.records if not r.admissible]
        return tuple(ok + rest)


def _window_stage(subset, date_range, frame: TimeSeriesFrame, scoring: ScoringConfig):
    """Gates that depend only on (subset, window).

    Returns ``(status, stats, diffed)``; ``status`` is None when the window
    passes and ``diffed`` is then the differenced window.
    """
    stats: dict = {}
    try:
        levels = frame.select(subset).slice_dates(*date_range)
    except Exception as exc:
        return f"failed:window ({exc})", stats, None
    try:
        diffed = difference(levels)
    except Exception as exc:
        return f"failed:difference ({exc})", stats, None

    for name in diffed.names:
        try:
            res = adf_test(diffed.column(name))
        except Exception as exc:
            return f"failed:adf:{name} ({exc})", stats, None
        stats[f"adf_p:{name}"] = res.pvalue
        if res.pvalue >= scoring.adf_alpha:
            return f"failed:adf:{name}", stats, None

    pvalues = engle_granger(levels)
    stats["coint_min_p"] = min(pvalues)
    if any(p < scoring.adf_alpha for p in pvalues):
        return "failed:cointegration", stats, None
    return None, stats, diffed


def _rule_stage(diffed: TimeSeriesFrame, order, rule, tests, stats, scoring: ScoringConfig):
    """Mask, fit and score one (order, rule); ``(status, model)``, filling ``stats``.

    ``tests`` is the order's ``granger_pvalues``, or the exception they
    raised, for a rule that thresholds precedence tests; a rule that does not
    ignores it. ``model`` is the fit of an admissible combination, which is
    what the search returns if it is chosen, else None.
    """
    try:
        if GRANGER_THRESHOLDS[rule] is not None and isinstance(tests, Exception):
            raise tests
        mask = rule_mask(order, diffed.n_columns, rule, tests)
        model = fit_restricted_var(diffed, p=order, mask=mask)
    except Exception as exc:
        return f"failed:fit ({exc})", None

    stab = stability_test(model)
    stats["max_modulus"] = stab.max_modulus
    if not stab.stable:
        return "failed:stability", None

    resid = residuals(model, diffed)
    lags = min(scoring.lb_lags, len(resid) - 1)
    for name, e in zip(model.names, resid.T):
        lb = ljung_box(e, lags)
        dw = durbin_watson(e)
        stats[f"lb_p:{name}"] = lb.pvalue
        stats[f"dw:{name}"] = dw
        if lb.pvalue < scoring.lb_alpha:
            return f"failed:whiteness:{name}", None
        if not scoring.dw_range[0] <= dw <= scoring.dw_range[1]:
            return f"failed:dw:{name}", None

    ic = criteria_from_residuals(model, resid)
    stats["aic"] = ic.aic
    stats["bic"] = ic.bic

    for driver in model.names[1:]:
        response = irf(model, shock=driver, horizon=scoring.irf_horizon)
        cumulative = float(response[:, 0].sum())
        stats[f"irf_cum:{driver}"] = cumulative
        required = scoring.required_signs.get(driver)
        if required is not None and np.sign(cumulative) not in (0, required):
            return f"failed:sign:{driver}", None

    shares = fevd(model, horizon=scoring.fevd_horizon)
    stats["explainable_rate"] = explainable_rate(shares)
    return "ok", model


def _evaluate_window(unit, frame: TimeSeriesFrame, space: SearchSpace, scoring: ScoringConfig):
    """Records of every (order, rule) of ``space`` for one ``(first, subset,
    date_range)`` unit, numbered from ``first`` with the rule varying fastest.

    The window gates run once; a rejected window gives all its combinations
    its verdict. On a passing window each order's precedence tests run once,
    before its rules, when some rule thresholds them: rules 2 and 3 both
    test at ``lags=order``, and a failed test fails each of them.
    """
    first, subset, date_range = unit
    window_status, window_stats, diffed = _window_stage(subset, date_range, frame, scoring)
    tested = window_status is None and any(GRANGER_THRESHOLDS[r] is not None for r in space.rules)
    records = []
    for order in space.orders:
        tests = None
        if tested:
            try:
                tests = granger_pvalues(diffed, order)
            except Exception as exc:
                tests = exc
        for rule in space.rules:
            stats, status, model = dict(window_stats), window_status, None
            if status is None:
                status, model = _rule_stage(diffed, order, rule, tests, stats, scoring)
            index = first + len(records)
            records.append(CandidateRecord(index, subset, date_range, order, rule, status, stats, model))
    return records


def run_search(
    frame: TimeSeriesFrame,
    space: SearchSpace,
    scoring: ScoringConfig | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Evaluate every combination, then pick the admissible one with least BIC.

    The chosen record carries the model the sweep fitted for it.

    Per-combination failures never abort the sweep; they are logged with the
    first gate that rejected the candidate. An empty admissible set raises a
    no-model error carrying every failure reason.

    Work is split into (subset, window) units: the window gates run once per
    unit and its orders and rules reuse them. With ``jobs > 1`` each unit is
    one pool task, on ``min(jobs, units)`` workers; one worker means no pool.
    ``pool_map`` yields the batches in unit order, so the records need no sort.
    The regressions are far too small to gain from BLAS threads, whose
    spinning only takes CPU from the sweep. The pool pins numpy's OpenBLAS to
    one thread while it runs, then restores it; scipy's, which runs the
    least squares, stays on one thread for good: scipy loads and is pinned
    on the first statistic, so the search loads it before any pool forks
    and its workers inherit the pin.
    """
    scoring = scoring or ScoringConfig()
    missing = {name for subset in space.variable_subsets for name in subset} - set(frame.names)
    if missing:
        raise ParameterError(f"frame lacks columns {sorted(missing)}")
    per_window = len(space.orders) * len(space.rules)
    windows = itertools.product(space.variable_subsets, space.date_ranges)
    units = [(k * per_window, *window) for k, window in enumerate(windows)]
    scipy_routines()  # loads and pins scipy here, so that forked workers inherit the pin
    batches = pool_map(_evaluate_window, units, (frame, space, scoring), min(jobs, len(units)))
    records = [r for batch in batches for r in batch]
    admissible = [r for r in records if r.admissible]
    if not admissible:
        raise NoModelError(
            "no combination passed every gate",
            [(r.index, r.status) for r in records],
        )
    return SearchResult(tuple(records), min(admissible, key=_rank_key))


_PARAM_COLUMNS = ("index", "subset", "start", "end", "order", "rule", "status")
# stats columns that lead the log; every other stat follows in sorted order
_STAT_COLUMNS = ("aic", "bic", "explainable_rate", "max_modulus")


def search_log_csv(result: SearchResult) -> str:
    """One CSV row per combination: parameters, key statistics, verdict."""
    records = result.records
    extra = sorted({k for r in records for k in r.stats if k not in _STAT_COLUMNS})
    stat_keys = _STAT_COLUMNS + tuple(extra)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_PARAM_COLUMNS + stat_keys)
    for r in records:
        row = [
            str(r.index),
            "|".join(r.subset),
            r.date_range[0].isoformat(),
            r.date_range[1].isoformat(),
            str(r.order),
            str(r.rule),
            r.status,
        ]
        for key in stat_keys:
            v = r.stats.get(key)
            row.append("" if v is None else repr(float(v)))
        writer.writerow(row)
    return out.getvalue()
