"""Test-only helpers: fixtures and references that no command runs.

Each builds inputs for the tests or checks a result against an
independent computation, so it lives beside the tests rather than in
``gridgap``.
"""

from __future__ import annotations

import base64
import datetime as dt
import itertools
import math
from dataclasses import dataclass

import numpy as np

from gridgap.backcast import QUANTILE_LEVELS, WEATHER_KINDS
from gridgap.backcast.network import _loss, _packed, _sizes, _Workspace, loss_and_grads
from gridgap.errors import FactorizationError, ParameterError
from gridgap.frames import _as_date
from gridgap.ingest import QcReport, WideHourlyTable


@dataclass(frozen=True)
class CalendarInfo:
    """Calendar attributes of one date as used by the feature builder."""

    date: dt.date
    month: int
    day: int
    weekday: int  # Monday == 0
    holiday_flag: bool

    def __post_init__(self):
        d = _as_date(self.date)
        object.__setattr__(self, "date", d)
        if (self.month, self.day, self.weekday) != (d.month, d.day, d.weekday()):
            raise ParameterError(
                f"calendar fields inconsistent with {d}: "
                f"month={self.month} day={self.day} weekday={self.weekday}"
            )

    @classmethod
    def from_date(cls, d, holidays=frozenset()) -> "CalendarInfo":
        d = _as_date(d)
        return cls(d, d.month, d.day, d.weekday(), d in holidays)


def feature_names() -> tuple[str, ...]:
    """Column labels of the feature rows, in order."""
    names = [f"month_{m}" for m in range(1, 13)]
    names += [f"weekday_{w}" for w in range(7)]
    names += ["holiday", "day_scaled"]
    for kind in WEATHER_KINDS:
        names += [f"{kind}_q{int(round(q * 100))}" for q in QUANTILE_LEVELS]
    names.append("gdp_growth")
    return tuple(names)


def _pattern(ws: _Workspace) -> list[bytes]:
    """Which rectifier units the last forward pass in ``ws`` switched on."""
    return [np.greater(out, 0.0, out=mask).tobytes() for out, mask in zip(ws.outs[:-1], ws.masks)]


def gradient_check(params, x: np.ndarray, y: np.ndarray, samples: int = 24,
                   eps: float = 1e-6, rng: np.random.Generator | None = None) -> float:
    """Largest relative gap between backprop and central differences.

    Probes ``samples`` randomly chosen coordinates; exhaustive checking is
    quadratic in parameter count and only worth it on toy problems. Probes
    whose perturbation flips a rectifier on or off are skipped: the loss has
    a kink there and the two-sided difference measures nothing meaningful.
    """
    rng = rng or np.random.default_rng(0)
    xt = np.ascontiguousarray(x.T)
    ws = _Workspace(_sizes(params), x.shape[0])
    loss_and_grads(params, xt.T, y, ws)
    flat, probe = _packed(params)
    worst = 0.0
    chosen = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
    for c in chosen:
        c = int(c)
        original = flat[c]
        flat[c] += eps
        up = _loss(probe, xt, y, ws)
        pattern_up = _pattern(ws)
        flat[c] -= 2 * eps
        down = _loss(probe, xt, y, ws)
        pattern_down = _pattern(ws)
        flat[c] = original
        if pattern_up != pattern_down:
            continue
        numeric = (up - down) / (2 * eps)
        analytic = ws.grad[c]  # _loss leaves the gradient buffer alone
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def simulate_var(
    coeffs: np.ndarray,
    intercept: np.ndarray,
    sigma_e: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    burn: int = 200,
) -> np.ndarray:
    """Draw a sample path of a VAR with Gaussian shocks.

    ``sigma_e`` may be merely positive semi-definite (a zero matrix gives the
    deterministic path), so the factor falls back to an eigendecomposition
    when Cholesky refuses.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    p, n, _ = coeffs.shape
    sigma = np.asarray(sigma_e, dtype=np.float64)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(sigma)
        if w.min() < -1e-10 * max(1.0, w.max()):
            raise FactorizationError("shock covariance has a negative eigenvalue") from None
        chol = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    total = steps + burn + p
    x = np.zeros((total, n))
    shocks = rng.standard_normal((total, n)) @ chol.T
    for t in range(p, total):
        acc = intercept + shocks[t]
        for k in range(1, p + 1):
            acc = acc + coeffs[k - 1] @ x[t - k]
        x[t] = acc
    return x[burn + p :]


def reference_irf(model, shock: str, horizon: int) -> np.ndarray:
    """``irf`` as a generator of steps, each summing the last p responses
    newest first; ``irf``'s array loop sums in the same order."""

    def steps():
        step = np.zeros(model.n_vars)
        step[model.shock_index(shock)] = 1.0
        recent: list[np.ndarray] = []  # the last p responses, newest first
        while True:
            yield step
            recent = [step] + recent[: model.p - 1]
            step = np.zeros(model.n_vars)
            for coeff, lagged in zip(list(model.coeffs), recent):
                step += coeff @ lagged

    return np.array(list(itertools.islice(steps(), horizon + 1)))


def reference_fevd(model, horizon: int, ordering) -> np.ndarray:
    """``fevd`` that factors the permuted covariance, then un-permutes the
    factor's rows once and each step's shock columns, where ``fevd`` places
    the factor in model order once."""
    n = model.n_vars
    perm = [model.shock_index(name) for name in ordering]
    chol = np.linalg.cholesky(model.sigma_e[np.ix_(perm, perm)])
    s = np.empty_like(chol)
    s[perm, :] = chol
    companion = model.companion()
    power = np.eye(companion.shape[0])
    numer = np.zeros((n, n))
    mse = np.zeros(n)
    shares = np.empty((horizon, n, n))
    for h in range(1, horizon + 1):
        b = power[:n, :n] @ s
        b_unperm = np.empty_like(b)
        b_unperm[:, perm] = b
        numer += b_unperm**2
        mse += (b_unperm**2).sum(axis=1)
        shares[h - 1] = numer / mse[:, None]
        power = power @ companion
    return shares


def moon_angle_grid(shape, zenith_deg: float) -> np.ndarray:
    """Constant lunar-angle grid, convenience for scenes with one moon position."""
    return np.full(shape, math.radians(zenith_deg), dtype=float)


def reference_fill_missing(table: WideHourlyTable, backup: WideHourlyTable | None = None):
    """``qc_fill_missing`` as a scan over every cell and every run of gaps.

    Each run of missing cells is found in full; a run of one with a
    neighbour on both sides takes their midpoint, and every other cell
    reads the backup through a lookup of all its observed cells. The scan
    treats the rows as consecutive days, so it is the reference only for
    a table without skipped days, which is all the oracle in ``test_qc.py``
    builds; a neighbour across a skipped day is ``TestFillMissing``'s case.
    """
    report = QcReport()
    flat = np.array(table.values).reshape(-1)
    n = flat.shape[0]
    backup_lookup = {}
    if backup is not None:
        for i, d in enumerate(backup.dates):
            for h in range(24):
                v = backup.values[i, h]
                if not np.isnan(v):
                    backup_lookup[(d, h)] = float(v)
    pos = 0
    while pos < n:
        if not np.isnan(flat[pos]):
            pos += 1
            continue
        run_end = pos
        while run_end + 1 < n and np.isnan(flat[run_end + 1]):
            run_end += 1
        interpolatable = run_end == pos and pos > 0 and run_end < n - 1
        for p in range(pos, run_end + 1):
            d, h = table.dates[p // 24], p % 24
            if interpolatable:
                filled = 0.5 * (flat[p - 1] + flat[p + 1])
                flat[p] = filled
                report.fills.append((d, h, "interpolated", float(filled)))
            elif (d, h) in backup_lookup:
                filled = backup_lookup[(d, h)]
                flat[p] = filled
                report.fills.append((d, h, "backup", float(filled)))
            else:
                report.unresolved.append((d, h))
        pos = run_end + 1
    return WideHourlyTable(table.dates, flat.reshape(-1, 24), table.kind), report


def reference_repair(grid: np.ndarray, flags: np.ndarray):
    """``repair_pixels`` as a loop over flagged pixels, each summing its good
    in-grid neighbours in row-major kernel order."""
    bad = flags != 0
    fixed = grid.copy()
    repaired, isolated = [], []
    h, w = grid.shape
    for r, c in zip(*np.nonzero(bad)):
        total = 0.0
        count = 0
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if (dr or dc) and 0 <= rr < h and 0 <= cc < w and not bad[rr, cc]:
                    total += grid[rr, cc]
                    count += 1
        if count:
            fixed[r, c] = total / count
            repaired.append((int(r), int(c)))
        else:
            fixed[r, c] = 0.0
            isolated.append((int(r), int(c)))
    return fixed, tuple(repaired), tuple(isolated)


def brute_lowpass(grid: np.ndarray) -> np.ndarray:
    """Straightforward double loop; clamped indices replicate the edges."""
    h, w = grid.shape
    out = np.zeros_like(grid)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for dr in range(-2, 3):
                for dc in range(-2, 3):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    acc += grid[rr, cc]
            out[r, c] = acc / 25.0
    return out


def lexsort_selection(metrics, keep_count: int) -> tuple[list[int], np.ndarray]:
    """Which candidates ``train_ensemble`` keeps, as it once chose them after
    collecting every candidate: the ``keep_count`` least ``(metric, index)``
    by ``np.lexsort``, NaN last, in index order; and the metrics array."""
    metrics = np.array([float(m) for m in metrics])
    order = np.lexsort((np.arange(len(metrics)), metrics))
    return sorted(int(k) for k in order[:keep_count]), metrics


# -- ensemble.json array blocks: {"shape": [...], "f8": "<base64 of '<f8' bytes>"}


def decoded_block(block) -> np.ndarray:
    return np.frombuffer(base64.b64decode(block["f8"]), "<f8").reshape(block["shape"])


def encoded_block(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "f8": base64.b64encode(a.astype("<f8").tobytes()).decode()}


def drop_last_row(block) -> None:
    """Shorten an array block by its last row: still a valid array, one that does not fit."""
    block.update(encoded_block(decoded_block(block)[:-1]))


def truncate_f8(block) -> None:
    block["f8"] = block["f8"][:-1]


def spoil_base64(block) -> None:
    block["f8"] = block["f8"][:8] + "*" + block["f8"][9:]


def negate_shape(block) -> None:
    """Negative dimensions whose product is still the element count."""
    block["shape"] = [-d for d in block["shape"]]


def record_candidate(payload, metric: float) -> None:
    """Add one candidate, with held-out ``metric``, to a saved ensemble's sweep."""
    payload["config"]["candidates"] += 1
    payload["all_metrics"].append(metric)


def as_format_1(payload) -> None:
    """Rewrite a saved ensemble as format ``backcast-ensemble/1`` held it: arrays as
    JSON lists of decimals."""
    payload["format"] = "backcast-ensemble/1"
    for key in ("input_mean", "input_std"):
        payload[key] = decoded_block(payload[key]).tolist()
    for model in payload["models"]:
        for layer in model["layers"]:
            layer.update(w=decoded_block(layer["w"]).tolist(), b=decoded_block(layer["b"]).tolist())
