"""Test-only helpers: fixtures and references that no command runs.

Each builds inputs for the tests or checks a result against an
independent computation, so it lives beside the tests rather than in
``gridgap``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from gridgap.backcast import QUANTILE_LEVELS, WEATHER_KINDS
from gridgap.backcast.network import _loss, _packed, _sizes, _Workspace, loss_and_grads
from gridgap.errors import FactorizationError, ParameterError
from gridgap.frames import _as_date


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


def moon_angle_grid(shape, zenith_deg: float) -> np.ndarray:
    """Constant lunar-angle grid, convenience for scenes with one moon position."""
    return np.full(shape, math.radians(zenith_deg), dtype=float)
