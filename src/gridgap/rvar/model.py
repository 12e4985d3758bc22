"""Restricted vector autoregression: estimation and serialization.

The model is

    x_t = c + A_1 x_{t-1} + ... + A_p x_{t-p} + e_t

where individual entries of the A_k can be constrained to exactly zero via a
boolean mask.  Estimation is equation-by-equation least squares with the
masked regressors removed from that equation's design; the intercept is
always free.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass

import numpy as np

from ..errors import (
    CollinearityError,
    GridGapError,
    InsufficientDataError,
    ParameterError,
    SchemaError,
)
from ..frames import TimeSeriesFrame
from ..ingest.schema import decode_text
from .ols import numerical_rank, ols, scipy_routines

MODEL_FORMAT = "rvar-model/1"


def zero_mask(p: int, n: int) -> np.ndarray:
    """All-free mask: no coefficient constrained."""
    return np.zeros((p, n, n), dtype=bool)


@dataclass(frozen=True)
class RVarModel:
    """Fitted restricted VAR.

    ``coeffs[k][i][j]`` is the effect of variable j at lag k+1 on the
    equation for variable i; ``mask`` marks entries constrained to zero.
    """

    names: tuple[str, ...]
    p: int
    intercept: np.ndarray
    coeffs: np.ndarray
    mask: np.ndarray
    sigma_e: np.ndarray
    train_start: dt.date | None = None
    train_end: dt.date | None = None

    def __post_init__(self):
        n = len(self.names)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "intercept", np.asarray(self.intercept, dtype=np.float64))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        object.__setattr__(self, "sigma_e", np.asarray(self.sigma_e, dtype=np.float64))
        if self.p < 1:
            raise ParameterError(f"order must be >= 1, got {self.p}")
        if self.coeffs.shape != (self.p, n, n):
            raise ParameterError(f"coeffs shape {self.coeffs.shape} != ({self.p}, {n}, {n})")
        if self.mask.shape != (self.p, n, n):
            raise ParameterError(f"mask shape {self.mask.shape} != ({self.p}, {n}, {n})")
        if self.intercept.shape != (n,):
            raise ParameterError(f"intercept shape {self.intercept.shape} != ({n},)")
        if self.sigma_e.shape != (n, n):
            raise ParameterError(f"sigma_e shape {self.sigma_e.shape} != ({n}, {n})")
        if (self.coeffs[self.mask] != 0.0).any():
            raise ParameterError("masked coefficients must be exactly zero")
        if not all(np.isfinite(a).all() for a in (self.intercept, self.coeffs, self.sigma_e)):
            raise ParameterError("intercept, coeffs and sigma_e must be finite")
        if len(set(self.names)) != n or not all(self.names):
            raise ParameterError(f"names must be unique and non-empty, got {self.names}")

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def free_coefficients(self) -> int:
        """Number of estimated parameters, intercepts included."""
        return self.n_vars + int((~self.mask).sum())

    def companion(self) -> np.ndarray:
        """Stacked one-lag form: an (n*p, n*p) matrix."""
        n, p = self.n_vars, self.p
        top = np.hstack([self.coeffs[k] for k in range(p)])
        if p == 1:
            return top
        lower = np.hstack([np.eye(n * (p - 1)), np.zeros((n * (p - 1), n))])
        return np.vstack([top, lower])

    def shock_index(self, shock: str) -> int:
        try:
            return self.names.index(shock)
        except ValueError:
            raise ParameterError(f"no variable named {shock!r}; have {self.names}") from None


def _lag_design(values: np.ndarray, p: int):
    """Response rows t = p..T-1 and the full lag matrix per (lag, variable)."""
    lagged = np.stack([values[p - k : len(values) - k] for k in range(1, p + 1)], axis=1)
    return values[p:, :], lagged


def fit_restricted_var(
    frame: TimeSeriesFrame,
    p: int,
    mask: np.ndarray | None = None,
) -> RVarModel:
    """Estimate a restricted VAR(p) by per-equation least squares.

    The mask is a (p, n, n) boolean array; True entries are forced to zero by
    excluding the corresponding regressor from that equation.  The residual
    covariance uses the number of usable rows (T - p) as denominator.
    """
    if p < 1:
        raise ParameterError(f"order must be >= 1, got {p}")
    if frame.has_missing():
        raise ParameterError("frame contains missing values; clean or drop them first")
    names, n = frame.names, frame.n_columns
    if mask is None:
        mask = zero_mask(p, n)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (p, n, n):
        raise ParameterError(f"mask shape {mask.shape} != ({p}, {n}, {n})")
    if len(frame) <= p:
        raise InsufficientDataError(f"{len(frame)} rows cannot support order {p}")
    resp, lagged = _lag_design(frame.values, p)
    rows = resp.shape[0]
    coeffs = np.zeros((p, n, n))
    intercept = np.zeros(n)
    residuals = np.empty((rows, n))
    for i in range(n):
        free = ~mask[:, i, :]  # boolean indexing keeps the (lag, variable) order
        design = np.column_stack([np.ones(rows), lagged[:, free]])
        if rows < design.shape[1]:
            raise InsufficientDataError(
                f"equation {names[i]!r}: {rows} rows for {design.shape[1]} parameters"
            )
        fit = ols(design, resp[:, i])
        if fit is None:
            # pivoted QR orders columns by how much new direction they add; the
            # ones past the numerical rank are the dependent offenders
            _, r, piv = scipy_routines().qr(design, mode="economic", pivoting=True)
            labels = ["const"] + [f"{names[j]}.l{k + 1}" for k, j in zip(*np.nonzero(free))]
            offenders = tuple(labels[k] for k in piv[numerical_rank(r, rows) :])
            raise CollinearityError(
                f"equation {names[i]!r}: design matrix is rank deficient; "
                f"offending columns {offenders}"
            )
        intercept[i] = fit.beta[0]
        coeffs[:, i, :][free] = fit.beta[1:]
        residuals[:, i] = fit.resid
    sigma_e = residuals.T @ residuals / rows
    return RVarModel(
        frame.names,
        p,
        intercept,
        coeffs,
        mask,
        sigma_e,
        frame.dates[0],
        frame.dates[-1],
    )


def residuals(model: RVarModel, frame: TimeSeriesFrame) -> np.ndarray:
    """One-step-ahead residuals of the fitted model on a frame.

    A ``(len(frame) - p, n)`` matrix: row t is the residual at
    ``frame.dates[p + t]``, columns follow ``model.names``.
    """
    if frame.names != model.names:
        raise ParameterError(f"frame columns {frame.names} != model {model.names}")
    if len(frame) <= model.p:
        raise InsufficientDataError("frame shorter than the model order")
    resp, lagged = _lag_design(frame.values, model.p)
    pred = np.tile(model.intercept, (resp.shape[0], 1))
    for k in range(model.p):
        pred += lagged[:, k, :] @ model.coeffs[k].T
    return resp - pred


def save_model(model: RVarModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "names": list(model.names),
        "p": model.p,
        "intercept": model.intercept.tolist(),
        "coeffs": model.coeffs.tolist(),
        "mask": model.mask.astype(int).tolist(),
        "sigma_e": model.sigma_e.tolist(),
        "train_start": model.train_start.isoformat() if model.train_start else None,
        "train_end": model.train_end.isoformat() if model.train_end else None,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model(path) -> RVarModel:
    """Read a ``save_model`` file, a ``Path`` or an ``InputFile``; a malformed
    one raises ``SchemaError``."""
    text = decode_text(path.read_bytes(), path)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path}: not a {MODEL_FORMAT} file")
    if type(payload.get("p")) is not int:
        raise SchemaError(f"{path}: malformed model (p {payload.get('p')!r} is not a JSON integer)")
    try:
        return RVarModel(
            tuple(payload["names"]),
            payload["p"],
            np.array(payload["intercept"], dtype=np.float64),
            np.array(payload["coeffs"], dtype=np.float64),
            np.array(payload["mask"], dtype=bool),
            np.array(payload["sigma_e"], dtype=np.float64),
            dt.date.fromisoformat(payload["train_start"]) if payload["train_start"] else None,
            dt.date.fromisoformat(payload["train_end"]) if payload["train_end"] else None,
        )
    except GridGapError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model ({type(exc).__name__}: {exc})") from None
