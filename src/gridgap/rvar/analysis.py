"""Impulse responses and forecast error variance decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..errors import DivergenceError, FactorizationError, ParameterError
from .diagnostics import stability_test
from .model import RVarModel


@dataclass(frozen=True)
class IrfResult:
    """Responses to a one-unit shock of one variable.

    ``responses[t, i]`` is variable i's deviation t steps after the shock;
    row 0 is the impact itself (a unit vector at the shocked variable).
    """

    shock: str
    responses: np.ndarray


def irf(model: RVarModel, shock: str, horizon: int) -> IrfResult:
    """Propagate a unit impulse through the lag polynomial.

    No orthogonalization is applied: the shock is one unit of the named
    variable itself, matching the model's reduced form.
    """
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    j = model.shock_index(shock)
    resp = np.array(list(islice(_response_steps(model, j), horizon + 1)))
    return IrfResult(model.names[j], resp)


def _response_steps(model: RVarModel, j: int):
    """Responses to a unit impulse in variable ``j``: the impact, then one per step."""
    n, p, coeffs = model.n_vars, model.p, list(model.coeffs)
    step = np.zeros(n)
    step[j] = 1.0
    recent: list[np.ndarray] = []  # the last p responses, newest first
    while True:
        yield step
        recent = [step] + recent[: p - 1]
        step = np.zeros(n)
        for coeff, lagged in zip(coeffs, recent):
            step += coeff @ lagged


def irf_cumulative(model: RVarModel, shock: str, horizon: int) -> IrfResult:
    """Running sums of ``irf``'s responses, in the same layout.

    Models whose companion spectrum touches the unit circle have no finite
    long-run response and are refused.
    """
    response = irf(model, shock, horizon)
    if not stability_test(model, strict=True).stable:
        raise DivergenceError(
            "cumulative responses diverge: companion eigenvalue modulus >= 1"
        )
    return IrfResult(response.shock, np.cumsum(response.responses, axis=0))


@dataclass(frozen=True)
class FevdResult:
    """Forecast error variance shares.

    ``shares[h - 1, i, j]`` is the fraction of variable i's h-step forecast
    error variance attributed to the orthogonalized shock of variable j.
    """

    names: tuple[str, ...]
    shares: np.ndarray


def _resolve_ordering(model: RVarModel, ordering) -> tuple[int, ...]:
    if ordering is None:
        return tuple(range(model.n_vars))
    resolved = []
    for item in ordering:
        resolved.append(model.shock_index(item))
    if sorted(resolved) != list(range(model.n_vars)):
        raise ParameterError(f"ordering {ordering!r} is not a permutation of all variables")
    return tuple(resolved)


def fevd(model: RVarModel, horizon: int, ordering=None) -> FevdResult:
    """Cholesky-orthogonalized variance decomposition up to ``horizon`` steps.

    ``ordering`` permutes the variables before factorizing the residual
    covariance (the usual recursive identification choice) and results are
    reported back in the model's own variable order.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    n = model.n_vars
    perm = _resolve_ordering(model, ordering)
    sigma_perm = model.sigma_e[np.ix_(perm, perm)]
    try:
        chol = np.linalg.cholesky(sigma_perm)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            "residual covariance is not positive definite"
        ) from None
    # impact matrix in original coordinates: un-permute rows of the factor,
    # then un-permute shock columns so column j belongs to variable j
    s = np.empty_like(chol)
    s[list(perm), :] = chol
    companion = model.companion()
    power = np.eye(companion.shape[0])
    numer = np.zeros((n, n))
    mse = np.zeros(n)
    shares = np.empty((horizon, n, n))
    for h in range(1, horizon + 1):
        phi = power[:n, :n]
        b = phi @ s
        b_unperm = np.empty_like(b)
        b_unperm[:, list(perm)] = b
        numer += b_unperm**2
        mse += (b_unperm**2).sum(axis=1)
        shares[h - 1] = numer / mse[:, None]
        power = power @ companion
    return FevdResult(model.names, shares)
