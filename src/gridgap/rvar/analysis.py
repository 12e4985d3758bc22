"""Impulse responses and forecast error variance decomposition."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, FactorizationError, ParameterError
from .diagnostics import stability_test
from .model import RVarModel


def irf(model: RVarModel, shock: str, horizon: int) -> np.ndarray:
    """Responses to a one-unit impulse of ``shock``, shape (horizon + 1, n).

    Row t is each variable's deviation t steps after the shock; row 0 is the
    impact itself, a unit vector at the shocked variable. No
    orthogonalization is applied: the shock is one unit of the named
    variable itself, matching the model's reduced form.
    """
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    j = model.shock_index(shock)
    coeffs = model.coeffs
    response = np.zeros((horizon + 1, model.n_vars))
    response[0, j] = 1.0
    for t in range(1, horizon + 1):
        for k in range(min(model.p, t)):
            response[t] += coeffs[k] @ response[t - 1 - k]
    return response


def irf_cumulative(model: RVarModel, shock: str, horizon: int) -> np.ndarray:
    """Running sums of ``irf``'s responses, in the same layout.

    Models whose companion spectrum touches the unit circle have no finite
    long-run response and are refused.
    """
    response = irf(model, shock, horizon)
    if stability_test(model).max_modulus >= 1.0:
        raise DivergenceError(
            "cumulative responses diverge: companion eigenvalue modulus >= 1"
        )
    return np.cumsum(response, axis=0)


def _resolve_ordering(model: RVarModel, ordering) -> tuple[int, ...]:
    if ordering is None:
        return tuple(range(model.n_vars))
    resolved = tuple(model.shock_index(item) for item in ordering)
    if sorted(resolved) != list(range(model.n_vars)):
        raise ParameterError(f"ordering {ordering!r} is not a permutation of all variables")
    return resolved


def fevd(model: RVarModel, horizon: int, ordering=None) -> np.ndarray:
    """Cholesky-orthogonalized variance shares up to ``horizon`` steps.

    ``shares[h - 1, i, j]`` is the fraction of variable i's h-step forecast
    error variance attributed to the orthogonalized shock of variable j.

    ``ordering`` permutes the variables before factorizing the residual
    covariance (the usual recursive identification choice) and results are
    reported back in the model's own variable order.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    n = model.n_vars
    perm = _resolve_ordering(model, ordering)
    try:
        chol = np.linalg.cholesky(model.sigma_e[np.ix_(perm, perm)])
    except np.linalg.LinAlgError:
        raise FactorizationError("residual covariance is not positive definite") from None
    # the factor's row and shock column i belong to variable perm[i]
    impact = np.empty_like(chol)
    impact[np.ix_(perm, perm)] = chol
    companion = model.companion()
    power = np.eye(companion.shape[0])
    numer = np.zeros((n, n))
    mse = np.zeros(n)
    shares = np.empty((horizon, n, n))
    for h in range(1, horizon + 1):
        b = power[:n, :n] @ impact
        numer += b**2
        mse += (b**2).sum(axis=1)
        shares[h - 1] = numer / mse[:, None]
        power = power @ companion
    return shares
