"""Bitwise oracle for the ADF lag selector, Granger Wald test and p-values.

The ``_reference_*`` functions are frozen copies of the original
implementation: one ``lstsq`` fit per candidate ADF lag on the common
sample, a separate ``matrix_rank`` before the Granger fit, and p-values
through ``scipy.stats``.  The search log and model digests depend on these
bits, so any rewrite of ``rvar`` must reproduce them exactly.
"""

import numpy as np
import pytest
from scipy.stats import chi2, norm

from gridgap.errors import CollinearityError, DegenerateSeriesError
from gridgap.rvar import adf as adf_module
from gridgap.rvar import adf_test, engle_granger, granger_wald, ljung_box, mackinnon_pvalue
from gridgap.rvar.adf import select_adf_lag
from gridgap.rvar.diagnostics import ljung_box_statistic, sample_autocorr

from conftest import make_frame


def _reference_adf_fit(y, k, regression, offset):
    dy = np.diff(y)
    rows = len(dy) - offset
    cols = [y[offset : offset + rows]]
    for i in range(1, k + 1):
        cols.append(dy[offset - i : offset - i + rows])
    if regression in ("c", "ct"):
        cols.append(np.ones(rows))
    if regression == "ct":
        cols.append(np.arange(1.0, rows + 1))
    x = np.column_stack(cols)
    resp = dy[offset:]
    beta, _, rank, _ = np.linalg.lstsq(x, resp, rcond=None)
    resid = resp - x @ beta
    if rank < x.shape[1]:
        raise DegenerateSeriesError("ADF regression design is rank deficient")
    ssr = float(resid @ resid)
    nparams = x.shape[1]
    sigma2 = ssr / (rows - nparams)
    xtx_inv = np.linalg.inv(x.T @ x)
    se = np.sqrt(sigma2 * xtx_inv[0, 0])
    stat = float(beta[0] / se)
    aic = rows * np.log(ssr / rows) + 2.0 * nparams
    return stat, aic, rows


def _reference_select_adf_lag(y, max_lag, regression):
    best = None
    for k in range(max_lag + 1):
        _, aic, _ = _reference_adf_fit(y, k, regression, offset=max_lag)
        if best is None or aic < best[1]:
            best = (k, aic)
    return best[0]


def _reference_mackinnon_pvalue(stat, regression, nseries):
    row = nseries - 1
    if stat > adf_module._TAU_MAX[regression][row]:
        return 1.0
    if stat < adf_module._TAU_MIN[regression][row]:
        return 0.0
    if stat <= adf_module._TAU_STAR[regression][row]:
        coef = adf_module._TAU_SMALLP[regression][row]
    else:
        coef = adf_module._TAU_LARGEP[regression][row]
    return float(norm.cdf(np.polyval(coef[::-1], stat)))


def _reference_adf_test(y, regression, max_lag):
    used_lag = _reference_select_adf_lag(y, max_lag, regression)
    stat, _, nobs = _reference_adf_fit(y, used_lag, regression, offset=used_lag)
    return stat, _reference_mackinnon_pvalue(stat, regression, 1), used_lag, nobs


def _reference_engle_granger_stats(frame, lag):
    stats = []
    for i in range(frame.n_columns):
        for j in range(i + 1, frame.n_columns):
            x = frame.values[:, i]
            y = frame.values[:, j]
            design = np.column_stack([np.ones(len(x)), x])
            beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ beta
            k = _reference_select_adf_lag(resid, lag, "n")
            stat, _, _ = _reference_adf_fit(resid, k, "n", offset=k)
            stats.append((stat, _reference_mackinnon_pvalue(stat, "c", 2)))
    return stats


def _reference_granger_wald(frame, cause, effect, lags):
    x_cause = frame.column(cause)
    y = frame.column(effect)
    rows = len(y) - lags
    nparams = 1 + 2 * lags
    cols = [np.ones(rows)]
    for k in range(1, lags + 1):
        cols.append(y[lags - k : lags - k + rows])
    for k in range(1, lags + 1):
        cols.append(x_cause[lags - k : lags - k + rows])
    design = np.column_stack(cols)
    resp = y[lags:]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise CollinearityError("collinear", (cause, effect))
    beta, _, _, _ = np.linalg.lstsq(design, resp, rcond=None)
    resid = resp - design @ beta
    sigma2 = float(resid @ resid) / (rows - nparams)
    xtx_inv = np.linalg.inv(design.T @ design)
    sel = slice(1 + lags, 1 + 2 * lags)
    b = beta[sel]
    cov = sigma2 * xtx_inv[sel, sel]
    stat = float(b @ np.linalg.solve(cov, b))
    return stat, float(chi2.sf(stat, lags))


def _walk(rng, n):
    return np.cumsum(rng.standard_normal(n))


def _ar1(rng, n, phi=0.5):
    z = rng.standard_normal(n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + z[t]
    return y


def _first_stage_residual(rng, n):
    x = _walk(rng, n)
    y = 0.7 * x + 0.3 * _walk(rng, n) + rng.standard_normal(n)
    design = np.column_stack([np.ones(n), x])
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    return y - design @ beta


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("make", [_walk, _ar1, _first_stage_residual])
@pytest.mark.parametrize("regression", ["n", "c", "ct"])
def test_adf_matches_per_lag_reference(make, regression):
    for seed, n in ((0, 60), (1, 120), (2, 300)):
        y = make(np.random.default_rng(seed), n)
        for max_lag in range(13):
            assert select_adf_lag(y, max_lag, regression) == _reference_select_adf_lag(
                y, max_lag, regression
            )
            got = adf_test(y, regression=regression, max_lag=max_lag)
            stat, pvalue, used_lag, nobs = _reference_adf_test(y, regression, max_lag)
            assert _bits(got.stat) == _bits(stat)
            assert _bits(got.pvalue) == _bits(pvalue)
            assert (got.used_lag, got.nobs) == (used_lag, nobs)


def test_adf_default_lag_matches_reference():
    for seed in range(10):
        y = _walk(np.random.default_rng(100 + seed), 250)
        got = adf_test(y)
        stat, pvalue, used_lag, nobs = _reference_adf_test(y, "c", adf_module.default_max_lag(250))
        assert (_bits(got.stat), _bits(got.pvalue)) == (_bits(stat), _bits(pvalue))
        assert (got.used_lag, got.nobs) == (used_lag, nobs)


@pytest.mark.parametrize("regression", ["n", "c", "ct"])
def test_collinear_lag_columns_degenerate_in_both(regression):
    # period-2 differences: dy_{t-1} repeats as dy_{t-3}, and dy_{t-1} + dy_{t-2} is constant
    y = np.cumsum(np.tile([1.0, -0.5], 60))
    with pytest.raises(DegenerateSeriesError):
        _reference_select_adf_lag(y, 4, regression)
    with pytest.raises(DegenerateSeriesError):
        select_adf_lag(y, 4, regression)
    with pytest.raises(DegenerateSeriesError):
        adf_test(y, regression=regression, max_lag=4)


def test_engle_granger_matches_reference():
    for seed in range(4):
        rng = np.random.default_rng(40 + seed)
        common = _walk(rng, 200)
        values = np.column_stack(
            [common + rng.standard_normal(200), _walk(rng, 200), 0.5 * common + _walk(rng, 200)]
        )
        frame = make_frame(values, ("a", "b", "c"))
        for lag in (0, 3, 8):
            got = engle_granger(frame, max_lag=lag, check_inputs=False)
            expected = _reference_engle_granger_stats(frame, lag)
            assert [(_bits(p.stat), _bits(p.pvalue)) for p in got.pairs] == [
                (_bits(s), _bits(p)) for s, p in expected
            ]


def test_granger_matches_reference():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = (30, 80, 400)[seed % 3]
        x = rng.standard_normal(n)
        y = np.zeros(n)
        for t in range(2, n):
            y[t] = 0.3 * y[t - 1] + 0.2 * seed * x[t - 1] + rng.standard_normal()
        frame = make_frame(np.column_stack([x, y]), ("x", "y"))
        for lags in (1, 2, 4):
            for cause, effect in (("x", "y"), ("y", "x")):
                got = granger_wald(frame, cause=cause, effect=effect, lags=lags)
                stat, pvalue = _reference_granger_wald(frame, cause, effect, lags)
                assert (_bits(got.stat), _bits(got.pvalue)) == (_bits(stat), _bits(pvalue))


def test_granger_negative_stat_matches_reference():
    # nearly collinear lags pass the rank test, but inv(X'X) loses definiteness
    rng = np.random.default_rng(299)
    y = np.cumsum(rng.standard_normal(60))
    x = y + 1e-7 * rng.standard_normal(60)
    frame = make_frame(np.column_stack([x, y]), ("x", "y"))
    got = granger_wald(frame, cause="x", effect="y", lags=2)
    stat, pvalue = _reference_granger_wald(frame, "x", "y", 2)
    assert got.stat < 0.0
    assert (_bits(got.stat), _bits(got.pvalue)) == (_bits(stat), _bits(pvalue))


def test_granger_collinear_rejected_in_both():
    x = np.random.default_rng(11).standard_normal(80)
    frame = make_frame(np.column_stack([x, 2.0 * x]), ("a", "b"))
    with pytest.raises(CollinearityError):
        _reference_granger_wald(frame, "a", "b", 1)
    with pytest.raises(CollinearityError):
        granger_wald(frame, cause="a", effect="b", lags=1)


def test_ljung_box_pvalue_matches_chi2_sf():
    for seed in range(20):
        e = np.random.default_rng(seed).standard_normal(200)
        if seed % 2:
            e = np.cumsum(e)  # strongly autocorrelated: p-values far in the tail
        for lags in (1, 5, 10, 20, 40):
            q = ljung_box_statistic(sample_autocorr(e, lags), len(e))
            got = ljung_box(e, lags)
            assert _bits(got.q) == _bits(q)
            assert _bits(got.pvalue) == _bits(float(chi2.sf(q, lags)))


@pytest.mark.parametrize("regression", ["n", "c", "ct"])
def test_mackinnon_matches_norm_cdf(regression):
    for nseries in range(1, 7):
        for stat in np.linspace(-30.0, 5.0, 701):
            got = mackinnon_pvalue(float(stat), regression, nseries)
            assert _bits(got) == _bits(_reference_mackinnon_pvalue(float(stat), regression, nseries))
