"""Oracle for least squares, the ADF lag selector, ADF, Engle-Granger and
Granger statistics.

The ``_reference_*`` functions are frozen copies of the original
implementation: one ``lstsq`` fit per candidate ADF lag on the common
sample, a separate ``matrix_rank`` before the Granger fit, standard errors
from ``inv(XᵀX)``, and p-values through ``scipy.stats``.  ``rvar`` now reads
its statistics off one QR of each design, so the statistics and their
p-values match the references to ``rtol=1e-12`` on well-conditioned inputs,
while lag choices, row counts and collinearity verdicts match exactly.
Where ``inv(XᵀX)`` loses definiteness the reference Wald statistic goes
negative; the QR form cannot.  The p-value surfaces are unchanged and
still match bit for bit.

``_reference_ols`` is the first QR kernel: ``column_stack``, numpy's
``qr(mode="r")`` and an SVD rank on every call.  ``ols`` now factors with
LAPACK ``dgeqrf`` and proves full rank from ``dtrtri`` before any SVD; its
verdicts, R, coefficients and residuals match the reference bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs
from scipy.stats import chi2, norm

from gridgap.blas import one_blas_thread
from gridgap.errors import CollinearityError, DegenerateSeriesError
from gridgap.rvar import adf_test, engle_granger, granger_wald, ljung_box, mackinnon_pvalue
from gridgap.rvar import ols as ols_module
from gridgap.rvar.adf import adf_stat_fixed_lag, default_max_lag, select_adf_lag
from gridgap.rvar.diagnostics import ljung_box_statistic, sample_autocorr
from gridgap.rvar.ols import ols

from conftest import make_frame


def _reference_numerical_rank(r, rows):
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.count_nonzero(s > s[0] * max(rows, r.shape[1]) * np.finfo(float).eps))


def _reference_ols(x, y):
    rows, m = x.shape
    r = np.linalg.qr(np.column_stack([x, y]), mode="r")
    if _reference_numerical_rank(r[:m, :m], rows) < m:
        return None
    beta = dtrtrs(r[:m, :m], r[:m, m])[0]
    return beta, y - x @ beta, r


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


# MacKinnon (2010) surfaces of the constant-only regression for nseries 1
# and 2, copied from the original tables with their scaling
_REF_TAU_STAR = {"c": [-1.61, -2.62]}
_REF_TAU_MIN = {"c": [-18.83, -18.86]}
_REF_TAU_MAX = {"c": [2.74, 0.92]}
_REF_TAU_SMALLP = {
    "c": np.array([[2.1659, 1.4412, 3.8269], [2.92, 1.5012, 3.9796]])
    * np.array([1.0, 1.0, 1e-2])
}
_REF_TAU_LARGEP = {
    "c": np.array([[1.7339, 9.3202, -1.2745, -1.0368], [2.1945, 6.4695, -2.9198, -4.2377]])
    * np.array([1.0, 1e-1, 1e-1, 1e-2])
}


def _reference_mackinnon_pvalue(stat, regression, nseries):
    row = nseries - 1
    if stat > _REF_TAU_MAX[regression][row]:
        return 1.0
    if stat < _REF_TAU_MIN[regression][row]:
        return 0.0
    if stat <= _REF_TAU_STAR[regression][row]:
        coef = _REF_TAU_SMALLP[regression][row]
    else:
        coef = _REF_TAU_LARGEP[regression][row]
    return float(norm.cdf(np.polyval(coef[::-1], stat)))


def _reference_adf_test(y, max_lag):
    used_lag = _reference_select_adf_lag(y, max_lag, "c")
    stat, _, nobs = _reference_adf_fit(y, used_lag, "c", offset=used_lag)
    return stat, _reference_mackinnon_pvalue(stat, "c", 1), used_lag, nobs


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


# the QR and inv(XᵀX) routes round differently; 1e-12 leaves a margin over
# the largest gap seen on these inputs (4e-13)
RTOL = 1e-12


def _near_collinear_frame(seed, eps):
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.standard_normal(60))
    x = y + eps * rng.standard_normal(60)
    return make_frame(np.column_stack([x, y]), ("x", "y"))


def _lag_bound(n, rows):
    """Default lag bound of a length-``n`` series: Schwert's rule, leaving ``rows`` rows."""
    return max(0, min(default_max_lag(n), n - rows))


# series lengths over which the default lag bound of ADF (n - 21) and of
# Engle-Granger (n - 20) takes every value 0..12
LENGTHS = (20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 40, 60, 80, 100, 250)


@pytest.mark.parametrize("make", [_walk, _ar1, _first_stage_residual])
@pytest.mark.parametrize("regression", ["n", "c"])
def test_adf_matches_per_lag_reference(make, regression):
    # the lag chosen at each bound, and the statistic refitted at that lag
    for seed, n in ((0, 60), (1, 120), (2, 300)):
        y = make(np.random.default_rng(seed), n)
        for max_lag in range(13):
            used_lag = select_adf_lag(y, max_lag, regression)
            assert used_lag == _reference_select_adf_lag(y, max_lag, regression)
            stat, _, _ = _reference_adf_fit(y, used_lag, regression, offset=used_lag)
            np.testing.assert_allclose(adf_stat_fixed_lag(y, used_lag, regression), stat, rtol=RTOL)


def test_adf_default_lag_matches_reference():
    lengths = [n for n in LENGTHS if n > 20]
    assert {_lag_bound(n, 21) for n in lengths} == set(range(13))
    for make in (_walk, _ar1, _first_stage_residual):
        for seed, n in enumerate(lengths):
            y = make(np.random.default_rng(100 + seed), n)
            got = adf_test(y)
            stat, pvalue, used_lag, nobs = _reference_adf_test(y, _lag_bound(n, 21))
            np.testing.assert_allclose([got.stat, got.pvalue], [stat, pvalue], rtol=RTOL)
            assert (got.used_lag, got.nobs) == (used_lag, nobs)


@pytest.mark.parametrize("regression", ["n", "c"])
def test_collinear_lag_columns_degenerate_in_both(regression):
    # period-2 differences: dy_{t-1} repeats as dy_{t-3}, and dy_{t-1} + dy_{t-2} is constant
    y = np.cumsum(np.tile([1.0, -0.5], 60))
    with pytest.raises(DegenerateSeriesError):
        _reference_select_adf_lag(y, 4, regression)
    with pytest.raises(DegenerateSeriesError):
        select_adf_lag(y, 4, regression)
    with pytest.raises(DegenerateSeriesError):
        adf_stat_fixed_lag(y, 4, regression)
    if regression == "c":
        with pytest.raises(DegenerateSeriesError):
            adf_test(y)


def test_engle_granger_matches_reference():
    assert {_lag_bound(n, 20) for n in LENGTHS} == set(range(13))
    for seed, n in enumerate(LENGTHS):
        rng = np.random.default_rng(40 + seed)
        common = _walk(rng, n)
        values = np.column_stack(
            [common + rng.standard_normal(n), _walk(rng, n), 0.5 * common + _walk(rng, n)]
        )
        frame = make_frame(values, ("a", "b", "c"))
        got = engle_granger(frame, 0.05)
        expected = _reference_engle_granger_stats(frame, _lag_bound(n, 20))
        np.testing.assert_allclose([(p.stat, p.pvalue) for p in got.pairs], expected, rtol=RTOL)


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
                np.testing.assert_allclose([got.stat, got.pvalue], [stat, pvalue], rtol=RTOL)


def test_granger_stat_nonnegative_where_reference_is_negative():
    # nearly collinear lags pass the rank test, but inv(X'X) loses definiteness
    frame = _near_collinear_frame(299, 1e-7)
    stat, _ = _reference_granger_wald(frame, "x", "y", 2)
    got = granger_wald(frame, cause="x", effect="y", lags=2)
    assert stat < 0.0
    assert got.stat >= 0.0 and 0.0 <= got.pvalue <= 1.0


@pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-11])
def test_granger_near_collinear_family_nonnegative_or_collinear(eps):
    # the normal-equations route gave negative statistics and bare LinAlgErrors here
    for seed in range(300):
        frame = _near_collinear_frame(seed, eps)
        try:
            got = granger_wald(frame, cause="x", effect="y", lags=2)
        except CollinearityError:
            continue
        assert got.stat >= 0.0 and 0.0 <= got.pvalue <= 1.0, (seed, got)


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


@pytest.mark.parametrize("regression", ["c"])
def test_mackinnon_matches_norm_cdf(regression):
    for nseries in (1, 2):
        for stat in np.linspace(-30.0, 5.0, 701):
            got = mackinnon_pvalue(float(stat), nseries)
            assert _bits(got) == _bits(_reference_mackinnon_pvalue(float(stat), regression, nseries))


def _ols_design(seed):
    """A seeded design and response: 60–700 rows and 2–36 columns, a third of
    them with one column a near copy of a mix of the others (noise 1e-6…1e-16)."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(60, 701))
    m = int(rng.integers(2, min(37, rows)))
    x = rng.standard_normal((rows, m)) * 10.0 ** rng.uniform(-3, 3, m)
    x[:, 0] = 1.0
    if seed % 3 == 0:
        j = int(rng.integers(1, m))
        mix = x[:, :j] @ rng.standard_normal(j)
        x[:, j] = mix + 10.0 ** -rng.uniform(6, 16) * np.abs(mix).max() * rng.standard_normal(rows)
    return x, x @ rng.standard_normal(m) + rng.standard_normal(rows)


def _ols_edge_cases():
    rng = np.random.default_rng(99)
    x, y = rng.standard_normal((80, 4)), rng.standard_normal(80)
    doubled = x.copy()
    doubled[:, 3] = 2.0 * x[:, 1]
    summed = x.copy()
    summed[:, 2] = x[:, 0] + x[:, 1]
    zero = x.copy()
    zero[:, 1] = 0.0
    cases = [(doubled, y), (summed, y), (zero, y), (x[:3], y[:3]), (x[:4], y[:4])]
    for bad in (np.nan, np.inf):
        hole = x.copy()
        hole[7, 2] = bad
        cases += [(hole, y), (x, np.where(np.arange(80) == 5, bad, y))]
    return cases


def _ols_fields(x, y):
    fit = ols(x, y)
    return None if fit is None else (fit.beta, fit.resid, fit.r)


def _ols_outcome(fit, x, y):
    try:
        got = fit(x, y)
    except Exception as exc:  # both kernels must fail alike
        return type(exc)
    return None if got is None else tuple(a.tobytes() for a in got)


def test_ols_matches_column_stack_qr_svd_reference(monkeypatch):
    fallbacks = []
    real_rank = ols_module.numerical_rank

    def counted(r, rows):
        fallbacks.append(r.shape)
        return real_rank(r, rows)

    monkeypatch.setattr(ols_module, "numerical_rank", counted)
    cases = [_ols_design(seed) for seed in range(330)] + _ols_edge_cases()
    verdicts = {"fit": 0, "none": 0, "error": 0}
    with one_blas_thread():  # the sweep's BLAS setting
        for k, (x, y) in enumerate(cases):
            new = _ols_outcome(_ols_fields, x, y)
            want = _ols_outcome(_reference_ols, x, y)
            assert new == want, k
            verdicts["none" if new is None else "error" if isinstance(new, type) else "fit"] += 1
    assert all(verdicts.values()), verdicts
    assert 0 < len(fallbacks) < len(cases), "both the dtrtri bound and the SVD fallback must run"
