"""Impulse responses, variance decomposition, and residual diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgap.errors import (
    DivergenceError,
    FactorizationError,
    InsufficientDataError,
    ParameterError,
)
from gridgap.rvar import (
    RVarModel,
    criteria_from_residuals,
    durbin_watson,
    fevd,
    fit_restricted_var,
    irf,
    irf_cumulative,
    ljung_box,
    ljung_box_statistic,
    residuals,
    run_diagnostics,
    sample_autocorr,
    stability_test,
    zero_mask,
)

from conftest import make_frame
from helpers import reference_fevd, reference_irf, simulate_var


def _random_stable_model(seed, n_max=4, p_max=3):
    """Random coefficients scaled until the companion spectrum is inside the circle."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    coeffs = rng.uniform(-0.6, 0.6, size=(p, n, n))
    names = tuple(f"v{i}" for i in range(n))
    for _ in range(60):
        model = RVarModel(
            names, p, np.zeros(n), coeffs, zero_mask(p, n), _random_cov(rng, n)
        )
        if max(abs(v) for v in np.linalg.eigvals(model.companion())) < 0.95:
            return model
        coeffs = coeffs * 0.8
    raise AssertionError("scaling never stabilized the model")


def _random_cov(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestIrf:
    def test_impact_is_unit_vector(self):
        model = _random_stable_model(0)
        res = irf(model, shock=model.names[1], horizon=8)
        expected = np.zeros(model.n_vars)
        expected[1] = 1.0
        assert np.array_equal(res[0], expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_shocked_minus_unshocked_simulation(self, seed):
        # a unit shock propagated through the deterministic recursion must
        # equal the difference of two noise-free paths
        model = _random_stable_model(seed)
        n, p = model.n_vars, model.p
        j = seed % n
        res = irf(model, shock=model.names[j], horizon=20)
        horizon = 20
        base = np.zeros((horizon + p + 1, n))
        shocked = np.zeros((horizon + p + 1, n))
        shocked[p] = np.eye(n)[j]
        for t in range(p + 1, horizon + p + 1):
            for k in range(1, p + 1):
                base[t] += model.coeffs[k - 1] @ base[t - k]
                shocked[t] += model.coeffs[k - 1] @ shocked[t - k]
        diff = shocked[p:] - base[p:]
        assert np.max(np.abs(res - diff)) < 1e-12

    def test_shock_by_name_matches_index(self):
        # a name shocks the variable at that name's index in model.names
        model = _random_stable_model(3)
        for j, name in enumerate(model.names):
            res = irf(model, shock=name, horizon=10)
            assert np.array_equal(res[0], np.eye(model.n_vars)[j])

    def test_decay_for_stable_model(self):
        model = _random_stable_model(5)
        res = irf(model, shock=model.names[0], horizon=300)
        assert np.max(np.abs(res[-1])) < 1e-3

    def test_bad_horizon(self):
        model = _random_stable_model(1)
        with pytest.raises(ParameterError):
            irf(model, shock=model.names[0], horizon=-1)


class TestCumulativeIrf:
    def test_long_run_matches_analytic_inverse(self):
        model = _random_stable_model(7)
        n = model.n_vars
        cum = irf_cumulative(model, shock=model.names[0], horizon=200)
        analytic = np.linalg.solve(np.eye(n) - model.coeffs.sum(axis=0), np.eye(n)[0])
        assert np.allclose(cum[-1], analytic, atol=1e-8)

    def test_path_is_cumsum_of_irf(self):
        model = _random_stable_model(9)
        cum = irf_cumulative(model, shock=model.names[1], horizon=15)
        point = irf(model, shock=model.names[1], horizon=15)
        assert np.array_equal(cum, np.cumsum(point, axis=0))

    def test_unit_root_model_refused(self):
        # a pure random walk never settles, so the cumulative series diverges
        walk = RVarModel(("w",), 1, np.zeros(1), np.ones((1, 1, 1)), zero_mask(1, 1), np.eye(1))
        with pytest.raises(DivergenceError):
            irf_cumulative(walk, shock="w", horizon=10)


class TestFevd:
    def test_row_sums_and_nonnegativity(self):
        for seed in range(30):
            model = _random_stable_model(seed)
            res = fevd(model, horizon=10)
            sums = res.sum(axis=2)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert res.min() >= -1e-12

    def test_univariate_fevd_is_all_own_share(self):
        model = RVarModel(("x",), 1, np.zeros(1), np.full((1, 1, 1), 0.5), zero_mask(1, 1), np.eye(1))
        res = fevd(model, horizon=5)
        assert np.allclose(res, 1.0)

    def test_diagonal_sigma_horizon_one_shares(self):
        # with uncorrelated shocks the one-step share of a variable's own
        # shock is its noise variance over the total one-step variance
        a = np.array([[0.5, 0.2], [0.1, 0.3]])
        sigma = np.diag([4.0, 1.0])
        model = RVarModel(("a", "b"), 1, np.zeros(2), a[None], zero_mask(1, 2), sigma)
        res = fevd(model, horizon=1)
        assert res[0, 0, 0] == pytest.approx(1.0)
        assert res[0, 1, 1] == pytest.approx(1.0)

    def test_ordering_independent_when_sigma_diagonal(self):
        a = np.array([[0.5, 0.2], [0.1, 0.3]])
        model = RVarModel(("a", "b"), 1, np.zeros(2), a[None], zero_mask(1, 2), np.diag([2.0, 3.0]))
        default = fevd(model, horizon=8)
        flipped = fevd(model, horizon=8, ordering=("b", "a"))
        assert np.allclose(default, flipped, atol=1e-12)

    def test_ordering_shifts_shared_variance(self):
        # with correlated shocks, the first-ordered variable absorbs the
        # common component at impact
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        a = np.zeros((1, 2, 2))
        model = RVarModel(("a", "b"), 1, np.zeros(2), a, zero_mask(1, 2), sigma)
        first_a = fevd(model, horizon=1)
        first_b = fevd(model, horizon=1, ordering=("b", "a"))
        assert first_a[0, 1, 0] == pytest.approx(0.64)  # rho^2
        assert first_b[0, 1, 0] == pytest.approx(0.0)
        assert first_b[0, 0, 1] == pytest.approx(0.64)

    def test_invalid_ordering(self):
        model = _random_stable_model(4)
        with pytest.raises(ParameterError):
            fevd(model, horizon=4, ordering=("v0",))
        with pytest.raises(ParameterError):
            fevd(model, horizon=4, ordering=("v0",) * model.n_vars)

    def test_singular_sigma_refused(self):
        a = np.zeros((1, 2, 2))
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        model = RVarModel(("a", "b"), 1, np.zeros(2), a, zero_mask(1, 2), sigma)
        with pytest.raises(FactorizationError):
            fevd(model, horizon=3)

    def test_monte_carlo_decomposition(self):
        # forecast-error variance shares estimated from orthogonalized-shock
        # simulations agree with the closed form
        a = np.array([[0.6, 0.25], [0.05, 0.4]])
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        model = RVarModel(("a", "b"), 1, np.zeros(2), a[None], zero_mask(1, 2), sigma)
        res = fevd(model, horizon=5)
        rng = np.random.default_rng(2024)
        chol = np.linalg.cholesky(sigma)
        paths = 40_000
        h = 5
        contrib = np.zeros((2, 2))  # variance of h-step error by (variable, shock)
        z = rng.standard_normal((paths, h, 2))
        for j in (0, 1):
            zj = np.zeros_like(z)
            zj[:, :, j] = z[:, :, j]
            err = np.zeros((paths, 2))
            for t in range(h):
                err = err @ a.T + zj[:, t] @ chol.T
            contrib[:, j] = err.var(axis=0)
        shares = contrib / contrib.sum(axis=1, keepdims=True)
        assert np.max(np.abs(res[h - 1] - shares)) < 0.02


class TestKernelOracle:
    """``irf`` and ``fevd`` against the generator and per-step un-permuting
    kernels they replaced, bit for bit."""

    @staticmethod
    def _cases(count=240):
        for seed in range(count):
            model = _random_stable_model(1000 + seed, n_max=6)
            rng = np.random.default_rng(seed)
            names = list(model.names)
            ordering = tuple(names[i] for i in rng.permutation(len(names)))
            if ordering == model.names:
                ordering = ordering[::-1]
            yield model, rng, ordering

    def test_irf_matches_generator_reference(self):
        for model, rng, _ in self._cases():
            shock = model.names[int(rng.integers(model.n_vars))]
            horizon = int(rng.integers(0, 25))
            got = irf(model, shock, horizon)
            assert got.tobytes() == reference_irf(model, shock, horizon).tobytes()

    def test_fevd_matches_unpermuting_reference(self):
        for model, rng, ordering in self._cases():
            horizon = int(rng.integers(1, 25))
            got = fevd(model, horizon, ordering)
            assert got.tobytes() == reference_fevd(model, horizon, ordering).tobytes()
            assert fevd(model, horizon).tobytes() == reference_fevd(model, horizon, model.names).tobytes()


class TestAutocorrTests:
    def test_ljung_box_hand_case(self):
        # n=100 with rho = (0.1, 0.2): Q = 100*102*(0.01/99 + 0.04/98)
        q = ljung_box_statistic(np.array([0.1, 0.2]), 100)
        assert q == pytest.approx(5.1936, abs=1e-3)
        assert q == pytest.approx(100 * 102 * (0.01 / 99 + 0.04 / 98), abs=1e-12)

    def test_ljung_box_frozen(self):
        e = np.random.default_rng(3).standard_normal(200)
        res = ljung_box(e, lags=10)
        assert res.q == pytest.approx(5.316332982071681, abs=1e-10)
        assert res.pvalue == pytest.approx(0.8690700779584287, abs=1e-10)
        assert res.pvalue >= 0.05

    def test_ljung_box_flags_ar_residuals(self):
        rng = np.random.default_rng(8)
        y = np.zeros(300)
        for t in range(1, 300):
            y[t] = 0.6 * y[t - 1] + rng.standard_normal()
        assert ljung_box(y, lags=10).pvalue < 0.05

    def test_sample_autocorr_lag_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        c = x - x.mean()
        expected = float(c[1:] @ c[:-1]) / float(c @ c)
        assert sample_autocorr(x, 1)[0] == pytest.approx(expected, abs=1e-15)

    def test_durbin_watson_alternating(self):
        assert durbin_watson(np.array([1.0, -1.0, 1.0, -1.0])) == 3.0

    def test_durbin_watson_frozen(self):
        e = np.random.default_rng(3).standard_normal(200)
        assert durbin_watson(e) == pytest.approx(2.0813532201369775, abs=1e-12)

    def test_durbin_watson_extremes(self):
        assert durbin_watson(np.ones(10)) == 0.0
        signs = np.array([1.0, -1.0] * 50)
        assert durbin_watson(signs) == pytest.approx(4.0, abs=0.05)

    def test_errors(self):
        with pytest.raises(ParameterError):
            ljung_box(np.ones(50), lags=10)  # zero variance
        with pytest.raises(ParameterError):
            ljung_box(np.random.default_rng(0).standard_normal(10), lags=10)
        with pytest.raises(InsufficientDataError):
            durbin_watson(np.array([1.0]))


class TestStability:
    @pytest.mark.parametrize(
        "phis",
        [(0.5,), (0.9,), (1.0,), (1.05,), (0.5, -0.3), (0.6, 0.2, -0.1), (1.2, -0.3, 0.05)],
    )
    def test_scalar_ar_matches_root_oracle(self, phis):
        # companion eigenvalues of a scalar AR(p) are the roots of
        # z^p - phi_1 z^{p-1} - ... - phi_p
        p = len(phis)
        coeffs = np.array(phis).reshape(p, 1, 1)
        model = RVarModel(("x",), p, np.zeros(1), coeffs, zero_mask(p, 1), np.eye(1))
        res = stability_test(model)
        roots = np.roots([1.0] + [-f for f in phis])
        expected = tuple(sorted((abs(r) for r in roots), reverse=True))
        assert len(res.moduli) == len(expected)
        for got, want in zip(res.moduli, expected):
            assert got == pytest.approx(want, abs=1e-10)

    def test_default_rule_admits_unit_root(self):
        walk = RVarModel(("w",), 1, np.zeros(1), np.ones((1, 1, 1)), zero_mask(1, 1), np.eye(1))
        assert stability_test(walk).stable
        assert stability_test(walk).max_modulus >= 1.0

    def test_explosive_rejected(self):
        boom = RVarModel(("b",), 1, np.zeros(1), np.full((1, 1, 1), 1.1), zero_mask(1, 1), np.eye(1))
        assert not stability_test(boom).stable

    def test_moduli_sorted_descending(self):
        model = _random_stable_model(11)
        res = stability_test(model)
        assert list(res.moduli) == sorted(res.moduli, reverse=True)
        assert res.max_modulus == res.moduli[0]


class TestInformationCriteria:
    def test_matches_closed_form(self):
        frame = make_frame(
            simulate_var(
                np.array([[[0.5, 0.1], [0.0, 0.3]]]),
                np.zeros(2),
                np.eye(2),
                400,
                np.random.default_rng(17),
            ),
            ("a", "b"),
        )
        model = fit_restricted_var(frame, p=1, mask=zero_mask(1, 2))
        resid = residuals(model, frame)
        ic = criteria_from_residuals(model, resid)
        t = resid.shape[0]
        sigma = resid.T @ resid / t
        logdet = float(np.linalg.slogdet(sigma)[1])
        k = 2 + 4
        assert ic.aic == pytest.approx(logdet + 2 * k / t, abs=1e-12)
        assert ic.bic == pytest.approx(logdet + k * np.log(t) / t, abs=1e-12)
        assert model.free_coefficients == k

    def test_restriction_lowers_param_count(self):
        frame = make_frame(
            simulate_var(
                np.array([[[0.5, 0.0], [0.0, 0.3]]]),
                np.zeros(2),
                np.eye(2),
                600,
                np.random.default_rng(23),
            ),
            ("a", "b"),
        )
        full = fit_restricted_var(frame, p=1, mask=zero_mask(1, 2))
        mask = zero_mask(1, 2)
        mask[0, 0, 1] = True
        mask[0, 1, 0] = True
        thin = fit_restricted_var(frame, p=1, mask=mask)
        ic_full = criteria_from_residuals(full, residuals(full, frame))
        ic_thin = criteria_from_residuals(thin, residuals(thin, frame))
        assert thin.free_coefficients == full.free_coefficients - 2
        # the generator is diagonal, so BIC should prefer the restricted fit
        assert ic_thin.bic < ic_full.bic


class TestRunDiagnostics:
    def test_well_specified_model_passes(self):
        a = np.array([[[0.5, 0.1], [0.0, 0.3]]])
        frame = make_frame(
            simulate_var(a, np.zeros(2), np.eye(2), 800, np.random.default_rng(34)),
            ("a", "b"),
        )
        model = fit_restricted_var(frame, p=1, mask=zero_mask(1, 2))
        report = run_diagnostics(model, frame)
        assert report.all_pass()
        assert report.stability.stable
        assert {v.name for v in report.variables} == {"a", "b"}

    def test_underfit_model_fails_whiteness(self):
        # strong second lag fitted with p=1 leaves autocorrelated residuals
        coeffs = np.zeros((2, 1, 1))
        coeffs[1, 0, 0] = 0.8
        frame = make_frame(
            simulate_var(coeffs, np.zeros(1), np.eye(1), 800, np.random.default_rng(37)),
            ("x",),
        )
        model = fit_restricted_var(frame, p=1, mask=zero_mask(1, 1))
        report = run_diagnostics(model, frame)
        assert not report.all_pass()
        assert report.variables[0].lb_p < 0.05

    def test_cointegration_flag_gates(self):
        a = np.array([[[0.4, 0.0], [0.0, 0.4]]])
        frame = make_frame(
            simulate_var(a, np.zeros(2), np.eye(2), 500, np.random.default_rng(41)),
            ("a", "b"),
        )
        model = fit_restricted_var(frame, p=1, mask=zero_mask(1, 2))
        ok = run_diagnostics(model, frame, cointegration_ok=True)
        bad = run_diagnostics(model, frame, cointegration_ok=False)
        assert ok.all_pass()
        assert not bad.all_pass()

    def test_short_sample_clamps_lags(self):
        a = np.array([[[0.3, 0.0], [0.0, 0.2]]])
        frame = make_frame(
            simulate_var(a, np.zeros(2), np.eye(2), 30, np.random.default_rng(43)),
            ("a", "b"),
        )
        model = fit_restricted_var(frame, p=1, mask=zero_mask(1, 2))
        report = run_diagnostics(model, frame)
        # 30 rows minus one lag leaves 29 residuals, so 40 lags clamp to 28
        for v, e in zip(report.variables, residuals(model, frame).T):
            lb = ljung_box(e, 28)
            assert (v.lb_q, v.lb_p) == (lb.q, lb.pvalue)
