"""Restricted VAR estimation, simulation, and serialization tests."""

import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgap.errors import (
    CollinearityError,
    InsufficientDataError,
    ParameterError,
    SchemaError,
)
from gridgap.frames import TimeSeriesFrame
from gridgap.rvar import (
    RVarModel,
    fit_restricted_var,
    load_model,
    residuals,
    save_model,
    zero_mask,
)

from conftest import make_dates, make_frame
from helpers import simulate_var

A1 = np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]])
A2 = np.array([[-0.2, 0.0, 0.05], [0.05, -0.1, 0.0], [0.0, 0.05, -0.15]])
INTERCEPT = np.array([0.5, -0.2, 0.1])
SIGMA = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])


def _sim_frame(steps=2000, seed=1234, names=("a", "b", "g")):
    rng = np.random.default_rng(seed)
    vals = simulate_var(np.stack([A1, A2]), INTERCEPT, SIGMA, steps, rng)
    return make_frame(vals, names)


class TestFit:
    def test_unrestricted_matches_normal_equations(self):
        frame = _sim_frame(400)
        p = 2
        model = fit_restricted_var(frame, p=p, mask=zero_mask(p, 3))
        y = frame.values
        rows = len(y) - p
        design = np.column_stack(
            [np.ones(rows)] + [y[p - k : p - k + rows] for k in range(1, p + 1)]
        )
        resp = y[p:]
        beta = np.linalg.solve(design.T @ design, design.T @ resp)  # (1+np, n)
        assert np.allclose(model.intercept, beta[0], atol=1e-10)
        for k in range(p):
            block = beta[1 + 3 * k : 1 + 3 * (k + 1)].T
            assert np.allclose(model.coeffs[k], block, atol=1e-10)

    def test_generator_recovery(self):
        frame = _sim_frame(2000)
        model = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        assert np.max(np.abs(model.coeffs[0] - A1)) < 0.05
        assert np.max(np.abs(model.coeffs[1] - A2)) < 0.05
        assert np.max(np.abs(model.intercept - INTERCEPT)) < 0.05

    def test_masked_entries_bit_exact_zero(self):
        frame = _sim_frame(500)
        mask = zero_mask(2, 3)
        mask[0, 0, 1] = True
        mask[1, 2, 0] = True
        mask[1, 2, 1] = True
        model = fit_restricted_var(frame, p=2, mask=mask)
        assert model.coeffs[0, 0, 1] == 0.0
        assert model.coeffs[1, 2, 0] == 0.0
        assert model.coeffs[1, 2, 1] == 0.0
        # free entries stay close to the generator despite the restrictions
        assert abs(model.coeffs[0, 0, 0] - A1[0, 0]) < 0.1

    def test_restriction_changes_only_that_equation(self):
        frame = _sim_frame(500)
        base = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        mask = zero_mask(2, 3)
        mask[0, 1, 0] = True  # restrict equation for "b" only
        restricted = fit_restricted_var(frame, p=2, mask=mask)
        assert np.array_equal(restricted.coeffs[:, 0, :], base.coeffs[:, 0, :])
        assert np.array_equal(restricted.coeffs[:, 2, :], base.coeffs[:, 2, :])
        assert not np.array_equal(restricted.coeffs[:, 1, :], base.coeffs[:, 1, :])

    def test_sigma_e_scaling(self):
        frame = _sim_frame(300)
        model = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        resid = residuals(model, frame)
        expected = resid.T @ resid / resid.shape[0]
        assert np.allclose(model.sigma_e, expected, atol=1e-12)

    def test_train_window_recorded(self):
        frame = _sim_frame(100)
        model = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        assert model.train_start == frame.dates[0]
        assert model.train_end == frame.dates[-1]

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(120)
        frame = make_frame(np.column_stack([x, 3.0 * x]), ("load", "double"))
        with pytest.raises(CollinearityError) as err:
            fit_restricted_var(frame, p=1, mask=zero_mask(1, 2))
        # the pivoted QR takes the larger-norm double.l1 first, leaving load.l1 dependent
        assert "offending columns ('load.l1',)" in str(err.value)

    def test_too_short(self):
        frame = _sim_frame(4)
        with pytest.raises(InsufficientDataError):
            fit_restricted_var(frame, p=4, mask=zero_mask(4, 3))

    def test_mask_shape_checked(self):
        frame = _sim_frame(100)
        with pytest.raises(ParameterError):
            fit_restricted_var(frame, p=2, mask=zero_mask(1, 3))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_masked_always_zero(self, seed, p):
        rng = np.random.default_rng(seed)
        n = 2
        coeffs = rng.uniform(-0.3, 0.3, size=(p, n, n))
        vals = simulate_var(coeffs, np.zeros(n), np.eye(n), 200, rng)
        mask = rng.random((p, n, n)) < 0.4
        model = fit_restricted_var(make_frame(vals), p=p, mask=mask)
        assert (model.coeffs[mask] == 0.0).all()
        assert (model.mask == mask).all()


class TestModelObject:
    def test_masked_nonzero_rejected(self):
        mask = zero_mask(1, 2)
        mask[0, 0, 0] = True
        coeffs = np.full((1, 2, 2), 0.25)
        with pytest.raises(ParameterError):
            RVarModel(("a", "b"), 1, np.zeros(2), coeffs, mask, np.eye(2))

    @pytest.mark.parametrize("field", ["intercept", "coeffs", "sigma_e"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, field, value):
        parts = {
            "intercept": np.zeros(2),
            "coeffs": np.full((1, 2, 2), 0.1),
            "sigma_e": np.eye(2),
        }
        parts[field].flat[-1] = value
        with pytest.raises(ParameterError, match="must be finite"):
            RVarModel(
                ("a", "b"), 1, parts["intercept"], parts["coeffs"], zero_mask(1, 2), parts["sigma_e"]
            )

    @pytest.mark.parametrize("names", [("a", "a"), ("a", "")])
    def test_duplicate_or_empty_names_rejected(self, names):
        with pytest.raises(ParameterError, match="unique and non-empty"):
            RVarModel(names, 1, np.zeros(2), np.zeros((1, 2, 2)), zero_mask(1, 2), np.eye(2))

    def test_free_coefficients(self):
        mask = zero_mask(2, 3)
        mask[0, 0, 1] = True
        mask[1, 2, 2] = True
        coeffs = np.zeros((2, 3, 3))
        m = RVarModel(("a", "b", "c"), 2, np.zeros(3), coeffs, mask, np.eye(3))
        assert m.free_coefficients == 3 + (18 - 2)

    def test_companion_shape_and_content(self):
        coeffs = np.stack([A1, A2])
        m = RVarModel(("a", "b", "c"), 2, INTERCEPT, coeffs, zero_mask(2, 3), SIGMA)
        comp = m.companion()
        assert comp.shape == (6, 6)
        assert np.array_equal(comp[:3, :3], A1)
        assert np.array_equal(comp[:3, 3:], A2)
        assert np.array_equal(comp[3:, :3], np.eye(3))
        assert np.array_equal(comp[3:, 3:], np.zeros((3, 3)))

    def test_shock_index(self):
        m = RVarModel(("a", "b", "c"), 2, INTERCEPT, np.stack([A1, A2]), zero_mask(2, 3), SIGMA)
        assert [m.shock_index(name) for name in ("a", "b", "c")] == [0, 1, 2]
        with pytest.raises(ParameterError):
            m.shock_index("nope")


class TestResiduals:
    def test_dates_and_values(self):
        frame = _sim_frame(60)
        model = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        res = residuals(model, frame)
        assert res.shape == (len(frame) - 2, 3)
        y = frame.values
        pred = model.intercept + y[1:-1] @ model.coeffs[0].T + y[:-2] @ model.coeffs[1].T
        assert np.allclose(res, y[2:] - pred, atol=1e-12)

    def test_residuals_orthogonal_to_design(self):
        frame = _sim_frame(300)
        model = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        res = residuals(model, frame)
        # unrestricted least squares leaves residuals orthogonal to every regressor
        y = frame.values
        for lag in (1, 2):
            cross = res.T @ y[2 - lag : len(y) - lag]
            assert np.max(np.abs(cross)) < 1e-6
        assert np.max(np.abs(res.sum(axis=0))) < 1e-6


class TestSimulate:
    def test_deterministic_given_seed(self):
        a = simulate_var(np.stack([A1, A2]), INTERCEPT, SIGMA, 50, np.random.default_rng(5))
        b = simulate_var(np.stack([A1, A2]), INTERCEPT, SIGMA, 50, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_zero_noise_reaches_fixed_point(self):
        vals = simulate_var(
            np.stack([A1, A2]), INTERCEPT, np.zeros((3, 3)), 10, np.random.default_rng(0)
        )
        fixed = np.linalg.solve(np.eye(3) - A1 - A2, INTERCEPT)
        assert np.allclose(vals[-1], fixed, atol=1e-8)

    def test_shape(self):
        vals = simulate_var(np.stack([A1, A2]), INTERCEPT, SIGMA, 77, np.random.default_rng(1))
        assert vals.shape == (77, 3)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        frame = _sim_frame(400)
        mask = zero_mask(2, 3)
        mask[0, 2, 1] = True
        model = fit_restricted_var(frame, p=2, mask=mask)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.names == model.names
        assert loaded.p == model.p
        assert np.array_equal(loaded.intercept, model.intercept)
        assert np.array_equal(loaded.coeffs, model.coeffs)
        assert np.array_equal(loaded.mask, model.mask)
        assert np.array_equal(loaded.sigma_e, model.sigma_e)
        assert loaded.train_start == model.train_start
        assert loaded.train_end == model.train_end

    def test_reload_reproduces_residuals_exactly(self, tmp_path):
        frame = _sim_frame(300)
        model = fit_restricted_var(frame, p=2, mask=zero_mask(2, 3))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert np.array_equal(
            residuals(model, frame), residuals(loaded, frame)
        )

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(SchemaError):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload.pop("coeffs"),
            lambda payload: payload.update(p="two"),
            lambda payload: payload.update(train_start="2020-02-30"),
        ],
        ids=["missing_key", "bad_order", "bad_date"],
    )
    def test_malformed_payload_is_schema_error(self, tmp_path, edit):
        path = tmp_path / "m.json"
        save_model(fit_restricted_var(_sim_frame(300), p=1, mask=zero_mask(1, 3)), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="malformed model"):
            load_model(path)

    @pytest.mark.parametrize("order", ["1", 1.9, True], ids=["string", "fraction", "bool"])
    def test_order_must_be_a_json_integer(self, tmp_path, order):
        path = tmp_path / "m.json"
        save_model(fit_restricted_var(_sim_frame(300), p=1, mask=zero_mask(1, 3)), path)
        payload = json.loads(path.read_text())
        payload["p"] = order
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="malformed model"):
            load_model(path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
    def test_not_a_json_object_is_schema_error(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_model(path)
