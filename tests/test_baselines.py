"""Baseline forecaster tests: historical-average lag arithmetic and vector
autoregression fitting, recursion, and degeneracy handling."""

import numpy as np
import pytest

from aircast.baselines import (STEPS_PER_DAY, VarModel, fit_var, ha_forecast,
                               var_forecast)
from aircast.errors import DataError, DimensionError


def test_ha_linear_ramp_hand_case():
    # series[t] = t: the mean of t-8, t-16, t-24, t-32 is t - 20
    series = np.arange(60, dtype=np.float64)[:, None]
    out = ha_forecast(series, [40, 50])
    np.testing.assert_allclose(out[:, 0], [20.0, 30.0], atol=1e-12)


def test_ha_periodic_series_is_exact():
    # purely daily series: the average of four identical same-slot values
    day = np.array([40.0, 45.0, 55.0, 70.0, 80.0, 65.0, 50.0, 42.0])
    series = np.tile(day, 6)[:, None]
    out = ha_forecast(series, np.arange(32, 48))
    np.testing.assert_allclose(out[:, 0], np.tile(day, 2), atol=1e-12)


def test_ha_brute_force_oracle(rng):
    series = rng.uniform(0, 150, size=(100, 3))
    targets = [32, 47, 99]
    out = ha_forecast(series, targets)
    for row, t in enumerate(targets):
        expected = (series[t - 8] + series[t - 16] + series[t - 24]
                    + series[t - 32]) / 4.0
        np.testing.assert_allclose(out[row], expected, atol=1e-12)


def test_ha_validation():
    series = np.zeros((40, 2))
    assert STEPS_PER_DAY == 8
    with pytest.raises(DataError, match="32 steps"):
        ha_forecast(series, [31])
    with pytest.raises(DataError):
        ha_forecast(series, [])
    with pytest.raises(DataError):
        ha_forecast(series, [60])
    with pytest.raises(DimensionError):
        ha_forecast(np.zeros(40), [32])


def simulate_var1(a, intercept, steps, noise, rng):
    n = a.shape[0]
    x = np.zeros((steps, n))
    x[0] = rng.standard_normal(n)
    for t in range(1, steps):
        x[t] = intercept + x[t - 1] @ a + noise * rng.standard_normal(n)
    return x


def test_var_recovers_known_coefficients(rng):
    a = np.array([[0.5, 0.1], [0.0, 0.4]])
    intercept = np.array([1.0, -0.5])
    series = simulate_var1(a, intercept, 4000, 0.1, rng)
    model = fit_var(series, lags=1)
    assert not model.ridge_used
    np.testing.assert_allclose(model.coeffs[0], a, atol=0.05)
    np.testing.assert_allclose(model.intercept, intercept, atol=0.05)


def test_var_white_noise_has_no_structure(rng):
    series = rng.standard_normal((4000, 2)) * 2.0 + 7.0
    model = fit_var(series, lags=3)
    assert np.abs(model.coeffs).max() < 0.08
    # intercept error compounds the coefficient noise scaled by the mean
    np.testing.assert_allclose(model.intercept, [7.0, 7.0], atol=1.0)


def test_var_exact_on_noiseless_process(rng):
    a = np.array([[0.6, -0.2], [0.1, 0.5]])
    series = simulate_var1(a, np.zeros(2), 50, 0.0, rng)
    model = fit_var(series, lags=1)
    np.testing.assert_allclose(model.coeffs[0], a, atol=1e-8)
    np.testing.assert_allclose(model.intercept, [0.0, 0.0], atol=1e-8)


def test_var_constant_series_forecasts_constant():
    series = np.full((50, 2), 42.0)
    model = fit_var(series, lags=3)
    assert model.ridge_used
    forecast = var_forecast(model, series[-3:], 8)
    np.testing.assert_allclose(forecast, 42.0, atol=1e-3)


def test_var_step_matches_declared_convention(rng):
    model = VarModel(intercept=np.array([1.0, 2.0]),
                     coeffs=rng.uniform(-0.3, 0.3, size=(2, 2, 2)),
                     ridge_used=False)
    recent = rng.standard_normal((2, 2))
    got = model.step(recent)
    expected = model.intercept + recent[-1] @ model.coeffs[0] \
        + recent[-2] @ model.coeffs[1]
    np.testing.assert_allclose(got, expected, atol=1e-14)
    with pytest.raises(DimensionError):
        model.step(recent[:1])


def test_var_forecast_recursion_oracle(rng):
    model = VarModel(intercept=rng.standard_normal(3) * 0.1,
                     coeffs=rng.uniform(-0.25, 0.25, size=(2, 3, 3)),
                     ridge_used=False)
    recent = rng.standard_normal((2, 3))
    horizon = 5
    got = var_forecast(model, recent, horizon)
    window = recent.copy()
    for h in range(horizon):
        nxt = model.step(window)
        np.testing.assert_array_equal(got[h], nxt)
        window = np.vstack([window[1:], nxt[None, :]])


def test_var_one_step_prediction_is_in_sample_lstsq(rng):
    # with lags rows of context, step() after fit reproduces the least
    # squares prediction for the next row
    a = np.array([[0.7]])
    series = simulate_var1(a, np.array([0.5]), 300, 0.2, rng)
    model = fit_var(series, lags=2)
    pred = model.step(series[-2:])
    assert pred.shape == (1,)
    assert np.isfinite(pred).all()


def test_var_fit_validation():
    with pytest.raises(DataError):
        fit_var(np.zeros((3, 2)), lags=3)
    with pytest.raises(DataError):
        fit_var(np.zeros((10, 2)), lags=0)
    with pytest.raises(DimensionError):
        fit_var(np.zeros(10), lags=2)
    with pytest.raises(DataError):
        var_forecast(VarModel(np.zeros(2), np.zeros((1, 2, 2)), False),
                     np.zeros((1, 2)), 0)
