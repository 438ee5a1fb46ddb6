"""Numerics at the paper's shapes: 35 stations (Beijing) and 11 (Shenzhen),
24-step history and horizon, the default ModelConfig.

The other model tests use 3-6 stations; these check the gradient, the
solver, the flow operator and extreme inputs where the program runs."""

import copy
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from aircast import autodiff as ad
from aircast.autodiff import Tensor, no_grad
from aircast.data import NormStats, WindowSample
from aircast.errors import AircastError
from aircast.graph import SensorGraph, Station
from aircast.model import Model, ModelConfig, encode_history
from aircast.odeint import SolverConfig, TimeGrid, ode_solve
from aircast.physics import flow_scaled_laplacian

# (lat_min, lat_max, lon_min, lon_max) of the area the stations are drawn in
BEIJING = (39.60, 40.30, 116.00, 116.90)
SHENZHEN = (22.48, 22.78, 113.80, 114.40)
T0 = datetime(2017, 3, 1, tzinfo=timezone.utc)

# central differences: the truncation error is O(h^2), the rounding error
# about eps * |loss| / h, allowed 100 times over
GRAD_STEP = 1e-6
GRAD_RTOL = 1e-5
GRAD_ROUNDOFF = 100.0
# a tight dopri5 solve is the reference; the default one may be off by
# this many steps' local tolerance, over the RMS norm's sqrt(size)
MAX_ACCEPTED_STEPS = 64


def layout(box, n: int, seed: int) -> SensorGraph:
    rng = np.random.default_rng(seed)
    lat0, lat1, lon0, lon1 = box
    lat = np.round(rng.uniform(lat0, lat1, n), 4)
    lon = np.round(rng.uniform(lon0, lon1, n), 4)
    return SensorGraph.from_stations(
        [Station(f"s{i:02d}", a, o) for i, (a, o) in enumerate(zip(lat, lon))])


def windows(rng, n: int, count: int, cfg: ModelConfig) -> list[WindowSample]:
    """Normalized PM2.5 and winds of a few m/s from any direction."""
    return [WindowSample(
        x_hist=rng.standard_normal((cfg.history_steps, n, 1)),
        p_hist=rng.uniform(-3.0, 3.0, size=(cfg.history_steps, n, 2)),
        x_future=rng.standard_normal((cfg.horizon_steps, n, 1)),
        start_time=T0, start_index=k) for k in range(count)]


@pytest.fixture(scope="module")
def beijing():
    return Model(layout(BEIJING, 35, seed=3), ModelConfig(seed=1))


@pytest.fixture(scope="module")
def shenzhen():
    return Model(layout(SHENZHEN, 11, seed=4), ModelConfig(seed=2),
                 stats=NormStats(mean=45.0, std=30.0))


def test_train_gradients_match_central_differences(beijing):
    # the largest-gradient entry and one seeded entry of each group
    model = beijing
    batch = windows(np.random.default_rng(5), 35, 2, model.config)
    truth = Tensor(np.concatenate([s.x_future for s in batch], axis=1))

    def loss():
        pred = model.forward_batch(batch, "train", np.random.default_rng(6))
        d = ad.sub(pred, truth)
        return ad.reduce_mean(ad.mul(d, d))

    for p in model.parameters():
        p.zero_grad()
    value = loss()
    ad.backward(value)
    atol = GRAD_ROUNDOFF * np.finfo(float).eps * abs(value.item()) / GRAD_STEP
    pick = np.random.default_rng(7)
    for group, params in model.parameter_groups().items():
        flat = [(p, i) for p in params for i in range(p.data.size)]
        grads = np.array([p.grad.flat[i] for p, i in flat])
        for k in (int(np.argmax(np.abs(grads))), int(pick.integers(len(flat)))):
            p, i = flat[k]
            orig = p.data.flat[i]
            with no_grad():
                p.data.flat[i] = orig + GRAD_STEP
                up = loss().item()
                p.data.flat[i] = orig - GRAD_STEP
                down = loss().item()
            p.data.flat[i] = orig
            numeric = (up - down) / (2.0 * GRAD_STEP)
            assert abs(grads[k] - numeric) <= atol + GRAD_RTOL * max(
                abs(grads[k]), abs(numeric)), (group, p.name, i)
        assert np.abs(grads).max() > 0, group
    for p in model.parameters():
        p.zero_grad()


def test_default_dopri5_is_within_its_bound_of_a_tight_solve(beijing):
    model = beijing
    cfg = model.config
    batch = windows(np.random.default_rng(8), 35, 4, cfg)
    x = np.concatenate([s.x_hist for s in batch], axis=1)
    with no_grad():
        mu, _ = encode_history(x, model.gru, model.head)
        z0 = ad.reshape(mu, (len(batch), 35, cfg.latent_dim))
        de = copy.copy(model.de)
        de.set_flow_from_wind(Tensor(np.stack([s.p_hist[-1] for s in batch])))
        grid = TimeGrid.unit(cfg.horizon_steps)
        solver = SolverConfig()
        got = ode_solve(de, z0, grid, solver).data
        ref = ode_solve(de, z0, grid, SolverConfig(rtol=1e-10, atol=1e-10)).data
    tol = (MAX_ACCEPTED_STEPS * math.sqrt(35 * cfg.latent_dim)
           * (solver.atol + solver.rtol * float(np.abs(ref).max())))
    assert np.abs(got - ref).max() <= tol
    assert model.de.flow_lap is None


@pytest.mark.parametrize("speed", [0.0, 1e-3, 3.0, 40.0])
@pytest.mark.parametrize("model_name", ["beijing", "shenzhen"])
def test_flow_operator_spectral_norm_is_at_most_one(request, model_name,
                                                    speed):
    model = request.getfixturevalue(model_name)
    n = model.n_stations
    angle = np.random.default_rng(9).uniform(0.0, 2 * np.pi, size=(4, n))
    wind = speed * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    with no_grad():
        lap = flow_scaled_laplacian(Tensor(wind), model.de.flow).data
    norms = np.linalg.norm(lap, ord=2, axis=(1, 2))
    assert (norms <= 1.0 + 1e-12).all(), norms


@pytest.mark.parametrize("pm25, speed", [(1000.0, 3.0), (60.0, 40.0),
                                         (1000.0, 40.0)])
def test_extreme_inputs_give_a_finite_forecast_or_a_typed_error(
        shenzhen, pm25, speed):
    model = shenzhen
    cfg = model.config
    rng = np.random.default_rng(10)
    angle = rng.uniform(0.0, 2 * np.pi, size=(cfg.history_steps, 11))
    sample = WindowSample(
        x_hist=model.stats.normalize(np.full((cfg.history_steps, 11, 1), pm25)),
        p_hist=speed * np.stack([np.cos(angle), np.sin(angle)], axis=-1),
        x_future=np.zeros((cfg.horizon_steps, 11, 1)),
        start_time=T0, start_index=0)
    try:
        out = model.forecast([sample])
    except AircastError:
        return
    assert np.isfinite(out).all()
