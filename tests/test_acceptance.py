"""End-to-end acceptance checks.

One test per numbered check; each enforces a wall-clock budget and prints
a summary line on success. These intentionally re-derive expected values
with independent code (dense matrix exponentials, explicit loops, hand
arithmetic) instead of reusing library helpers.
"""

import math
import os
import time
import xml.etree.ElementTree as ET
from datetime import datetime

import numpy as np
import pytest
import scipy.linalg

from conftest import grid_stations, synthetic_series, toy_graph

from aircast import autodiff as ad
from aircast.autodiff import Tensor
from aircast.baselines import fit_var, ha_forecast, var_forecast
from aircast.data import (HourlySeries, Series3h, WindowSample,
                          chronological_split, impute_missing, make_windows)
from aircast.figures import (diffusion_flux, render_diffusion_lines,
                             render_wind_heatmap)
from aircast.graph import SensorGraph, scaled_laplacian
from aircast.metrics import CITY_LEVELS, SUDDEN_CHANGE_DELTA, sudden_change_mask
from aircast.model import (Model, ModelConfig, load_checkpoint, make_checkpoint,
                           model_from_checkpoint, save_checkpoint)
from aircast.odeint import (SolverConfig, TimeGrid, dopri5_integrate_stats,
                            fixed_step_integrate)
from aircast.physics import (simulate_advection_reference,
                             simulate_diffusion_reference)
from aircast.training import TrainConfig, mae_loss, train_loop


def _done(tag: str, t0: float, limit: float, summary: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{tag} took {elapsed:.1f}s, budget {limit:g}s"
    print(f"[{tag}] PASS in {elapsed:.2f}s (budget {limit:g}s): {summary}")


def test_c1_adaptive_solver_accuracy():
    t0 = time.perf_counter()
    cfg = SolverConfig(rtol=1e-9, atol=1e-9)

    states, _ = dopri5_integrate_stats(lambda t, z: ad.neg(z), Tensor([[[1.0]]]),
                                       TimeGrid([0.0, 1.0]), cfg)
    err_scalar = abs(states.data[-1, 0, 0, 0] - math.exp(-1.0))
    assert err_scalar < 1e-6

    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((3, 1))
    op = Tensor(a)
    grid = TimeGrid([0.0, 0.6, 1.0])
    states, _ = dopri5_integrate_stats(lambda t, z: ad.matmul(op, z),
                                       Tensor(x0[None]), grid, cfg)
    worst = 0.0
    for t, s in zip(grid.times[1:], states.data):
        oracle = scipy.linalg.expm(a * t) @ x0
        worst = max(worst, float(np.max(np.abs(s[0] - oracle))))
    assert worst < 1e-5

    _done("c1", t0, 1.0,
          f"exp decay err {err_scalar:.2e} < 1e-6; 3x3 vs expm {worst:.2e} < 1e-5")


def test_c2_fixed_step_convergence_orders():
    t0 = time.perf_counter()

    errs, hs = [], []
    for steps in [2, 4, 8, 16]:
        states = fixed_step_integrate(lambda t, z: ad.neg(z), Tensor([[1.0]]),
                                      TimeGrid(np.arange(steps + 1) / steps))
        errs.append(abs(states.data[-1, 0, 0] - math.exp(-1.0)))
        hs.append(1.0 / steps)
    rk4, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    assert abs(rk4 - 4.0) <= 0.2, f"rk4 slope {rk4}"

    _done("c2", t0, 5.0, f"rk4 slope {rk4:.3f}")


def test_c3_reference_simulators_conserve_mass():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    times = np.array([2.0, 6.0, 10.0])
    worst_mass = 0.0
    worst_expm = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = np.abs(rng.standard_normal((n, n)))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        x0 = rng.uniform(1.0, 50.0, size=n)
        coeff = float(rng.uniform(0.05, 0.3))

        traj = simulate_diffusion_reference(w, x0, coeff, times)
        lap = np.diag(w.sum(axis=1)) - w
        for t, x in zip(times, traj):
            worst_mass = max(worst_mass, abs(x.sum() - x0.sum()))
            oracle = scipy.linalg.expm(-coeff * lap * t) @ x0
            worst_expm = max(worst_expm, float(np.max(np.abs(x - oracle))))

        v = np.abs(rng.standard_normal((n, n)))
        np.fill_diagonal(v, 0.0)
        traj = simulate_advection_reference(v, x0, times)
        for x in traj:
            worst_mass = max(worst_mass, abs(x.sum() - x0.sum()))

    assert worst_mass < 1e-8
    assert worst_expm < 1e-6

    _done("c3", t0, 10.0,
          f"20 graphs: mass drift {worst_mass:.1e} < 1e-8, "
          f"diffusion vs expm {worst_expm:.1e}")


def test_c4_scaled_laplacian_spectrum_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    lo, hi = 0.0, 0.0
    for i in range(100):
        n = int(rng.integers(2, 11))
        w = np.abs(rng.standard_normal((n, n)))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        if i % 5 == 0 and n > 2:
            w[0, :] = 0.0
            w[:, 0] = 0.0
        eigs = np.linalg.eigvalsh(scaled_laplacian(w).matrix)
        lo = min(lo, eigs.min())
        hi = max(hi, eigs.max())
    assert lo >= -1.0 - 1e-9
    assert hi <= 1.0 + 1e-9

    pair = scaled_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(pair.matrix,
                                  np.array([[0.0, -1.0], [-1.0, 0.0]]))

    _done("c4", t0, 5.0,
          f"100 spectra within [{lo:.12f}, {hi:.12f}]; 2-node case exact")


def test_c5_gradients_match_finite_differences():
    t0 = time.perf_counter()
    cfg = ModelConfig(history_steps=3, horizon_steps=3, latent_dim=4,
                      gru_hidden=6, head_hidden=5, cheb_order=2,
                      cheb_layers=1, flownet_hidden=3, seed=3)
    model = Model(toy_graph(4), cfg)
    rng = np.random.default_rng(17)
    samples = []
    for k in range(2):
        samples.append(WindowSample(
            x_hist=rng.uniform(-1.0, 1.0, size=(3, 4, 1)),
            p_hist=rng.standard_normal((3, 4, 2)),
            x_future=rng.uniform(-1.0, 1.0, size=(3, 4, 1)),
            start_time=datetime(2017, 3, 1),
            start_index=k))

    def loss():
        pred = model.forward_batch(samples, "train", np.random.default_rng(11))
        target = np.concatenate([s.x_future for s in samples], axis=1)
        return mae_loss(pred, target)

    groups = model.parameter_groups()
    assert set(groups) == {"gru", "head", "decoder", "flownet", "cheb_diff",
                           "cheb_adv", "fusion", "diffusion_coeff"}
    worst = {}
    for group, params in groups.items():
        rel = ad.finite_diff_check(loss, params)
        assert rel < 1e-4, f"group {group} rel error {rel}"
        worst[group] = rel

    top = max(worst, key=worst.get)
    _done("c5", t0, 60.0,
          f"8 parameter groups under 1e-4; worst {top} at {worst[top]:.1e}")


def _diffusion_series(n_windows: int, history: int, horizon: int,
                      seed: int) -> tuple[SensorGraph, Series3h]:
    """Piecewise diffusion trajectories from the reference simulator.

    Every 40 steps the state restarts from a fresh random profile, so the
    series stays in the transient regime where transport matters. A final
    1 percent multiplicative noise is applied to every reading.
    """
    rng = np.random.default_rng(seed)
    stations = grid_stations(6)
    graph = SensorGraph.from_stations(stations)
    w = graph.weights
    lap = np.diag(w.sum(axis=1)) - w
    lam2 = np.linalg.eigvalsh(lap)[1]
    coeff = 0.1 / lam2
    steps = n_windows + history + horizon - 1
    chunks = []
    remaining = steps
    while remaining > 0:
        take = min(40, remaining)
        x0 = rng.uniform(20.0, 140.0, size=6)
        chunks.append(simulate_diffusion_reference(
            w, x0, coeff, np.arange(1.0, take + 1.0)))
        remaining -= take
    pm = np.concatenate(chunks, axis=0)
    pm = pm * (1.0 + 0.01 * rng.standard_normal(pm.shape))
    series = Series3h(start=datetime(2017, 1, 1),
                      station_ids=[s.station_id for s in stations],
                      pm25=pm,
                      wind_u=0.05 * rng.standard_normal((steps, 6)),
                      wind_v=0.05 * rng.standard_normal((steps, 6)))
    return graph, series


def test_c6_synthetic_diffusion_recovery():
    t0 = time.perf_counter()
    history = horizon = 8
    graph, series = _diffusion_series(400, history, horizon, seed=2024)
    windows = make_windows(series, history, horizon)
    assert len(windows) == 400
    split = chronological_split(windows, (7, 1, 2))
    n_test = len(split.test)

    ha_errs = []
    for sample in windows[-n_test:]:
        origin = sample.start_index + history
        targets = list(range(origin, origin + horizon))
        pred = ha_forecast(series.pm25, targets)
        ha_errs.append(np.abs(pred - series.pm25[origin:origin + horizon]))
    ha_mae = float(np.mean(np.stack(ha_errs)))

    def train_and_score(gate_mode):
        cfg = ModelConfig(history_steps=history, horizon_steps=horizon,
                          latent_dim=8, gru_hidden=16, head_hidden=12,
                          cheb_order=2, cheb_layers=1, flownet_hidden=4,
                          gate_mode=gate_mode, seed=5)
        model = Model(graph, cfg)
        train_loop(model, split, TrainConfig(batch_size=32, learning_rate=5e-3,
                                             max_epochs=12, patience=12, seed=5),
                   os.devnull)
        errs = []
        for raw, norm in zip(windows[-n_test:], split.test):
            errs.append(np.abs(model.forecast([norm]) - raw.x_future))
        return float(np.mean(np.stack(errs)))

    learned = train_and_score("learned")
    diff_only = train_and_score("diff_only")
    adv_only = train_and_score("adv_only")

    assert learned <= 0.8 * ha_mae, \
        f"model mae {learned:.3f} not 20% under HA {ha_mae:.3f}"
    assert diff_only < adv_only, \
        f"diffusion-only {diff_only:.3f} should beat advection-only {adv_only:.3f}"

    _done("c6", t0, 600.0,
          f"model {learned:.2f} vs HA {ha_mae:.2f} "
          f"({100 * (1 - learned / ha_mae):.0f}% better); "
          f"diff {diff_only:.2f} < adv {adv_only:.2f}")


def test_c7_data_protocol_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)

    # windowing: every 24/24 window is an exact slice of the series
    series = synthetic_series(100, 3, seed=4)
    windows = make_windows(series, 24, 24)
    assert len(windows) == 100 - 48 + 1
    for i, w in enumerate(windows):
        np.testing.assert_array_equal(w.x_hist, series.pm25[i:i + 24, :, None])
        np.testing.assert_array_equal(w.x_future,
                                      series.pm25[i + 24:i + 48, :, None])
        assert w.start_index == i

    # chronological splits at both ratios, exact floor counts
    for ratio in ((7, 1, 2), (3, 1, 6)):
        shuffled = list(windows)
        rng.shuffle(shuffled)
        split = chronological_split(shuffled, ratio)
        n = len(windows)
        total = sum(ratio)
        want_train = n * ratio[0] // total
        want_val = n * ratio[1] // total
        assert len(split.train) == want_train
        assert len(split.val) == want_val
        assert len(split.test) == n - want_train - want_val
        starts = ([w.start_index for w in split.train]
                  + [w.start_index for w in split.val]
                  + [w.start_index for w in split.test])
        assert starts == list(range(n))

    # imputation: explicit double-loop oracle, bitwise agreement
    hours, n = 60, 3
    grids = {}
    for ch in ("pm25", "wind_speed", "wind_direction"):
        g = rng.uniform(5.0, 100.0, size=(hours, n))
        mask = rng.random((hours, n)) < 0.4
        mask[0, :] = False  # keep every column observed from the start
        g[mask] = np.nan
        grids[ch] = g
    raw = HourlySeries(start=datetime(2017, 1, 1),
                       station_ids=["s0", "s1", "s2"], **grids)
    filled = impute_missing(raw)
    for ch, g in grids.items():
        want = g.copy()
        for col in range(n):
            last = None
            for t in range(hours):
                if np.isfinite(g[t, col]):
                    last = g[t, col]
                    continue
                vals = [g[u, col] for u in range(max(0, t - 24), t)
                        if np.isfinite(g[u, col])]
                want[t, col] = np.mean(vals) if vals else last
        np.testing.assert_array_equal(getattr(filled, ch), want,
                                      err_msg=f"channel {ch}")

    # sudden-change masks at both city thresholds, plus or minus 20
    truth = rng.uniform(0.0, 120.0, size=(30, 4))
    for city, level in (("beijing", 50.0), ("shenzhen", 20.0)):
        assert CITY_LEVELS[city] == level and SUDDEN_CHANGE_DELTA == 20.0
        got = sudden_change_mask(truth, CITY_LEVELS[city])
        want = np.zeros_like(got)
        for t in range(29):
            for i in range(4):
                want[t, i] = (truth[t, i] > level
                              and abs(truth[t + 1, i] - truth[t, i]) > 20.0)
        np.testing.assert_array_equal(got, want, err_msg=city)

    # historical average: mean of the same slot on the previous 4 days
    ha_series = rng.uniform(10.0, 110.0, size=(80, 3))
    targets = list(range(32, 80))
    got = ha_forecast(ha_series, targets)
    want = np.stack([(ha_series[t - 8] + ha_series[t - 16]
                      + ha_series[t - 24] + ha_series[t - 32]) / 4.0
                     for t in targets])
    np.testing.assert_array_equal(got, want)

    # VAR(3): independently assembled least squares and replayed recursion
    var_series = rng.uniform(20.0, 80.0, size=(60, 2))
    model = fit_var(var_series, lags=3)
    assert not model.ridge_used
    rows = 60 - 3
    design = np.ones((rows, 1 + 3 * 2))
    for r in range(rows):
        for l in range(1, 4):
            design[r, 1 + (l - 1) * 2:1 + l * 2] = var_series[3 + r - l]
    solution = np.linalg.lstsq(design, var_series[3:], rcond=None)[0]
    np.testing.assert_array_equal(model.intercept, solution[0])
    for l in range(1, 4):
        np.testing.assert_array_equal(model.coeffs[l - 1],
                                      solution[1 + (l - 1) * 2:1 + l * 2])
    got = var_forecast(model, var_series[-3:], 5)
    window = var_series[-3:].copy()
    for h in range(5):
        pred = model.intercept.copy()
        for l in range(1, 4):
            pred = pred + window[-l] @ model.coeffs[l - 1]
        np.testing.assert_array_equal(got[h], pred)
        window = np.vstack([window[1:], pred[None, :]])

    _done("c7", t0, 30.0,
          "windowing, splits, imputation, masks, HA, VAR all match oracles")


def test_c8_reproducible_training_and_checkpoints(tmp_path):
    t0 = time.perf_counter()
    series = synthetic_series(40, 3, seed=1)
    windows = make_windows(series, 2, 2)
    split = chronological_split(windows, (7, 1, 2))
    cfg = ModelConfig(history_steps=2, horizon_steps=2, latent_dim=2,
                      gru_hidden=3, head_hidden=2, cheb_order=2,
                      cheb_layers=1, flownet_hidden=2, seed=7)
    tcfg = TrainConfig(batch_size=8, learning_rate=1e-3, max_epochs=3,
                       patience=3, seed=7)

    def run():
        model = Model(toy_graph(3), cfg)
        ckpt, rows = train_loop(model, split, tcfg, os.devnull)
        return model, ckpt, rows

    model_a, ckpt_a, rows_a = run()
    model_b, ckpt_b, rows_b = run()
    assert rows_a == rows_b
    assert sorted(ckpt_a.arrays) == sorted(ckpt_b.arrays)
    for key in ckpt_a.arrays:
        np.testing.assert_array_equal(ckpt_a.arrays[key], ckpt_b.arrays[key])

    save_checkpoint(make_checkpoint(model_a), tmp_path / "model.npz")
    restored = model_from_checkpoint(load_checkpoint(tmp_path / "model.npz"),
                                     model_a.graph)
    sample = split.test[0]
    np.testing.assert_array_equal(model_a.forecast([sample]),
                                  restored.forecast([sample]))

    _done("c8", t0, 120.0,
          "twin runs bitwise equal; round-tripped checkpoint forecasts bitwise")


def test_c9_figure_determinism_and_flux(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    stations = grid_stations(4)
    field = rng.uniform(10.0, 90.0, size=4)
    wind = rng.standard_normal((4, 2))

    first = render_wind_heatmap(stations, field, wind, tmp_path / "w1.svg")
    second = render_wind_heatmap(stations, field, wind, tmp_path / "w2.svg")
    assert first == second
    assert (tmp_path / "w1.svg").read_bytes() == (tmp_path / "w2.svg").read_bytes()
    ET.fromstring(first)

    graph = toy_graph(5)
    dfield = rng.uniform(20.0, 140.0, size=5)
    first = render_diffusion_lines(graph, dfield, "s2", 0.1, tmp_path / "d1.svg")
    second = render_diffusion_lines(graph, dfield, "s2", 0.1, tmp_path / "d2.svg")
    assert first == second
    ET.fromstring(first)

    w3 = np.array([[0.0, 2.0, 0.5],
                   [2.0, 0.0, 0.0],
                   [0.5, 0.0, 0.0]])
    flux = diffusion_flux(w3, np.array([100.0, 40.0, 160.0]), 0, 0.1)
    # 0.1 * 2.0 * (100 - 40) = 12, 0.1 * 0.5 * (100 - 160) = -3
    np.testing.assert_allclose(flux, [0.0, 12.0, -3.0], rtol=1e-12)

    _done("c9", t0, 5.0,
          "both renderers byte-stable and XML-valid; 3-node flux (0, 12, -3)")
