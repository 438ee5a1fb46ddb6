"""Shared fixture helpers for the test suite."""

import json

import numpy as np
import pytest

from aircast import autodiff as ad
from aircast.autodiff import clear_tape
from aircast.data import Series3h
from aircast.graph import SensorGraph, Station

from datetime import datetime


def grid_stations(n: int, spacing_deg: float = 0.3) -> list[Station]:
    """n distinct stations on a small lat/lon grid near Beijing."""
    out = []
    for i in range(n):
        out.append(Station(f"s{i}", 39.5 + spacing_deg * (i % 3),
                           116.0 + spacing_deg * (i // 3)))
    return out


def toy_graph(n: int) -> SensorGraph:
    return SensorGraph.from_stations(grid_stations(n))


def synthetic_series(steps: int, n: int, seed: int = 0) -> Series3h:
    """Positive pseudo-random 3h series with mild daily structure."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps)[:, None]
    phase = rng.uniform(0, 2 * np.pi, size=(1, n))
    pm = 60 + 25 * np.sin(2 * np.pi * t / 8 + phase) + 5 * rng.standard_normal((steps, n))
    return Series3h(start=datetime(2017, 1, 1),
                    station_ids=[f"s{i}" for i in range(n)],
                    pm25=pm,
                    wind_u=rng.standard_normal((steps, n)),
                    wind_v=rng.standard_normal((steps, n)))


def stack(tensors):
    """The tensors stacked on a new leading axis; its VJP hands each input
    its slice of the cotangent. The unrolled-tape oracles stack their states
    with it, as the training solve did before it was checkpointed."""
    def vjp(g):
        return tuple(np.take(g, i, axis=0) for i in range(len(tensors)))

    return ad.record(np.stack([t.data for t in tensors]), tuple(tensors),
                      vjp)


def composed_gru_step(x, h, params):
    """One GRU update composed of 20 primitives, as model.gru_step recorded
    it before the step was one ad.gru_cell entry: the bitwise oracle of the
    cell's values and gradients."""
    z = ad.sigmoid(ad.matmul(x, params.w_z) + ad.matmul(h, params.u_z)
                   + params.b_z)
    r = ad.sigmoid(ad.matmul(x, params.w_r) + ad.matmul(h, params.u_r)
                   + params.b_r)
    n = ad.tanh(ad.matmul(x, params.w_n)
                + ad.matmul(ad.mul(r, h), params.u_n) + params.b_n)
    return ad.mul(ad.sub(1.0, z), h) + ad.mul(z, n)


def composed_cheb_branch(lap, h0, params):
    """physics.cheb_branch's residual Laplacian-power stack composed of
    matmul, add and tanh primitives on tensors."""
    h = total = h0
    for layer in params.thetas:
        power = h
        acc = ad.matmul(power, layer[0])
        for theta in layer[1:]:
            power = ad.matmul(lap, power)
            acc = acc + ad.matmul(power, theta)
        h = ad.tanh(acc)
        total = total + h
    return total


def composed_gate_alpha(h_diff, h_adv, params):
    return ad.sigmoid(ad.matmul(h_diff, params.w_diff)
                      + ad.matmul(h_adv, params.w_adv) + params.b)


def composed_rhs(func, z):
    """F(z) of a bound physics.DEFunction composed of 48 primitives (order
    3, two layers, learned gate), as DEFunction.__call__ recorded it before
    each call was one tape entry: the bitwise oracle of the call's values
    and gradients."""
    coeff = func.diffusion_coefficient()
    if func.gate_mode == "diff_only":
        h_diff = composed_cheb_branch(func.dist_tensor, z, func.diff_branch)
        return ad.neg(ad.mul(h_diff, coeff))
    if func.gate_mode == "adv_only":
        return ad.neg(composed_cheb_branch(func.flow_lap, z, func.adv_branch))
    h_diff = composed_cheb_branch(func.dist_tensor, z, func.diff_branch)
    h_adv = composed_cheb_branch(func.flow_lap, z, func.adv_branch)
    alpha = composed_gate_alpha(h_diff, h_adv, func.fusion)
    return ad.neg(ad.mul(alpha, ad.mul(h_diff, coeff))
                  + ad.mul(ad.sub(1.0, alpha), h_adv))


def rewrite_metadata(src, dst, edit) -> None:
    """Copy a .npz container with its JSON metadata passed through edit."""
    with np.load(src) as archive:
        arrays = {k: archive[k] for k in archive.files if k != "_meta"}
        meta = json.loads(str(archive["_meta"]))
    np.savez(dst, _meta=np.array(json.dumps(edit(meta))), **arrays)


@pytest.fixture(autouse=True)
def fresh_tape():
    """Every test starts and ends with an empty autodiff tape."""
    clear_tape()
    yield
    clear_tape()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
