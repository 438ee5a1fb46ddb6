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

    return ad._result(np.stack([t.data for t in tensors]), tuple(tensors),
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
