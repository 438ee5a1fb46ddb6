"""Seeded benchmark inputs and the benchmark's own reference computations.

Everything here is independent of the aircast package: station layouts,
hourly readings, the gaps blanked out of them, and the reference versions
of imputation and 3-hour resampling that the correctness checks compare
the program's output against. The same seed always gives the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

EARTH_RADIUS_KM = 6371.0
START = datetime(2017, 1, 1)  # first reading, UTC
LOCAL_OFFSET_H = 8            # readings are stamped in local time, +08:00

# (lat_min, lat_max, lon_min, lon_max) of the area the stations are drawn in
REGIONS = {
    "beijing": (39.60, 40.30, 116.00, 116.90),
    "shenzhen": (22.48, 22.78, 113.80, 114.40),
}
MIN_SEPARATION_KM = 1.0
# aircast's distance Laplacian takes lambda_max from power iteration with a
# 10,000-step cap and a 1e-9 residual test. Each step shrinks the residual
# by r = (lambda_2 + c) / (lambda_1 + c), c being its Gershgorin shift. A
# layout is redrawn unless r^k reaches 1e-9 within 5,000 steps, half the
# cap; every failing layout seen needed more than 15,000 by this estimate.
# The README says why layouts are screened at all.
POWER_ITERATION_STEPS = 5_000
POWER_ITERATION_REDUCTION = 1e-9


@dataclass(frozen=True)
class Layout:
    ids: list
    lat: np.ndarray
    lon: np.ndarray

    def write_csv(self, path) -> None:
        lines = ["station_id,latitude,longitude"]
        lines += [f"{s},{a!r},{o!r}" for s, a, o in
                  zip(self.ids, self.lat.tolist(), self.lon.tolist())]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def distance_matrix_km(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    la, lo = np.radians(lat), np.radians(lon)
    s = (np.sin((la[:, None] - la[None, :]) / 2.0) ** 2
         + np.cos(la[:, None]) * np.cos(la[None, :])
         * np.sin((lo[:, None] - lo[None, :]) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def power_iteration_steps(lat: np.ndarray, lon: np.ndarray) -> float:
    """Steps power iteration needs to shrink the residual by 1e-9 on the
    normalized inverse-distance Laplacian of this layout."""
    d = distance_matrix_km(lat, lon)
    n = d.shape[0]
    w = np.zeros_like(d)
    off = ~np.eye(n, dtype=bool)
    w[off] = 1.0 / d[off]
    inv = 1.0 / np.sqrt(w.sum(axis=1))
    lbar = np.eye(n) - inv[:, None] * w * inv[None, :]
    shift = np.abs(lbar).sum(axis=1).max()
    lam = np.linalg.eigvalsh(lbar)
    ratio = (lam[-2] + shift) / (lam[-1] + shift)
    if ratio >= 1.0:
        return math.inf
    return math.log(POWER_ITERATION_REDUCTION) / math.log(ratio)


def station_layout(rng: np.random.Generator, city: str, n: int) -> Layout:
    """n stations drawn uniformly over the city's area, at least
    MIN_SEPARATION_KM apart, redrawn until power iteration converges fast."""
    lat0, lat1, lon0, lon1 = REGIONS[city]
    while True:
        lat = np.round(rng.uniform(lat0, lat1, n), 4)
        lon = np.round(rng.uniform(lon0, lon1, n), 4)
        d = distance_matrix_km(lat, lon)
        if n > 1 and d[~np.eye(n, dtype=bool)].min() < MIN_SEPARATION_KM:
            continue
        if n > 1 and power_iteration_steps(lat, lon) > POWER_ITERATION_STEPS:
            continue
        return Layout([f"{city[:2]}{i:02d}" for i in range(n)], lat, lon)


def _ar1(rng, hours: int, width: int, phi: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) noise, (hours, width)."""
    eps = rng.standard_normal((hours, width)) * sigma
    out = np.empty_like(eps)
    out[0] = eps[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, hours):
        out[t] = phi * out[t - 1] + eps[t]
    return out


@dataclass
class Hourly:
    """Complete hourly fields, (hours, stations), as written to the CSV:
    PM2.5 and wind speed to 0.1, wind direction in whole degrees."""

    pm25: np.ndarray
    wind_speed: np.ndarray
    wind_direction: np.ndarray

    @property
    def hours(self) -> int:
        return self.pm25.shape[0]


def hourly_fields(rng: np.random.Generator, n: int, hours: int) -> Hourly:
    """Regional pollution episodes plus station offsets and a daily cycle;
    wind with persistent speed and a slowly turning direction."""
    hour = np.arange(hours)[:, None]
    log_pm = (math.log(55.0) + _ar1(rng, hours, 1, 0.985, 0.08)
              + rng.normal(0.0, 0.15, (1, n)) + _ar1(rng, hours, n, 0.9, 0.08)
              + 0.2 * np.cos(2 * np.pi * (hour - 20) / 24.0))
    pm25 = np.maximum(np.round(np.exp(log_pm) * 10.0) / 10.0, 1.0)
    log_ws = (math.log(2.2) + _ar1(rng, hours, 1, 0.97, 0.1)
              + _ar1(rng, hours, n, 0.8, 0.15))
    wind_speed = np.maximum(np.round(np.exp(log_ws) * 10.0) / 10.0, 0.1)
    heading = np.cumsum(rng.normal(0.0, 6.0, (hours, 1)), axis=0)
    wind_direction = np.round(heading + rng.normal(0.0, 15.0, (hours, n))) % 360.0
    return Hourly(pm25, wind_speed, wind_direction)


CHANNELS = ("pm25", "wind_speed", "wind_direction")


@dataclass
class Gaps:
    """present[h, i]: the row is in the CSV; blank[c][h, i]: field c of a
    present row is left empty."""

    present: np.ndarray
    blank: dict

    def observed(self, channel: str) -> np.ndarray:
        return self.present & ~self.blank[channel]


def make_gaps(rng: np.random.Generator, hours: int, n: int) -> Gaps:
    """About 3 % of rows dropped, 2 % with one field blank, and zero to two
    2-5 day outages per station. The first and last hour of the first
    station stay complete, so the hourly grid spans all hours."""
    present = rng.random((hours, n)) >= 0.03
    for i in range(n):
        for _ in range(rng.integers(0, 3)):
            length = int(rng.integers(48, 121))
            start = int(rng.integers(0, max(1, hours - length)))
            present[start:start + length, i] = False
    one_blank = (rng.random((hours, n)) < 0.02) & present
    which = rng.integers(0, len(CHANNELS), (hours, n))
    blank = {c: one_blank & (which == k) for k, c in enumerate(CHANNELS)}
    for h in (0, hours - 1):
        present[h, 0] = True
        for c in CHANNELS:
            blank[c][h, 0] = False
    return Gaps(present, blank)


def write_readings_csv(path, layout: Layout, fields: Hourly, gaps: Gaps) -> int:
    """Write the readings CSV in time order; returns the number of rows."""
    hours, n = fields.pm25.shape
    stamps = [(START + timedelta(hours=h + LOCAL_OFFSET_H)).strftime(
        "%Y-%m-%dT%H:00:00+08:00") for h in range(hours)]
    text = {
        "pm25": [f"{v:.1f}" for v in fields.pm25.ravel().tolist()],
        "wind_speed": [f"{v:.1f}" for v in fields.wind_speed.ravel().tolist()],
        "wind_direction": [f"{v:.0f}" for v in fields.wind_direction.ravel().tolist()],
    }
    for c in CHANNELS:
        for k in np.flatnonzero(gaps.blank[c].ravel()).tolist():
            text[c][k] = ""
    pm, ws, wd = text["pm25"], text["wind_speed"], text["wind_direction"]
    ids = layout.ids
    lines = ["timestamp,station_id,pm25,wind_speed,wind_direction"]
    for k in np.flatnonzero(gaps.present.ravel()).tolist():
        h, i = divmod(k, n)
        lines.append(f"{stamps[h]},{ids[i]},{pm[k]},{ws[k]},{wd[k]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def reference_impute(values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Fill every unobserved hour, column by column: the mean of that
    station's observations in the preceding 24 hours; else its last
    observation; else the mean of all observations of the channel."""
    x = np.where(observed, values, 0.0)
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    ccount = np.vstack([np.zeros((1, x.shape[1])),
                        np.cumsum(observed, axis=0)])
    t = np.arange(x.shape[0])
    lo = np.maximum(t - 24, 0)
    win_sum = csum[t] - csum[lo]
    win_count = ccount[t] - ccount[lo]
    last_idx = np.where(observed, t[:, None], -1)
    last_idx = np.maximum.accumulate(last_idx, axis=0)
    prev_idx = np.vstack([np.full((1, x.shape[1]), -1), last_idx[:-1]])
    cols = np.arange(x.shape[1])[None, :]
    last_val = values[np.maximum(prev_idx, 0), cols]
    global_mean = values[observed].mean()
    fill = np.where(win_count > 0, win_sum / np.maximum(win_count, 1),
                    np.where(prev_idx >= 0, last_val, global_mean))
    return np.where(observed, values, fill)


def reference_3h(pm25: np.ndarray, speed: np.ndarray, direction: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """3-hour block means of PM2.5 and of the hourly eastward (u) and
    northward (v) wind, direction being where the wind blows from."""
    steps = pm25.shape[0] // 3
    rad = np.deg2rad(direction)
    u, v = -speed * np.sin(rad), -speed * np.cos(rad)

    def block(a):
        a = a[:3 * steps]
        return (a[0::3] + a[1::3] + a[2::3]) / 3.0

    return block(pm25), block(u), block(v)
