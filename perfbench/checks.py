"""Correctness checks, run after the timed ops of every run.

Each check compares the program's output with a separate computation or
with a property of the method, never with a stored copy of earlier output.
Every function returns a list of failure messages; an empty list passes.
The functions that compare take the measured values as arguments, so the
self-check can hand them perturbed values and see them fail.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime

import numpy as np

import inputs

LAPLACIAN_TOL = 1e-8       # power iteration stops at a 1e-9 residual
EXACT_RTOL = 1e-12         # same arithmetic, possibly in another order
IMPUTE_RTOL = 1e-9         # running sums against per-window means
GRAD_STEP = 1e-6
GRAD_RTOL = 1e-5           # truncation error of the central difference, O(h^2)
GRAD_ROUNDOFF = 100.0      # times eps * |loss| / h, its rounding error
REFERENCE_RTOL = REFERENCE_ATOL = 1e-10
MAX_ACCEPTED_STEPS = 64    # aircast takes about 29 over a 24-step horizon


def laplacian_errors(matrix: np.ndarray, what: str) -> list[str]:
    """A rescaled normalized Laplacian 2 L / lambda_max - I has top
    eigenvalue exactly 1 when lambda_max is right."""
    top = float(np.linalg.eigvalsh(np.asarray(matrix))[-1])
    if abs(top - 1.0) <= LAPLACIAN_TOL:
        return []
    return [f"{what}: top eigenvalue {top!r}, expected 1"]


def arrays_digest(path) -> str:
    """SHA-256 over the names and bytes of every array in an .npz file."""
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as archive:
        for key in sorted(archive.files):
            a = np.ascontiguousarray(archive[key])
            h.update(key.encode())
            h.update(str(a.dtype).encode() + str(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def same_digest_errors(digests: list[str], what: str) -> list[str]:
    if len(set(digests)) <= 1:
        return []
    return [f"{what} differ between ops of one run: {len(set(digests))} "
            f"distinct digests over {len(digests)} ops"]


def read_npz(path) -> tuple[dict, dict]:
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files if k != "_meta"}
        meta = json.loads(str(archive["_meta"]))
    return arrays, meta


# ---------------------------------------------------------------- ingest

def _close(a, b, rtol) -> np.ndarray:
    return np.abs(a - b) <= rtol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def ingest_errors(arrays: dict, meta: dict, layout: inputs.Layout,
                  fields: inputs.Hourly, gaps: inputs.Gaps) -> list[str]:
    """The processed dataset against the generated readings: station table
    and start time, 3-hour means of complete blocks (observed values come
    through unchanged), and every block after the 24-hour imputation rule."""
    errors = []
    n = len(layout.ids)
    steps = fields.hours // 3
    if meta.get("station_ids") != layout.ids:
        errors.append("station ids or their order changed")
    if (meta.get("latitudes") != layout.lat.tolist()
            or meta.get("longitudes") != layout.lon.tolist()):
        errors.append("station coordinates changed")
    epoch = int((inputs.START - datetime(1970, 1, 1)).total_seconds())
    if meta.get("start_epoch") != epoch:
        errors.append(f"start {meta.get('start_epoch')} is not the first "
                      f"reading in UTC")
    for key in ("pm25", "wind_u", "wind_v"):
        if arrays[key].shape != (steps, n):
            errors.append(f"{key} has shape {arrays[key].shape}, "
                          f"expected {(steps, n)}")
    if errors:
        return errors

    def complete(*channels):
        obs = np.logical_and.reduce([gaps.observed(c) for c in channels])
        obs = obs[:3 * steps]
        return obs[0::3] & obs[1::3] & obs[2::3]

    pm_raw, u_raw, v_raw = inputs.reference_3h(
        fields.pm25, fields.wind_speed, fields.wind_direction)
    full_pm = complete("pm25")
    full_wind = complete("wind_speed", "wind_direction")
    if not full_pm.any() or not full_wind.any():
        errors.append("no complete 3-hour block to compare")
    for key, ref, mask in (("pm25", pm_raw, full_pm), ("wind_u", u_raw, full_wind),
                           ("wind_v", v_raw, full_wind)):
        bad = mask & ~_close(arrays[key], ref, EXACT_RTOL)
        if bad.any():
            errors.append(f"{key}: {int(bad.sum())} complete blocks differ from "
                          f"the mean of their readings")

    filled = {c: inputs.reference_impute(getattr(fields, c), gaps.observed(c))
              for c in inputs.CHANNELS}
    refs = inputs.reference_3h(filled["pm25"], filled["wind_speed"],
                               filled["wind_direction"])
    gappy_pm = ~full_pm
    gappy_wind = ~full_wind
    if not gappy_pm.any():
        errors.append("no 3-hour block with a missing hour to compare")
    for key, ref, mask in (("pm25", refs[0], gappy_pm), ("wind_u", refs[1], gappy_wind),
                           ("wind_v", refs[2], gappy_wind)):
        bad = mask & ~_close(arrays[key], ref, IMPUTE_RTOL)
        if bad.any():
            errors.append(f"{key}: {int(bad.sum())} blocks with missing hours "
                          f"differ from the 24-hour imputation rule")
    return errors


# ----------------------------------------------------------------- train

def gradient_pairs(model, batch, seed: int, per_group: int = 2
                   ) -> tuple[float, list[tuple[str, float, float]]]:
    """The loss, and (entry, backward() gradient, central difference) for
    the largest-gradient entry and per_group - 1 seeded entries of each
    parameter group. The loss is the mean squared error of a train-mode
    forward pass (fixed-step RK4) with its latent draw held fixed."""
    from aircast import autodiff as ad

    truth = ad.Tensor(np.concatenate([s.x_future for s in batch], axis=1))

    def loss():
        pred = model.forward_batch(batch, "train", np.random.default_rng(seed))
        d = ad.sub(pred, truth)
        return ad.reduce_mean(ad.mul(d, d))

    params = model.parameters()
    ad.clear_tape()
    for p in params:
        p.zero_grad()
    value = loss()
    ad.backward(value)
    pick = np.random.default_rng(seed)
    pairs = []
    for group in model.parameter_groups().values():
        flat = [(p, i) for p in group for i in range(p.data.size)]
        grads = np.array([p.grad.flat[i] for p, i in flat])
        chosen = [int(np.argmax(np.abs(grads)))]
        chosen += pick.choice(len(flat), size=min(per_group, len(flat)) - 1,
                              replace=False).tolist()
        for k in chosen:
            p, i = flat[k]
            orig = p.data.flat[i]
            with ad.no_grad():
                p.data.flat[i] = orig + GRAD_STEP
                up = loss().item()
                p.data.flat[i] = orig - GRAD_STEP
                down = loss().item()
            p.data.flat[i] = orig
            pairs.append((f"{p.name}[{i}]", float(grads[k]),
                          (up - down) / (2.0 * GRAD_STEP)))
    for p in params:
        p.zero_grad()
    return value.item(), pairs


def gradient_errors(loss: float, pairs) -> list[str]:
    atol = GRAD_ROUNDOFF * np.finfo(float).eps * abs(loss) / GRAD_STEP
    errors = []
    for name, analytic, numeric in pairs:
        if abs(analytic - numeric) > atol + GRAD_RTOL * max(abs(analytic),
                                                            abs(numeric)):
            errors.append(f"gradient of {name}: backward {analytic!r}, "
                          f"central difference {numeric!r}")
    return errors


# -------------------------------------------------------------- forecast

def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def numpy_mae(pred_rows, truth_rows) -> float:
    truth = {(r[0], r[1]): float(r[2]) for r in truth_rows}
    keys = sorted(set(truth) & {(r[0], r[1]) for r in pred_rows})
    pred = {(r[0], r[1]): float(r[2]) for r in pred_rows}
    return float(np.mean(np.abs(np.array([pred[k] for k in keys])
                                - np.array([truth[k] for k in keys]))))


def mae_errors(reported: float, expected: float) -> list[str]:
    if math.isclose(reported, expected, rel_tol=EXACT_RTOL, abs_tol=0.0):
        return []
    return [f"aircast evaluate mae={reported!r}, numpy MAE of the CSVs "
            f"{expected!r}"]


def forecast_rows_errors(pred_rows, truth_rows, expected_rows: int,
                         truth_values: np.ndarray) -> list[str]:
    """Row counts, and the truth column against the dataset values."""
    errors = []
    if len(pred_rows) != expected_rows or len(truth_rows) != expected_rows:
        errors.append(f"{len(pred_rows)} forecast and {len(truth_rows)} truth "
                      f"rows, expected origins x 24 x stations = {expected_rows}")
        return errors
    got = np.array([float(r[2]) for r in truth_rows])
    if not np.array_equal(got, truth_values):
        errors.append("truth rows differ from the dataset values")
    return errors


def reference_forecast(model, x_hist_norm: np.ndarray, wind_last: np.ndarray,
                       horizon: int) -> tuple[np.ndarray, float]:
    """Forecast for one origin with the model's encoder and right-hand side
    but SciPy's DOP853 at tight tolerance, and the tolerance the program's
    forecast must meet against it (see the README)."""
    from scipy.integrate import solve_ivp
    from aircast import autodiff as ad
    from aircast.model import encode_history

    with ad.no_grad():
        mu, _ = encode_history(x_hist_norm, model.gru, model.head)
        model.de.set_flow_from_wind(ad.Tensor(wind_last))
        shape = mu.shape

        def rhs(t, y):
            return model.de(t, ad.Tensor(y.reshape(shape))).data.ravel()

        sol = solve_ivp(rhs, (0.0, float(horizon)), mu.data.ravel(),
                        method="DOP853", rtol=REFERENCE_RTOL,
                        atol=REFERENCE_ATOL,
                        t_eval=np.arange(1, horizon + 1, dtype=np.float64))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    traj = sol.y.T.reshape(horizon, *shape)
    w = model.decoder.w.data[:, 0]
    b = float(model.decoder.b.data[0, 0])
    stats = model.stats
    forecast = (traj @ w + b) * stats.std + stats.mean
    solver = model.solver
    z_max = float(np.abs(traj).max())
    latent_tol = (MAX_ACCEPTED_STEPS * math.sqrt(traj[0].size)
                  * (solver.atol + solver.rtol * z_max))
    return forecast, latent_tol * float(np.abs(w).sum()) * stats.std


def reference_errors(forecast: np.ndarray, reference: np.ndarray,
                     tol: float) -> list[str]:
    worst = float(np.abs(forecast - reference).max())
    if worst <= tol:
        return []
    return [f"forecast differs from the DOP853 reference by {worst!r} "
            f"(tolerance {tol!r})"]
