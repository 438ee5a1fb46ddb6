"""Reference forecasters: historical average and vector autoregression.

Both operate on a (steps, stations) array of 3-hour block means in
measurement units. They exist to give the learned model something
honest to beat, so neither sees any information a forecaster standing
at the origin time would lack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import STEP_HOURS
from .errors import DataError, DimensionError

STEPS_PER_DAY = 24 // STEP_HOURS
HA_DAYS = 4  # prior days the historical average takes the mean of
RIDGE = 1e-6  # penalty of a rank-deficient VAR fit


def ha_forecast(series: np.ndarray, target_indices) -> np.ndarray:
    """Historical average: mean of the same time-of-day over prior days.

    For target step t the forecast is the mean of rows t - STEPS_PER_DAY*k
    for k = 1..HA_DAYS. Every lag must exist, so targets need at least
    ``HA_DAYS * STEPS_PER_DAY`` steps of history.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise DimensionError(f"expected (steps, stations), got {series.shape}")
    targets = np.asarray(target_indices, dtype=np.int64)
    if targets.size == 0:
        raise DataError("no target indices given")
    depth = HA_DAYS * STEPS_PER_DAY
    if np.any(targets - depth < 0):
        raise DataError(
            f"historical average needs {depth} steps of history before each target")
    if np.any(targets - STEPS_PER_DAY >= series.shape[0]):
        raise DataError("target lags beyond the end of the series")
    out = np.zeros((targets.size, series.shape[1]))
    for row, t in enumerate(targets):
        lags = [series[t - STEPS_PER_DAY * k] for k in range(1, HA_DAYS + 1)]
        out[row] = np.mean(lags, axis=0)
    return out


@dataclass(frozen=True)
class VarModel:
    """x_t ~ intercept + sum_l x_{t-l} @ coeffs[l-1], rows as time steps.

    ``coeffs`` has shape (lags, stations, stations); coeffs[l-1] maps
    the lag-l row vector to its contribution to the prediction.
    """

    intercept: np.ndarray
    coeffs: np.ndarray
    ridge_used: bool

    @property
    def lags(self) -> int:
        return self.coeffs.shape[0]

    def step(self, recent: np.ndarray) -> np.ndarray:
        """One-step prediction from the last ``lags`` rows (oldest first)."""
        recent = np.asarray(recent, dtype=np.float64)
        if recent.shape != (self.lags, self.intercept.size):
            raise DimensionError(
                f"expected {(self.lags, self.intercept.size)}, got {recent.shape}")
        pred = self.intercept.copy()
        for l in range(1, self.lags + 1):
            pred = pred + recent[-l] @ self.coeffs[l - 1]
        return pred


def fit_var(series: np.ndarray, lags: int = 3) -> VarModel:
    """Least-squares fit of a VAR with intercept.

    Plain least squares is used when the design matrix has full column
    rank; otherwise (constant series, collinear stations) the normal
    equations are solved with the ridge penalty RIDGE so the fit stays
    defined.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise DimensionError(f"expected (steps, stations), got {series.shape}")
    steps, n = series.shape
    if lags < 1:
        raise DataError("need at least one lag")
    rows = steps - lags
    if rows < 1:
        raise DataError(f"series of {steps} steps cannot fit {lags} lags")
    design = np.ones((rows, 1 + lags * n))
    for l in range(1, lags + 1):
        design[:, 1 + (l - 1) * n:1 + l * n] = series[lags - l:steps - l]
    target = series[lags:]
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    ridge_used = False
    if rank < design.shape[1]:
        gram = design.T @ design + RIDGE * np.eye(design.shape[1])
        solution = np.linalg.solve(gram, design.T @ target)
        ridge_used = True
    intercept = solution[0]
    coeffs = np.stack([solution[1 + (l - 1) * n:1 + l * n]
                       for l in range(1, lags + 1)])
    return VarModel(intercept=intercept, coeffs=coeffs, ridge_used=ridge_used)


def var_forecast(model: VarModel, recent: np.ndarray, horizon: int) -> np.ndarray:
    """Recursive multi-step forecast; predictions feed back as inputs."""
    if horizon < 1:
        raise DataError("horizon must cover at least one step")
    window = np.array(recent, dtype=np.float64)  # VarModel.step checks its shape
    out = np.zeros((horizon, model.intercept.size))
    for h in range(horizon):
        nxt = model.step(window)
        out[h] = nxt
        window = np.vstack([window[1:], nxt[None, :]])
    return out
