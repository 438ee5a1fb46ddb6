"""Forecast accuracy metrics and sudden-change event masks.

Predictions and ground truth are aligned arrays in measurement units.
"""

from __future__ import annotations

import numpy as np

from .data import STEP_HOURS
from .errors import DataError, DimensionError

HORIZON_STEPS = {f"{h}h": h // STEP_HOURS for h in (24, 48, 72)}


def _error(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """pred - truth as float64, for two non-empty arrays of one shape."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise DataError("empty arrays have no error metric")
    return pred - truth


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(_error(pred, truth))))


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean(_error(pred, truth) ** 2)))


CITY_LEVELS = {"beijing": 50.0, "shenzhen": 20.0}  # sudden-change level per city
SUDDEN_CHANGE_DELTA = 20.0


def sudden_change_mask(truth: np.ndarray, level: float) -> np.ndarray:
    """Boolean mask of sudden-change points in a (steps, stations) series.

    A point (t, station) is flagged when the concentration exceeds
    ``level`` and the following step moves by more than
    SUDDEN_CHANGE_DELTA in either direction. The final step has no
    successor and is never flagged.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim != 2:
        raise DimensionError(f"expected (steps, stations), got {truth.shape}")
    mask = np.zeros(truth.shape, dtype=bool)
    jump = np.abs(truth[1:] - truth[:-1]) > SUDDEN_CHANGE_DELTA
    mask[:-1] = (truth[:-1] > level) & jump
    return mask
