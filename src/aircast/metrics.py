"""Forecast accuracy metrics and sudden-change event masks.

Predictions and ground truth are aligned arrays in measurement units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, DimensionError

HORIZON_STEPS = {"24h": 8, "48h": 16, "72h": 24}


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise DataError("empty arrays have no error metric")
    return float(np.mean(np.abs(pred - truth)))


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise DataError("empty arrays have no error metric")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


@dataclass(frozen=True)
class MetricsReport:
    """MAE and RMSE over one evaluation slice.

    By the power-mean inequality RMSE can never fall below MAE, so a
    report violating that ordering indicates a computation bug and is
    rejected at construction.
    """

    label: str
    mae: float
    rmse: float
    n_points: int

    def __post_init__(self):
        if self.n_points <= 0:
            raise ContractError("a metrics report needs at least one point")
        if not (0.0 <= self.mae <= self.rmse * (1 + 1e-12) + 1e-15):
            raise ContractError(
                f"metric ordering violated: mae={self.mae} rmse={self.rmse}")


CITY_LEVELS = {"beijing": 50.0, "shenzhen": 20.0}


@dataclass(frozen=True)
class SuddenChangeSpec:
    """Thresholds defining a sudden-change event.

    A point (t, station) is flagged when the concentration exceeds
    ``level`` and the following step moves by more than ``delta`` in
    either direction.
    """

    level: float
    delta: float = 20.0

    @classmethod
    def for_city(cls, city: str) -> "SuddenChangeSpec":
        key = city.strip().lower()
        if key not in CITY_LEVELS:
            raise DataError(f"no sudden-change thresholds for city {city!r}")
        return cls(level=CITY_LEVELS[key])


def sudden_change_mask(truth: np.ndarray, spec: SuddenChangeSpec) -> np.ndarray:
    """Boolean mask of sudden-change points in a (steps, stations) series.

    The final step has no successor and is never flagged.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim != 2:
        raise DimensionError(f"expected (steps, stations), got {truth.shape}")
    mask = np.zeros(truth.shape, dtype=bool)
    if truth.shape[0] < 2:
        return mask
    jump = np.abs(truth[1:] - truth[:-1]) > spec.delta
    mask[:-1] = (truth[:-1] > spec.level) & jump
    return mask


def masked_metrics(pred: np.ndarray, truth: np.ndarray,
                   mask: np.ndarray, label: str = "sudden-change") -> MetricsReport:
    """Metrics restricted to flagged points."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not (pred.shape == truth.shape == mask.shape):
        raise DimensionError("prediction, truth, and mask shapes must match")
    if not mask.any():
        raise DataError("no sudden-change points in the evaluated set")
    p, t = pred[mask], truth[mask]
    return MetricsReport(label=label, mae=mae(p, t), rmse=rmse(p, t),
                         n_points=int(p.size))
