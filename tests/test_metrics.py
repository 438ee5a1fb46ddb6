"""Metric tests: hand-checked values, brute-force oracles, ordering
properties, and sudden-change masking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aircast.errors import DataError, DimensionError
from aircast.metrics import (CITY_LEVELS, HORIZON_STEPS, SUDDEN_CHANGE_DELTA,
                             mae, rmse, sudden_change_mask)


def test_mae_rmse_hand_values():
    pred = np.array([1.0, 2.0, 3.0])
    truth = np.array([2.0, 2.0, 5.0])
    assert mae(pred, truth) == pytest.approx(1.0, abs=1e-15)
    assert rmse(pred, truth) == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-15)


def test_mae_rmse_brute_force_oracle(rng):
    pred = rng.uniform(0, 150, size=(6, 4))
    truth = rng.uniform(0, 150, size=(6, 4))
    total = 0.0
    total_sq = 0.0
    for i in range(6):
        for j in range(4):
            d = pred[i, j] - truth[i, j]
            total += abs(d)
            total_sq += d * d
    assert mae(pred, truth) == pytest.approx(total / 24.0, abs=1e-12)
    assert rmse(pred, truth) == pytest.approx(np.sqrt(total_sq / 24.0), abs=1e-12)


def test_metric_input_validation():
    with pytest.raises(DimensionError):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        rmse(np.zeros((2, 2)), np.zeros(4))
    with pytest.raises(DataError):
        mae(np.zeros(0), np.zeros(0))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1,
                                       max_side=5),
              elements=st.floats(-1e6, 1e6)),
       st.integers(0, 2 ** 32 - 1))
def test_rmse_never_below_mae(truth, seed):
    pred = truth + np.random.default_rng(seed).uniform(-50, 50, size=truth.shape)
    assert rmse(pred, truth) >= mae(pred, truth) - 1e-12


def test_horizon_step_table():
    assert HORIZON_STEPS == {"24h": 8, "48h": 16, "72h": 24}


def test_city_thresholds():
    assert CITY_LEVELS == {"beijing": 50.0, "shenzhen": 20.0}
    assert SUDDEN_CHANGE_DELTA == 20.0


def test_sudden_change_hand_case():
    truth = np.array([[55.0], [80.0], [85.0], [40.0]])
    mask = sudden_change_mask(truth, 50.0)
    # 55 -> 80 jumps 25 above the 50 level; 80 -> 85 is too small a move;
    # 85 -> 40 is a crash from above the level; the last row has no successor
    np.testing.assert_array_equal(mask[:, 0], [True, False, True, False])


def test_sudden_change_requires_level_exceeded():
    truth = np.array([[30.0], [60.0]])
    mask = sudden_change_mask(truth, 50.0)
    assert not mask.any()  # the jump starts below the level
    mask_sz = sudden_change_mask(truth, 20.0)
    np.testing.assert_array_equal(mask_sz[:, 0], [True, False])


def test_sudden_change_constant_series_has_no_events():
    truth = np.full((10, 3), 120.0)
    assert not sudden_change_mask(truth, 50.0).any()


def test_sudden_change_brute_force_oracle(rng):
    truth = rng.uniform(0, 120, size=(30, 4))
    got = sudden_change_mask(truth, 50.0)
    for t in range(30):
        for s in range(4):
            if t == 29:
                expected = False
            else:
                expected = truth[t, s] > 50.0 and \
                    abs(truth[t + 1, s] - truth[t, s]) > 20.0
            assert got[t, s] == expected, (t, s)


def test_sudden_change_shape_rules():
    with pytest.raises(DimensionError):
        sudden_change_mask(np.zeros(5), 50.0)
    single = sudden_change_mask(np.full((1, 3), 99.0), 50.0)
    assert not single.any()

