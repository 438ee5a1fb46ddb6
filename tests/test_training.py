"""Training tests: loss, schedule, optimizer arithmetic, stopping rule, and
reproducibility of the full loop."""

import math
import os

import numpy as np
import pytest

from aircast import autodiff as ad
from aircast import training
from aircast.autodiff import Parameter, Tensor, backward
from aircast.data import NormStats, chronological_split, make_windows
from aircast.errors import ConfigurationError, ContractError, NumericError
from aircast.model import Model, ModelConfig
from aircast.odeint import SolverConfig
from aircast.training import (Adam, TrainConfig, _epoch_eval, clip_gradients,
                              lr_schedule, mae_loss, train_loop)

from conftest import synthetic_series, toy_graph


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(decay_rate=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(patience=5, max_epochs=4)
    with pytest.raises(ConfigurationError):
        TrainConfig(clip_norm=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("cls, field", [
    (SolverConfig, "rtol"), (SolverConfig, "atol"), (SolverConfig, "h_init"),
    (TrainConfig, "learning_rate"), (TrainConfig, "clip_norm"),
], ids=["rtol", "atol", "h_init", "learning_rate", "clip_norm"])
def test_configs_reject_non_finite_numbers(cls, field, value):
    with pytest.raises(ConfigurationError,
                       match=f"^{field} must be .*finite, got {value}$"):
        cls(**{field: value})


def test_mae_loss_hand_value():
    pred = Tensor(np.array([[1.0], [2.0], [3.0]]))
    loss = mae_loss(pred, np.array([[2.0], [2.0], [5.0]]))
    assert loss.item() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigurationError):
        mae_loss(pred, np.zeros((2, 1)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_mae_loss_rejects_non_finite_prediction():
    pred = ad.mul(Tensor([[1e308], [1.0]]), 10.0)  # a primitive overflows
    with pytest.raises(NumericError, match="^MAE loss is inf$"):
        mae_loss(pred, np.zeros((2, 1)))


def test_mae_loss_gradient_is_scaled_sign():
    p = Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), "p")
    backward(mae_loss(p, np.zeros((2, 2))))
    np.testing.assert_allclose(p.grad, np.sign(p.data) / 4.0, atol=1e-15)


def test_lr_schedule_steps():
    cfg = TrainConfig(learning_rate=1e-3, decay_rate=0.1, decay_epochs=(30, 60))
    assert lr_schedule(0, cfg) == 1e-3
    assert lr_schedule(29, cfg) == 1e-3
    assert lr_schedule(30, cfg) == pytest.approx(1e-4)
    assert lr_schedule(59, cfg) == pytest.approx(1e-4)
    assert lr_schedule(60, cfg) == pytest.approx(1e-5)
    assert lr_schedule(1000, cfg) == pytest.approx(1e-5)
    with pytest.raises(ContractError):
        lr_schedule(-1, cfg)


def test_adam_first_step_closed_form():
    # with m = v = 0 the first update is exactly lr * g / (|g| + eps)
    p = Parameter(np.array([[10.0]]), "p")
    p.grad[:] = 2.0
    opt = Adam([p])
    opt.step(0.5)
    expected = 10.0 - 0.5 * 2.0 / (2.0 + 1e-8)
    assert p.data[0, 0] == pytest.approx(expected, abs=1e-12)
    assert p.grad[0, 0] == 0.0  # zeroed by the step


def test_adam_two_steps_match_replay(rng):
    shape = (3, 2)
    g1 = rng.standard_normal(shape)
    g2 = rng.standard_normal(shape)
    start = rng.standard_normal(shape)
    p = Parameter(start.copy(), "p")
    opt = Adam([p])
    p.grad[:] = g1
    opt.step(0.01)
    p.grad[:] = g2
    opt.step(0.01)

    x = start.copy()
    m = np.zeros(shape)
    v = np.zeros(shape)
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        x -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p.data, x, atol=1e-15)


def test_adam_rejects_non_finite_gradient():
    p = Parameter(np.ones((2, 2)), "theta")
    p.grad[:] = np.nan
    with pytest.raises(NumericError, match="theta"):
        Adam([p]).step(0.1)


def test_adam_rejects_negative_lr():
    p = Parameter(np.ones((1, 1)), "p")
    with pytest.raises(ContractError):
        Adam([p]).step(-0.1)


def test_clip_gradients_scales_to_max_norm():
    a = Parameter(np.zeros((2, 2)), "a")
    b = Parameter(np.zeros((1, 3)), "b")
    a.grad[:] = 3.0
    b.grad[:] = 4.0
    pre = clip_gradients([a, b], max_norm=1.0)
    expected_pre = np.sqrt(4 * 9.0 + 3 * 16.0)
    assert pre == pytest.approx(expected_pre, abs=1e-12)
    post = np.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert post == pytest.approx(1.0, abs=1e-12)


def test_clip_gradients_no_change_below_threshold():
    a = Parameter(np.zeros((2, 2)), "a")
    a.grad[:] = 0.1
    before = a.grad.copy()
    pre = clip_gradients([a], max_norm=5.0)
    assert pre == pytest.approx(0.2, abs=1e-15)
    np.testing.assert_array_equal(a.grad, before)


def test_early_stopping_rules(monkeypatch):
    # (scripted validation MAEs, patience, epochs run, restored epoch)
    cases = [([5.0, 3.0, 3.5, 3.4], 2, 4, 2),
             ([3.0, 3.0, 3.0], 2, 3, 1)]    # ties keep the first epoch
    for val_maes, patience, epochs, best_epoch in cases:
        snapshots = []  # each epoch's parameters, taken at its validation

        def scripted_eval(model, samples, batch_size):
            snapshots.append({p.name: p.data.copy() for p in model.parameters()})
            return val_maes[len(snapshots) - 1]

        monkeypatch.setattr(training, "_epoch_eval", scripted_eval)
        model = tiny_model()
        cfg = TrainConfig(batch_size=8, learning_rate=1e-2, max_epochs=10,
                          patience=patience, seed=0)
        ckpt, rows = train_loop(model, tiny_split(), cfg, os.devnull)
        assert [r["val_mae"] for r in rows] == val_maes[:epochs]
        best = snapshots[best_epoch - 1]
        assert any((best[k] != snapshots[-1][k]).any() for k in best)
        for p in model.parameters():
            np.testing.assert_array_equal(p.data, best[p.name])
            np.testing.assert_array_equal(ckpt.arrays[p.name], best[p.name])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_validation_mae_names_epoch(monkeypatch, tmp_path, bad):
    val_maes = [3.0, bad]
    monkeypatch.setattr(training, "_epoch_eval",
                        lambda model, samples, batch_size: val_maes.pop(0))
    cfg = TrainConfig(batch_size=8, max_epochs=5, patience=5, seed=0)
    with pytest.raises(NumericError) as info:
        train_loop(tiny_model(), tiny_split(), cfg, log_path=tmp_path / "log.csv")
    assert str(info.value) == f"validation MAE is {bad} at epoch 2"
    # the log keeps the header and the epochs before the failing one
    assert len((tmp_path / "log.csv").read_text().splitlines()) == 2


def test_train_loop_checkpoint_arrays_are_copies():
    model = tiny_model()
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=0)
    ckpt, _ = train_loop(model, tiny_split(), cfg, os.devnull)
    before = {name: a.copy() for name, a in ckpt.arrays.items()}
    for p in model.parameters():
        p.data += 1.0
    for name, a in ckpt.arrays.items():
        np.testing.assert_array_equal(a, before[name])


def tiny_model(seed=7, **overrides):
    cfg = dict(history_steps=2, horizon_steps=2, latent_dim=2, gru_hidden=3,
               head_hidden=2, cheb_order=2, cheb_layers=1, flownet_hidden=2,
               seed=seed)
    cfg.update(overrides)
    return Model(toy_graph(3), ModelConfig(**cfg))


def tiny_split(seed=0, steps=40):
    series = synthetic_series(steps, 3, seed=seed)
    windows = make_windows(series, history_steps=2, horizon_steps=2)
    return chronological_split(windows)


def test_train_loop_runs_and_logs(tmp_path):
    split = tiny_split()
    cfg = TrainConfig(batch_size=8, learning_rate=1e-3, max_epochs=3,
                      patience=3, seed=1)
    log = tmp_path / "log.csv"
    ckpt, rows = train_loop(tiny_model(), split, cfg, log_path=log)
    assert [r["epoch"] for r in rows] == [1, 2, 3]
    assert all(r["lr"] == 1e-3 for r in rows)
    assert all(r["val_mae"] > 0 for r in rows)
    assert ckpt.split_ratio == (7, 1, 2)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_mae,val_mae,grad_norm,diffusion_coeff"
    assert len(lines) == 4
    assert lines[0].split(",") == list(rows[0])
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == rows[0]["train_mae"]  # repr() roundtrips exactly
    assert float(first[4]) == rows[0]["grad_norm"] > 0
    assert float(first[5]) == rows[0]["diffusion_coeff"] > 0


def test_train_loop_logs_grad_norm_mean_and_last_diffusion_coeff(monkeypatch):
    # 25 train windows at batch 8: four clipped steps per epoch
    norms = []

    def recording_clip(params, max_norm):
        norms.append(clip_gradients(params, max_norm))
        return norms[-1]

    monkeypatch.setattr(training, "clip_gradients", recording_clip)
    model = tiny_model()
    split = tiny_split()
    cfg = TrainConfig(batch_size=8, learning_rate=1e-3, max_epochs=1,
                      patience=1, seed=1)
    _, rows = train_loop(model, split, cfg, os.devnull)
    assert len(norms) == math.ceil(len(split.train) / 8) > 1
    assert rows[0]["grad_norm"] == sum(norms) / len(norms)
    # one epoch is the best epoch, so the model keeps its last step's values
    with ad.no_grad():
        assert rows[0]["diffusion_coeff"] == model.de.diffusion_coefficient().item()


def test_train_loop_leaves_tape_empty():
    # nothing recorded after the last backward() may leak into the next run
    split = tiny_split()
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=1)
    train_loop(tiny_model(), split, cfg, os.devnull)
    assert ad.tape_size() == 0


def test_train_loop_bitwise_reproducible(tmp_path):
    split = tiny_split()
    cfg = TrainConfig(batch_size=8, learning_rate=1e-3, max_epochs=2,
                      patience=2, seed=3)
    ckpt_a, rows_a = train_loop(tiny_model(), split, cfg,
                                log_path=tmp_path / "a.csv")
    ckpt_b, rows_b = train_loop(tiny_model(), split, cfg,
                                log_path=tmp_path / "b.csv")
    assert rows_a == rows_b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    for name in ckpt_a.arrays:
        np.testing.assert_array_equal(ckpt_a.arrays[name], ckpt_b.arrays[name])


def test_train_loop_seed_changes_run():
    split = tiny_split()
    base = dict(batch_size=8, learning_rate=1e-3, max_epochs=1, patience=1)
    _, rows_a = train_loop(tiny_model(), split, TrainConfig(seed=0, **base),
                          os.devnull)
    _, rows_b = train_loop(tiny_model(), split, TrainConfig(seed=1, **base),
                          os.devnull)
    assert rows_a[0]["train_mae"] != rows_b[0]["train_mae"]


def test_train_loop_restores_best_epoch():
    split = tiny_split()
    cfg = TrainConfig(batch_size=8, learning_rate=5e-2, max_epochs=4,
                      patience=4, seed=2)
    model = tiny_model()
    ckpt, rows = train_loop(model, split, cfg, os.devnull)
    best = min(r["val_mae"] for r in rows)
    from aircast.training import _epoch_eval
    assert _epoch_eval(model, split.val, cfg.batch_size) == best
    best_row = min(rows, key=lambda r: r["val_mae"])
    for p in model.parameters():
        np.testing.assert_array_equal(p.data, ckpt.arrays[p.name])
    assert best_row["val_mae"] == best


def test_epoch_eval_independent_of_batch_size():
    # per-sample step control: a window's forecast does not depend on the
    # windows it is batched with
    split = tiny_split(steps=60)
    model = tiny_model()
    assert len(split.val) > 4
    one = _epoch_eval(model, split.val, 1)
    four = _epoch_eval(model, split.val, 4)
    assert four == pytest.approx(one, rel=1e-12, abs=0)


def test_train_loop_early_stop_on_frozen_model():
    # lr = 0 never changes parameters, so validation never improves after
    # epoch 1 and patience=1 stops at epoch 2
    split = tiny_split()
    cfg = TrainConfig(batch_size=8, learning_rate=0.0, max_epochs=50,
                      patience=1, seed=0)
    _, rows = train_loop(tiny_model(), split, cfg, os.devnull)
    assert len(rows) == 2
    assert rows[0]["val_mae"] == rows[1]["val_mae"]


def test_train_loop_rejects_empty_partitions():
    split = tiny_split()
    empty = type(split)(train=[], val=split.val, test=split.test,
                        stats=split.stats, ratio=split.ratio)
    with pytest.raises(ConfigurationError):
        train_loop(tiny_model(), empty, TrainConfig(), os.devnull)


def test_train_loop_adopts_split_stats():
    split = tiny_split()
    model = tiny_model()
    assert model.stats is None
    train_loop(model, split, TrainConfig(batch_size=8, max_epochs=1, patience=1),
               os.devnull)
    assert model.stats is split.stats
    # other stats would de-normalize predictions of split-normalized windows
    model = tiny_model()
    model.stats = NormStats(0.0, 1.0)
    ckpt, _ = train_loop(model, split,
                         TrainConfig(batch_size=8, max_epochs=1, patience=1),
                         os.devnull)
    assert model.stats is split.stats
    assert (ckpt.norm_mean, ckpt.norm_std) == (split.stats.mean, split.stats.std)
