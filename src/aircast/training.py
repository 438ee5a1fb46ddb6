"""MAE training loop with Adam, step decay, and early stopping.

Runs are bitwise reproducible for a fixed seed: batch order and latent draws
come from generators spawned off the config seed, and all arithmetic is
float64. The loop logs one CSV row per epoch and keeps the parameters of the
best validation epoch.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, no_grad
from .data import DatasetSplit, WindowSample
from .errors import ConfigurationError, ContractError, NumericError
from .model import Model, ModelCheckpoint, load_parameters, make_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 5e-4
    decay_rate: float = 0.1
    decay_epochs: tuple = (30, 60)
    max_epochs: int = 100
    patience: int = 20
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigurationError("learning_rate must be non-negative and "
                                     f"finite, got {self.learning_rate}")
        if not (0 < self.decay_rate <= 1):
            raise ConfigurationError("decay_rate must lie in (0, 1]")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be at least 1")
        if not (1 <= self.patience <= self.max_epochs):
            raise ConfigurationError("need 1 <= patience <= max_epochs")
        if not 0 < self.clip_norm < math.inf:
            raise ConfigurationError(
                f"clip_norm must be positive and finite, got {self.clip_norm}")
        if any(e < 0 for e in self.decay_epochs):
            raise ConfigurationError("decay epochs must be non-negative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


def mae_loss(pred: Tensor, truth) -> Tensor:
    """Mean absolute deviation over all entries (normalized units); a
    non-finite loss is a NumericError."""
    truth = truth if isinstance(truth, Tensor) else Tensor(truth)
    if pred.shape != truth.shape:
        raise ConfigurationError(
            f"prediction {pred.shape} and truth {truth.shape} differ")
    loss = ad.reduce_mean(ad.absolute(ad.sub(pred, truth)))
    if not math.isfinite(loss.item()):
        raise NumericError(f"MAE loss is {loss.item()}")
    return loss


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """learning_rate * decay_rate^(number of decay epochs <= epoch)."""
    if epoch < 0:
        raise ContractError("epoch must be non-negative")
    decays = sum(1 for e in cfg.decay_epochs if e <= epoch)
    return cfg.learning_rate * cfg.decay_rate ** decays


# Adam's default moments and denominator guard (Kingma & Ba, arXiv 1412.6980)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over named parameters; grads are zeroed per step."""

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        if lr < 0:
            raise ContractError("learning rate must be non-negative")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {p.name!r}")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.zero_grad()


def clip_gradients(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients down to a global L2 norm of max_norm; returns the
    pre-clip norm."""
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


# the columns of training_log.csv, in order, and the keys of a log row
LOG_COLUMNS = ("epoch", "lr", "train_mae", "val_mae", "grad_norm",
               "diffusion_coeff")


def _batches(items: list, size: int):
    for lo in range(0, len(items), size):
        yield items[lo:lo + size]


def _epoch_eval(model: Model, samples: list[WindowSample], batch_size: int) -> float:
    """Mean absolute error over a partition in infer mode, normalized units."""
    total_abs = 0.0
    total_count = 0
    with no_grad():
        for batch in _batches(samples, batch_size):
            pred = model.forward_batch(batch, "infer")
            truth = np.concatenate([s.x_future for s in batch], axis=1)
            total_abs += float(np.abs(pred.data - truth).sum())
            total_count += truth.size
    return total_abs / total_count


def train_loop(model: Model, split: DatasetSplit, cfg: TrainConfig,
               log_path) -> tuple[ModelCheckpoint, list[dict]]:
    """Train to best-validation parameters.

    Returns the checkpoint of the best epoch (the model is left holding those
    parameters) and the per-epoch log rows, keyed by ``LOG_COLUMNS``: a row
    also holds the epoch's mean pre-clip gradient norm and the diffusion
    coefficient after its last step. Each row is also written to the CSV at
    ``log_path`` as the epoch ends; the file is created with the first
    row, so a run that fails in its first epoch writes none. Training stops
    once ``cfg.patience`` epochs pass without a strictly lower validation
    MAE, and a non-finite validation MAE is a ``NumericError``. Epochs are
    numbered from 1 in the log; a fixed seed reproduces the run bitwise.
    """
    if not split.train or not split.val:
        raise ConfigurationError("train and val partitions must be non-empty")
    model.stats = split.stats  # the windows are normalized by these
    root = np.random.default_rng(cfg.seed)
    shuffle_rng, eps_rng = root.spawn(2)
    opt = Adam(model.parameters())
    rows: list[dict] = []
    best_val = np.inf
    best_epoch = 0
    with contextlib.ExitStack() as files:
        log_file = None
        for epoch in range(1, cfg.max_epochs + 1):
            lr = lr_schedule(epoch, cfg)
            order = shuffle_rng.permutation(len(split.train))
            total_abs = 0.0
            total_count = 0
            norms = []
            for batch_idx in _batches(list(order), cfg.batch_size):
                batch = [split.train[i] for i in batch_idx]
                pred = model.forward_batch(batch, "train", eps_rng)
                truth = np.concatenate([s.x_future for s in batch], axis=1)
                loss = mae_loss(pred, truth)
                ad.backward(loss)
                norms.append(clip_gradients(model.parameters(), cfg.clip_norm))
                opt.step(lr)
                with no_grad():
                    coeff = model.de.diffusion_coefficient().item()
                if not coeff > 0:
                    raise NumericError(
                        f"diffusion coefficient became non-positive ({coeff})")
                total_abs += loss.item() * truth.size
                total_count += truth.size
            val_mae = _epoch_eval(model, split.val, cfg.batch_size)
            if not math.isfinite(val_mae):
                raise NumericError(f"validation MAE is {val_mae} at epoch {epoch}")
            row = dict(zip(LOG_COLUMNS, (epoch, lr, total_abs / total_count,
                                         val_mae, sum(norms) / len(norms),
                                         coeff)))
            rows.append(row)
            if log_file is None:  # so a failed first epoch leaves no log
                log_file = files.enter_context(
                    open(log_path, "w", newline="", encoding="utf-8"))
                writer = csv.writer(log_file)
                writer.writerow(LOG_COLUMNS)
            writer.writerow([repr(v) for v in row.values()])
            log_file.flush()
            if val_mae < best_val:  # strictly: a tie keeps the earlier epoch
                best_val, best_epoch = val_mae, epoch
                best = make_checkpoint(model, split.ratio)
            if epoch - best_epoch >= cfg.patience:
                break
    load_parameters(model, best.arrays)
    return best, rows
