"""Fixed-step and adaptive explicit Runge-Kutta integration over time grids.

Fixed-step Euler/RK4 run on tensors and stay differentiable (training path).
The adaptive Dormand-Prince 5(4) integrator drives its step-size controller on
raw float64 arrays with recording disabled; it is the inference path and is
not differentiable. It integrates a (batch, n, latent) state as independent
systems, each under its own step-size control, so a sample's forecast does
not depend on the other samples of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, no_grad, stack
from .errors import ConfigurationError, ContractError, NumericError


@dataclass(frozen=True)
class SolverConfig:
    rtol: float = 1e-5
    atol: float = 1e-5
    h_init: float = 0.1
    max_steps: int = 10_000
    safety: float = 0.9
    factor_min: float = 0.2
    factor_max: float = 10.0

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ConfigurationError("rtol and atol must be positive")
        if self.h_init <= 0:
            raise ConfigurationError("h_init must be positive")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        if not (0 < self.safety <= 1):
            raise ConfigurationError("safety must lie in (0, 1]")
        if not (0 < self.factor_min < 1 < self.factor_max):
            raise ConfigurationError("need factor_min < 1 < factor_max, both positive")


class TimeGrid:
    """Strictly increasing output times starting at 0 (one unit per 3h step)."""

    def __init__(self, times: Sequence[float]):
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ContractError("time grid needs at least two times")
        if arr[0] != 0.0:
            raise ContractError(f"time grid must start at 0, got {arr[0]}")
        if not (np.diff(arr) > 0).all():
            raise ContractError("time grid must be strictly increasing")
        self.times = arr

    @classmethod
    def unit(cls, horizon_steps: int) -> "TimeGrid":
        if horizon_steps < 1:
            raise ContractError("horizon must be at least one step")
        return cls(np.arange(horizon_steps + 1, dtype=np.float64))

    def __len__(self):
        return self.times.size

    def __repr__(self):
        return f"TimeGrid({self.times.tolist()})"


@dataclass
class IntegrationStats:
    accepted: int = 0
    rejected: int = 0
    f_evals: int = 0


def _euler_step(f, t, z, h):
    return z + f(t, z) * h


def _rk4_step(f, t, z, h):
    k1 = f(t, z)
    k2 = f(t + h / 2.0, z + k1 * (h / 2.0))
    k3 = f(t + h / 2.0, z + k2 * (h / 2.0))
    k4 = f(t + h, z + k3 * h)
    return z + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0)


def fixed_step_integrate(f: Callable[[float, Tensor], Tensor], z0: Tensor,
                         grid: TimeGrid, method: str = "rk4",
                         substeps: int = 1) -> list[Tensor]:
    """Integrate dz/dt = f(t, z) and return states at t_1..t_end.

    Each grid interval is covered by `substeps` equal steps. Gradients flow
    through the unrolled update, so z0 and any parameter used by f receive
    cotangents from backward().
    """
    if method not in ("euler", "rk4"):
        raise ContractError(f"fixed-step method must be euler or rk4, got {method!r}")
    if substeps < 1:
        raise ContractError("substeps must be at least 1")
    step = _euler_step if method == "euler" else _rk4_step
    z = z0
    states = []
    times = grid.times
    for i in range(times.size - 1):
        h = (times[i + 1] - times[i]) / substeps
        t = times[i]
        for s in range(substeps):
            try:
                z = step(f, t + s * h, z, h)
            except NumericError as e:
                raise NumericError(
                    f"non-finite state in interval {i + 1}, substep {s + 1}: {e}"
                ) from None
        states.append(z)
    return states


# Dormand-Prince 5(4) tableau; last error weight covers the FSAL stage.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                    -17253 / 339200, 22 / 525, -1 / 40])


def dopri5_integrate_stats(f: Callable[[float | np.ndarray, Tensor], Tensor],
                           z0: Tensor, grid: TimeGrid,
                           cfg: SolverConfig = SolverConfig()
                           ) -> tuple[list[Tensor], IntegrationStats]:
    """States at t_1..t_end from adaptive Dormand-Prince 5(4), with step
    statistics. Not differentiable.

    A 3-D state (batch, n, latent) is `batch` independent systems; any
    other state is one system. Each system has its own time, step size,
    step budget and accept/reject decision. Its error norm per attempt is
    the RMS over that system's components of
    err_c / (atol + rtol * max(|z_c|, |z5_c|)); a step is accepted when the
    norm is at most 1 and the next step is h * clamp(safety * norm^(-1/5),
    factor_min, factor_max). Steps are clipped so each system lands exactly
    on every grid time. A batched state therefore takes, per sample, the
    steps that sample would take alone.

    Every attempt evaluates f once per stage on the whole batch; a sample
    that has reached the last grid time steps with h = 0 until the others
    finish. f receives t as a float for one system and as a (batch,) array
    of per-sample times for a 3-D state. `accepted` and `rejected` sum over
    samples; `f_evals` counts calls of f.
    """
    stats = IntegrationStats()
    batched = z0.data.ndim == 3
    times = [float(t) for t in grid.times]
    with no_grad():
        # y is (batch, *state) throughout; one system is a batch of one
        y = np.array(z0.data, dtype=np.float64, copy=True)
        if not batched:
            y = y[None]
        batch = y.shape[0]
        col = (batch,) + (1,) * (y.ndim - 1)  # per-sample scalar against y
        out = np.empty((len(times) - 1,) + y.shape)

        def fnp(t, arr):
            stats.f_evals += 1
            if batched:
                return f(t, Tensor(arr)).data
            return f(t[0], Tensor(arr[0])).data[None]

        def at(b):
            return f"t={t[b]:.6g}" + (f" in sample {b}" if batched else "")

        t = [times[0]] * batch
        h = [cfg.h_init] * batch
        steps = [0] * batch
        nxt = [1] * batch  # index of each sample's next grid time
        while active := [b for b in range(batch) if nxt[b] < len(times)]:
            h_try = [0.0] * batch
            for b in active:
                if steps[b] >= cfg.max_steps:
                    raise NumericError(f"step budget {cfg.max_steps} exhausted "
                                       f"at {at(b)} (h={h[b]:.3g})")
                h_try[b] = min(h[b], times[nxt[b]] - t[b])
                if t[b] + h_try[b] <= t[b]:
                    raise NumericError(f"step size underflow at {at(b)}")
            hv = np.array(h_try)
            tv = np.array(t)
            hy = hv.reshape(col)
            k = [fnp(tv, y)]
            for i in range(1, 7):
                yi = y + hy * sum(a * kj for a, kj in zip(_DP_A[i], k))
                k.append(fnp(tv + _DP_C[i] * hv, yi))
            y5 = y + hy * sum(b * kj for b, kj in zip(_DP_B5, k) if b != 0.0)
            err = hy * sum(e * kj for e, kj in zip(_DP_ERR, k) if e != 0.0)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
            norms = np.sqrt(np.mean(((err / scale) ** 2).reshape(batch, -1),
                                    axis=1)).tolist()
            accept = np.zeros(col, dtype=bool)
            for b in active:
                norm = norms[b]
                if not np.isfinite(norm):
                    raise NumericError(f"non-finite error estimate at {at(b)}")
                steps[b] += 1
                if norm <= 1.0:
                    stats.accepted += 1
                    accept[b] = True
                    target = times[nxt[b]]
                    t_new = t[b] + h_try[b]
                    # snap onto the grid time once the remainder is roundoff
                    near = target - t_new <= 1e-12 * max(1.0, abs(target))
                    t[b] = target if near else t_new
                else:
                    stats.rejected += 1
                factor = cfg.factor_max if norm == 0.0 \
                    else cfg.safety * norm ** -0.2
                h[b] = h_try[b] * min(cfg.factor_max, max(cfg.factor_min, factor))
            y = np.where(accept, y5, y)
            for b in active:
                if t[b] == times[nxt[b]]:
                    out[nxt[b] - 1, b] = y[b]
                    nxt[b] += 1
    states = out if batched else out[:, 0]
    return [Tensor(s) for s in states], stats


def ode_solve(de: Callable[[float, Tensor], Tensor], z0: Tensor, grid: TimeGrid,
              cfg: SolverConfig = SolverConfig(), mode: str = "infer") -> Tensor:
    """Latent trajectory stacked as (steps, *state_shape).

    Training integrates with fixed-step RK4 at two substeps per interval so
    the solve stays differentiable; inference uses the adaptive integrator.
    """
    if mode == "train":
        states = fixed_step_integrate(de, z0, grid, method="rk4", substeps=2)
    elif mode == "infer":
        states, _ = dopri5_integrate_stats(de, z0, grid, cfg)
    else:
        raise ContractError(f"mode must be 'train' or 'infer', got {mode!r}")
    return stack(states, axis=0)
