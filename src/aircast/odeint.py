"""Fixed-step and adaptive explicit Runge-Kutta integration over time grids.

Fixed-step RK4 takes one step per grid interval on tensors and stays
differentiable (training path). The adaptive Dormand-Prince 5(4) integrator
drives its step-size controller on raw float64 arrays with recording disabled;
it is the inference path and is not differentiable. It integrates a
(batch, n, latent) state as independent systems, each under its own step-size
control, so a sample's forecast does not depend on the other samples of its
batch. It steps at the pace its error control sets: only the last grid time
clips a step, and the grid times a step passes get the method's 4th-order
dense output. The last stage of an accepted step is reused as the first of the
next (FSAL), so an attempt costs 6 evaluations of the right-hand side, plus 1
for the start.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, no_grad, stack
from .errors import (ConfigurationError, ContractError, DimensionError,
                     NumericError)

log = logging.getLogger(__name__)

# Step-size controller of dopri5, SciPy RK45's values: the next step is
# h * clamp(SAFETY * norm^(-1/5), FACTOR_MIN, FACTOR_MAX).
SAFETY, FACTOR_MIN, FACTOR_MAX = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class SolverConfig:
    rtol: float = 1e-5
    atol: float = 1e-5
    h_init: float = 0.1
    max_steps: int = 10_000

    def __post_init__(self):
        for name in ("rtol", "atol", "h_init"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, "
                                         f"got {getattr(self, name)}")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")


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

    def __repr__(self):
        return f"TimeGrid({self.times.tolist()})"


@dataclass
class IntegrationStats:
    accepted: int = 0
    rejected: int = 0
    f_evals: int = 0


def _rk4_step(f, t, z, h):
    k1 = f(t, z)
    k2 = f(t + h / 2.0, z + k1 * (h / 2.0))
    k3 = f(t + h / 2.0, z + k2 * (h / 2.0))
    k4 = f(t + h, z + k3 * h)
    return z + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0)


def fixed_step_integrate(f: Callable[[float, Tensor], Tensor], z0: Tensor,
                         grid: TimeGrid) -> Tensor:
    """Integrate dz/dt = f(t, z): the (steps, *state) states at t_1..t_end.

    Each grid interval is one classical RK4 step, so a finer grid gives
    smaller steps. Gradients flow through the unrolled update, so z0 and any
    parameter used by f receive cotangents from backward(). A state with a
    NaN or inf is a NumericError naming its interval.
    """
    z = z0
    states = []
    times = grid.times
    for i in range(times.size - 1):
        z = _rk4_step(f, times[i], z, times[i + 1] - times[i])
        if not np.isfinite(z.data).all():
            raise NumericError(f"non-finite state in interval {i + 1}")
        states.append(z)
    return stack(states)


# Dormand-Prince 5(4) tableau. Stage 7 is evaluated at t + h on the 5th-order
# solution, so an accepted step's last stage is the next step's first (FSAL);
# the last error weight covers it.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                    -17253 / 339200, 22 / 525, -1 / 40])
# Free 4th-order continuous extension (Hairer, Norsett & Wanner, Solving
# ODEs I, II.6; the table of SciPy's RK45): at theta in [0, 1] of a step the
# weight of stage i is sum_j _DP_DENSE[i, j] * theta^(j+1), which is _DP_B5[i]
# at theta = 1. Stage 2 has weight 0.
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _dense_weights(theta: np.ndarray) -> np.ndarray:
    """(m, 7) stage weights of the continuous extension at thetas (m,).

    Horner's rule elementwise, so a sample's weights do not depend on which
    other samples share the call."""
    th = theta[:, None]
    p = _DP_DENSE
    return th * (p[:, 0] + th * (p[:, 1] + th * (p[:, 2] + th * p[:, 3])))


def dopri5_integrate_stats(f: Callable[[np.ndarray, Tensor], Tensor],
                           z0: Tensor, grid: TimeGrid,
                           cfg: SolverConfig = SolverConfig()
                           ) -> tuple[Tensor, IntegrationStats]:
    """(steps, batch, n, latent) states at t_1..t_end from adaptive
    Dormand-Prince 5(4), and step statistics. Not differentiable.

    The state (batch, n, latent) is `batch` independent systems; any other
    shape is a DimensionError. Each system has its own time, step size,
    step budget and accept/reject decision; the controller holds them in
    (batch,) arrays and decides by masks over the batch. Its error norm per
    attempt is the RMS over that system's components of
    err_c / (atol + rtol * max(|z_c|, |z5_c|)); a step is accepted when the
    norm is at most 1 and the next step is h * clamp(SAFETY * norm^(-1/5),
    FACTOR_MIN, FACTOR_MAX). norm^(-1/5) is Python's pow, one sample at a
    time: numpy's power differs from it in the last bit on some inputs,
    which would change the steps. Steps are clipped only at the last grid
    time, which each system lands on exactly. Interior grid times do not
    shorten a step: a grid time inside an accepted step (t_old, t_new] gets
    the 4th-order continuous extension built from that step's stages (dense
    output), or the 5th-order solution itself when it equals t_new. Each
    sample therefore takes the steps it would take in a batch of one.

    Every attempt evaluates f once per stage on the whole batch; a sample
    that has reached the last grid time steps with h = 0 until the others
    finish. The 7th stage of an accepted step is f at the new state, so it
    is the next step's first stage (first same as last); a sample that
    rejects its step keeps its old first stage. f receives t as a (batch,)
    array of per-sample times.
    `accepted` and `rejected` sum over samples; `f_evals` counts calls of f,
    6 per attempt plus the initial one. Logs the statistics at INFO through
    the `aircast.odeint` logger. A NaN or inf in the state f is given at
    any stage, or in an error estimate, is a NumericError; an error names the
    lowest offending sample, a spent step budget before an underflow.
    """
    if z0.data.ndim != 3:
        raise DimensionError(
            f"dopri5 state must be (batch, n, latent), got {z0.shape}")
    stats = IntegrationStats()
    times = grid.times
    end = times[-1]
    with no_grad():
        y = np.array(z0.data, dtype=np.float64, copy=True)
        batch = y.shape[0]
        out = np.empty((times.size - 1,) + y.shape)

        def fnp(t, arr):
            stats.f_evals += 1
            try:
                z = Tensor(arr)
            except NumericError:
                bad = ~np.isfinite(arr.reshape(batch, -1)).all(axis=1)
                raise NumericError("non-finite state in the step from "
                                   f"{at(int(np.argmax(bad)))}") from None
            return f(t, z).data

        def at(b):
            return f"t={t[b]:.6g} in sample {b}"

        # t and h are replaced, never written in place: f may keep a t
        t = np.full(batch, times[0])
        h = np.full(batch, float(cfg.h_init))
        steps = np.zeros(batch, dtype=int)
        k1 = fnp(t, y)
        while (active := t < end).any():
            hv = np.where(active, np.minimum(h, end - t), 0.0)
            t_try = t + hv
            spent = active & (steps >= cfg.max_steps)
            if (bad := spent | (active & (t_try <= t))).any():
                b = int(np.argmax(bad))
                if spent[b]:
                    raise NumericError(f"step budget {cfg.max_steps} exhausted "
                                       f"at {at(b)} (h={h[b]:.3g})")
                raise NumericError(f"step size underflow at {at(b)}")
            hy = hv[:, None, None]  # per-sample scalars against y
            k = [k1]
            for i in range(1, 6):
                yi = y + hy * sum(a * kj for a, kj in zip(_DP_A[i], k))
                k.append(fnp(t + _DP_C[i] * hv, yi))
            y5 = y + hy * sum(b * kj for b, kj in zip(_DP_B5, k) if b != 0.0)
            k.append(fnp(t_try, y5))
            err = hy * sum(e * kj for e, kj in zip(_DP_ERR, k) if e != 0.0)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
            norms = np.sqrt(np.mean(((err / scale) ** 2).reshape(batch, -1),
                                    axis=1))
            if (bad := active & ~np.isfinite(norms)).any():
                raise NumericError(
                    f"non-finite error estimate at {at(int(np.argmax(bad)))}")
            steps += active
            accept = active & (norms <= 1.0)
            stats.accepted += int(accept.sum())
            stats.rejected += int((active & ~accept).sum())
            # snap onto the end once the remainder is roundoff
            t_new = np.where(end - t_try <= 1e-12 * max(1.0, abs(end)), end,
                             t_try)
            # (sample, grid index) of each grid time in an accepted (t, t_new]
            rows, idx = np.nonzero(accept[:, None] & (times > t[:, None])
                                   & (times <= t_new[:, None]))
            hit = times[idx] == t_new[rows]
            out[idx[hit] - 1, rows[hit]] = y5[rows[hit]]
            rows, idx = rows[~hit], idx[~hit]
            theta = (times[idx] - t[rows]) / hv[rows]
            w = _dense_weights(theta) * hv[rows][:, None]
            out[idx - 1, rows] = y[rows] + sum(
                w[:, i, None, None] * k[i][rows]
                for i in range(7) if _DP_DENSE[i].any())
            factor = np.clip([FACTOR_MAX if x == 0.0 else SAFETY * x ** -0.2
                              for x in norms.tolist()], FACTOR_MIN, FACTOR_MAX)
            h = np.where(active, hv * factor, h)
            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None, None], y5, y)
            k1 = np.where(accept[:, None, None], k[6], k1)
    log.info("dopri5: %d systems, %d accepted and %d rejected steps, "
             "%d RHS calls", batch, stats.accepted, stats.rejected,
             stats.f_evals)
    return Tensor(out), stats


def ode_solve(de: Callable[[float, Tensor], Tensor], z0: Tensor, grid: TimeGrid,
              cfg: SolverConfig = SolverConfig(), mode: str = "infer") -> Tensor:
    """Latent trajectory as (steps, *state_shape).

    Training integrates with one fixed RK4 step per grid interval so the
    solve stays differentiable; inference uses the adaptive integrator.
    """
    if mode == "train":
        return fixed_step_integrate(de, z0, grid)
    if mode == "infer":
        return dopri5_integrate_stats(de, z0, grid, cfg)[0]
    raise ContractError(f"mode must be 'train' or 'infer', got {mode!r}")
