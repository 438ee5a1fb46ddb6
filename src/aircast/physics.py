"""Learned graph dynamics: diffusion and advection terms fused by a gate.

The latent state evolves by dz/dt = F(z) where F combines a diffusion branch
driven by the fixed distance Laplacian and an advection branch driven by a
flow-field Laplacian built from the latest wind observations. Both branches
are residual graph convolutions over Laplacian powers; a sigmoid gate mixes
them and the trainable diffusion coefficient scales the diffusion side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, unbroadcast
from .errors import ConfigurationError, ContractError, DimensionError
from .graph import ScaledLaplacian
from .odeint import SolverConfig, TimeGrid, dopri5_integrate_stats


def uniform_param(rng: np.random.Generator, shape: tuple, fan_in: int,
                  name: str) -> Parameter:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / math.sqrt(fan_in)
    return Parameter(rng.uniform(-bound, bound, size=shape), name)


@dataclass
class MLPParams:
    """Two-layer map n_in -> hidden (tanh) -> n_out, applied row by row."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter

    @classmethod
    def create(cls, rng, n_in: int, hidden: int, n_out: int,
               prefix: str) -> "MLPParams":
        """Draws w1, b1, w2, b2 in that order; a bias is bounded by the fan-in
        of its layer's weight."""
        return cls(
            w1=uniform_param(rng, (n_in, hidden), n_in, f"{prefix}.w1"),
            b1=uniform_param(rng, (1, hidden), n_in, f"{prefix}.b1"),
            w2=uniform_param(rng, (hidden, n_out), hidden, f"{prefix}.w2"),
            b2=uniform_param(rng, (1, n_out), hidden, f"{prefix}.b2"),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]


def mlp(x: Tensor, params: MLPParams) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2 over the last axis of x."""
    return ad.matmul(ad.tanh(ad.matmul(x, params.w1) + params.b1),
                     params.w2) + params.b2


def flow_field_adjacency(wind: Tensor, params: MLPParams) -> Tensor:
    """Antisymmetric adjacency w_ij = p_i - p_j of the potentials (..., n, 1)
    that the flow net, an MLP 2 -> hidden -> 1, gives each node's (u, v) wind.

    Antisymmetry is exact at the bit level: entry (j, i) is the IEEE negation
    of entry (i, j) because both come from the same subtraction operands.
    """
    if wind.data.ndim not in (2, 3):  # the net checks the last axis
        raise DimensionError(f"wind must be (n, 2) or (batch, n, 2), got {wind.shape}")
    p = mlp(wind, params)
    n = p.shape[-2]
    return ad.sub(p, ad.reshape(p, p.shape[:-2] + (1, n)))


def flow_scaled_laplacian(wind: Tensor, params: MLPParams) -> Tensor:
    """Differentiable scaled Laplacian of the flow-field graph.

    Wind of shape (n, 2) gives one (n, n) Laplacian; a minibatch of winds
    (batch, n, 2) gives one Laplacian per sample, (batch, n, n), each equal
    bit for bit to the Laplacian of that sample alone. Uses the fixed
    lambda_max = 2 bound, which reduces the rescaled form to
    -D^(-1/2) W D^(-1/2) with D_ii = sum_j |w_ij|; zero-degree rows come out
    identically zero. The off-diagonal mask carries the leading minus sign:
    multiplying by -(1 - I) instead of (1 - I) and negating at the end gives
    the same bits with one primitive fewer.
    """
    w = flow_field_adjacency(wind, params)
    n = w.shape[-1]
    w = ad.mul(w, Tensor(np.eye(n) - 1.0))
    deg = ad.reduce_sum(ad.absolute(w), axis=-1)
    inv_sqrt = ad.safe_inv_sqrt(deg)
    lead = deg.shape[:-1]
    return ad.mul(ad.mul(w, ad.reshape(inv_sqrt, lead + (n, 1))),
                  ad.reshape(inv_sqrt, lead + (1, n)))


@dataclass
class PowerBranchParams:
    """Residual graph-convolution stack using plain Laplacian powers.

    Layer l maps H to tanh(sum_k Lap^k H theta[l][k]); the branch output is
    the residual sum of the input and every layer output. The powers are
    Lap^k themselves, not the Chebyshev recurrence T_k(Lap).
    """

    thetas: tuple  # thetas[layer][k] is a (latent, latent) Parameter

    def __post_init__(self):
        if not self.thetas or not all(len(layer) == len(self.thetas[0])
                                      for layer in self.thetas):
            raise ContractError("theta stack must be rectangular and non-empty")

    @classmethod
    def create(cls, rng, latent_dim: int, order: int, layers: int,
               prefix: str) -> "PowerBranchParams":
        if order < 1 or layers < 1:
            raise ContractError("order and layers must be at least 1")
        stack = tuple(
            tuple(uniform_param(rng, (latent_dim, latent_dim), latent_dim,
                                f"{prefix}.l{l}.theta{k}")
                  for k in range(order))
            for l in range(layers))
        return cls(thetas=stack)

    def parameters(self) -> list[Parameter]:
        return [th for layer in self.thetas for th in layer]


def cheb_branch(lap: np.ndarray, h0: np.ndarray, params: PowerBranchParams
                ) -> tuple[np.ndarray, list]:
    """Residual sum h0 + sum_l tanh(sum_k Lap^k H theta_k) on arrays, and
    what its gradient reads.

    The state is (n, latent) or a minibatch (batch, n, latent). lap is one
    (n, n) Laplacian shared by every sample or a stack (batch, n, n) with one
    per sample of a minibatch; either way each power is a single batched
    matmul. Returns (total, layers), where layers[l] = (powers, h) holds
    layer l's powers Lap^k H for k = 0..order-1 and its output h.
    """
    if lap.ndim not in (2, 3) or lap.shape[-1] != lap.shape[-2]:
        raise DimensionError(f"laplacian must be square, got {lap.shape}")
    if (h0.ndim not in (2, 3) or h0.shape[-2] != lap.shape[-1]
            or lap.ndim == 3 and h0.shape[:-2] != lap.shape[:-2]):
        raise DimensionError(
            f"state {h0.shape} does not match laplacian {lap.shape}")
    h = total = h0
    layers = []
    for layer in params.thetas:
        powers = [h]
        acc = h @ layer[0].data  # a new array, so summed into in place
        for theta in layer[1:]:
            powers.append(lap @ powers[-1])
            acc += powers[-1] @ theta.data
        h = np.tanh(acc, out=acc)
        total = total + h
        layers.append((powers, h))
    return total, layers


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _branch_slots(lap: Tensor, state: Tensor,
                  params: PowerBranchParams) -> list:
    """The inputs of cheb_branch's share of the right-hand side's tape
    entry, in the order _branch_vjp yields their cotangents: layer by layer
    from the last, its weights and then the Laplacian once per power
    product; then the state once per use, in the residual sum, the first
    power (from order 2 on) and the layer-0 product."""
    slots = []
    for layer in reversed(params.thetas):
        slots += layer
        slots += [lap] * (len(layer) - 1)
    return slots + [state] * _state_uses(params)


def _state_uses(params: PowerBranchParams) -> int:
    return 2 if len(params.thetas[0]) == 1 else 3


def _branch_vjp(g: np.ndarray, lap: np.ndarray, layers: list,
                params: PowerBranchParams, need_state: bool,
                need_lap: bool):
    """Yields the cotangents of _branch_slots from the cotangent g of
    cheb_branch's output, None for the state's or the Laplacian's when not
    needed.

    Each is what the branch's composed matmul, add and tanh primitives
    compute, and a product's several cotangents are summed as that tape
    sums them. The uses of the state and of the Laplacian come in the order
    that tape replays them, so backward() adds them to what it holds in
    that order too. Being yielded, each is summed before the next is made.
    """
    g_h = g  # the cotangent of the layer's output h
    for l in range(len(layers) - 1, -1, -1):
        powers, h = layers[l]
        thetas = params.thetas[l]
        g_acc = g_h * (1.0 - h * h)
        for p, theta in zip(powers, thetas):
            yield unbroadcast(_swap(p) @ g_acc, theta.shape)
        g_up = None  # power k's cotangent from the power above it
        for k in range(len(thetas) - 1, 0, -1):
            g_p = g_acc @ _swap(thetas[k].data)
            if g_up is not None:
                g_p = g_up + g_p
            yield (unbroadcast(g_p @ _swap(powers[k - 1]), lap.shape)
                   if need_lap else None)
            g_up = _swap(lap) @ g_p if k > 1 or l > 0 or need_state else None
        if l > 0:
            g_0 = g_acc @ _swap(thetas[0].data)
            g_h = (g_0 if g_up is None else g_up + g_0) + g
        elif need_state:
            yield g
            if g_up is not None:
                yield g_up
            yield g_acc @ _swap(thetas[0].data)
        else:
            yield from [None] * _state_uses(params)


@dataclass
class FusionParams:
    """Sigmoid gate over the two branch outputs."""

    w_diff: Parameter
    w_adv: Parameter
    b: Parameter

    @classmethod
    def create(cls, rng, latent_dim: int) -> "FusionParams":
        return cls(
            w_diff=uniform_param(rng, (latent_dim, latent_dim), latent_dim,
                                 "fusion.w_diff"),
            w_adv=uniform_param(rng, (latent_dim, latent_dim), latent_dim,
                                "fusion.w_adv"),
            b=uniform_param(rng, (1, latent_dim), latent_dim, "fusion.b"),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w_diff, self.w_adv, self.b]


def gate_alpha(h_diff: np.ndarray, h_adv: np.ndarray,
               params: FusionParams) -> np.ndarray:
    pre = h_diff @ params.w_diff.data  # a new array, so summed into in place
    pre += h_adv @ params.w_adv.data
    pre += params.b.data
    return ad.logistic(pre)


def _gate_vjp(g: np.ndarray, h_diff: np.ndarray, h_adv: np.ndarray,
              alpha: np.ndarray, coeff, params: FusionParams):
    """From the cotangent g of alpha*(h_diff*k) + (1 - alpha)*h_adv: those
    of h_adv, h_diff and k, and of the gate's weights in params.parameters()
    order, each computed and summed as the composed mul, sub, sigmoid, add
    and matmul primitives compute and sum it."""
    g_alpha = -(g * h_adv)
    g_adv = g * (1.0 - alpha)
    g_alpha = g_alpha + g * (h_diff * coeff)
    g_d1 = g * alpha
    g_diff = g_d1 * coeff
    g_coeff = unbroadcast(g_d1 * h_diff, np.shape(coeff))
    g_pre = g_alpha * alpha * (1.0 - alpha)
    g_adv = g_adv + g_pre @ _swap(params.w_adv.data)
    g_diff = g_diff + g_pre @ _swap(params.w_diff.data)
    weights = [unbroadcast(_swap(h_diff) @ g_pre, params.w_diff.shape),
               unbroadcast(_swap(h_adv) @ g_pre, params.w_adv.shape),
               unbroadcast(g_pre, params.b.shape)]
    return g_adv, g_diff, g_coeff, weights


GATE_MODES = ("learned", "diff_only", "adv_only")


class DEFunction:
    """Right-hand side F(z) = -alpha*k*H_diff - (1-alpha)*H_adv.

    Holds the fixed distance Laplacian, both Laplacian-power branches, the
    fusion gate, and the raw diffusion coefficient (softplus keeps it
    positive).
    The flow-field Laplacian is sample state and must be set before a call:
    one (n, n) Laplacian for a state (n, latent), or one per sample,
    (batch, n, n), for a state (batch, n, latent). Model binds it to a
    shallow copy per forward, which shares every parameter, so its own
    DEFunction holds no sample's wind. gate_mode can pin alpha to
    1 (diffusion only) or 0 (advection only). The system is autonomous: the
    time argument (a float, or per-sample times from a batched solve) is
    ignored.

    A call computes F on arrays and, when recording, appends one tape entry
    whose hand-written VJP gives every cotangent bitwise as the 48 composed
    primitives it replaces did (tests/conftest.py keeps them). The entry
    keeps each branch's powers and layer outputs, both branch outputs and
    the gate: fewer arrays than those primitives kept, which also kept
    1 - alpha and alpha's factor k*H_diff.
    """

    def __init__(self, dist_lap: ScaledLaplacian, flow: MLPParams,
                 diff_branch: PowerBranchParams, adv_branch: PowerBranchParams,
                 fusion: FusionParams, diffusion_coeff_raw: Parameter,
                 gate_mode: str):
        if gate_mode not in GATE_MODES:
            raise ConfigurationError(f"gate_mode must be one of {GATE_MODES}")
        self.flow = flow
        self.diff_branch = diff_branch
        self.adv_branch = adv_branch
        self.fusion = fusion
        self.diffusion_coeff_raw = diffusion_coeff_raw
        self.gate_mode = gate_mode
        self.dist_tensor = Tensor(dist_lap.matrix)
        self.flow_lap: Tensor | None = None

    @staticmethod
    def raw_coefficient(value: float) -> float:
        """Inverse softplus, log(e^v - 1), written as v + log(1 - e^-v) so
        that it cannot overflow; softplus(raw) is the requested start value."""
        if value <= 0:
            raise ContractError("diffusion coefficient must start positive")
        return float(value + np.log(-np.expm1(-value)))

    def diffusion_coefficient(self) -> Tensor:
        return ad.softplus(self.diffusion_coeff_raw)

    def set_flow_from_wind(self, wind: Tensor) -> None:
        self.flow_lap = flow_scaled_laplacian(wind, self.flow)

    def __call__(self, t: float | np.ndarray, z: Tensor) -> Tensor:
        if self.flow_lap is None:
            raise ConfigurationError("flow-field laplacian has not been set")
        if z.data.ndim not in (2, 3):
            raise DimensionError(
                f"state must be (n, latent) or (batch, n, latent), got {z.shape}")
        if z.shape[:-1] != self.flow_lap.shape[:-1]:
            raise DimensionError(
                f"state {z.shape} does not match flow laplacian "
                f"{self.flow_lap.shape}")
        mode, flow_lap = self.gate_mode, self.flow_lap
        raw = self.diffusion_coeff_raw
        dist = self.dist_tensor.data
        coeff = np.logaddexp(0.0, raw.data)  # softplus
        if mode != "adv_only":
            h_diff, diff_layers = cheb_branch(dist, z.data, self.diff_branch)
        if mode != "diff_only":
            h_adv, adv_layers = cheb_branch(flow_lap.data, z.data,
                                            self.adv_branch)
        if mode == "diff_only":
            out = -(h_diff * coeff)
        elif mode == "adv_only":
            out = -h_adv
        else:
            alpha = gate_alpha(h_diff, h_adv, self.fusion)
            # -(alpha*(h_diff*k) + (1 - alpha)*h_adv), in place on new arrays
            out = h_diff * coeff
            out *= alpha
            rest = 1.0 - alpha
            rest *= h_adv
            out += rest
            np.negative(out, out=out)
        if not ad.grad_enabled():  # nothing is recorded: skip the inputs
            return ad.record(out, (), None)
        # the inputs in the order the composed tape replays them: the
        # advection branch's, the diffusion branch's, the gate's weights and
        # the coefficient
        inputs = []
        if mode != "diff_only":
            inputs += _branch_slots(flow_lap, z, self.adv_branch)
        if mode != "adv_only":
            inputs += _branch_slots(self.dist_tensor, z, self.diff_branch)
        if mode == "learned":
            inputs += self.fusion.parameters()
        if mode != "adv_only":
            inputs.append(raw)
        need_z, need_lap = z.requires_grad, flow_lap.requires_grad

        def vjp(g):
            g = -g
            if mode == "learned":
                g_adv, g_diff, g_coeff, gate_cts = _gate_vjp(
                    g, h_diff, h_adv, alpha, coeff, self.fusion)
            elif mode == "adv_only":
                g_adv = g
            else:
                g_diff, gate_cts = g * coeff, []
                g_coeff = unbroadcast(g * h_diff, np.shape(coeff))
            if mode != "diff_only":
                yield from _branch_vjp(g_adv, flow_lap.data, adv_layers,
                                       self.adv_branch, need_z, need_lap)
            if mode != "adv_only":
                yield from _branch_vjp(g_diff, dist, diff_layers,
                                       self.diff_branch, need_z, False)
                yield from gate_cts
                yield g_coeff * ad.logistic(raw.data)  # softplus's VJP

        return ad.record(out, tuple(inputs), vjp)


_REFERENCE_CFG = SolverConfig(rtol=1e-8, atol=1e-8)


def _reference_solve(op: np.ndarray, x: np.ndarray, t) -> np.ndarray:
    """dX/dt = op X from x at time(s) t: the state, or (len(t), n)."""
    times = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if (times <= 0).any() or (np.diff(times) <= 0).any():
        raise ContractError("simulation times must be positive and increasing")
    grid = TimeGrid(np.concatenate(([0.0], times)))
    op_t = Tensor(op)
    traj = dopri5_integrate_stats(lambda _t, y: ad.matmul(op_t, y),
                                  Tensor(x[None, :, None]), grid,
                                  _REFERENCE_CFG)[0].data[:, 0, :, 0]
    return traj if times.size > 1 else traj[0]


def _check_rates(rates, x0) -> tuple[np.ndarray, np.ndarray]:
    """(rates, x0) as float64 arrays: a square, non-negative rate matrix with
    a zero diagonal and one x0 value per node."""
    w = np.asarray(rates, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"rate matrix must be square, got {w.shape}")
    if (w < 0).any():
        raise ContractError("rates must be non-negative")
    if np.diag(w).any():
        raise ContractError("rate matrix diagonal must be zero")
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x.size != w.shape[0]:
        raise DimensionError(f"x0 size {x.size} does not match graph {w.shape}")
    return w, x


def simulate_diffusion_reference(w_d: np.ndarray, x0: np.ndarray, coeff: float,
                                 t) -> np.ndarray:
    """Integrate dX/dt = -coeff * (D - W_d) X on the distance graph.

    The combinatorial Laplacian conserves total mass exactly (a linear
    invariant of every Runge-Kutta step). Returns the state at time t, or the
    trajectory (len(t), n) when t is a sequence.
    """
    w, x = _check_rates(w_d, x0)
    if coeff < 0:
        raise ContractError("diffusion coefficient must be non-negative")
    lap = np.diag(w.sum(axis=1)) - w
    return _reference_solve(-coeff * lap, x, t)


def simulate_advection_reference(velocities: np.ndarray, x0: np.ndarray,
                                 t) -> np.ndarray:
    """Integrate mass-conserving transport on directed edge velocities.

    velocities[i, j] is the rate from node i to node j (non-negative, zero
    diagonal): dX_i/dt = sum_j X_j v_ji - X_i sum_k v_ik.
    """
    v, x = _check_rates(velocities, x0)
    return _reference_solve(v.T - np.diag(v.sum(axis=1)), x, t)
