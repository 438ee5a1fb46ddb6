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
from .autodiff import Parameter, Tensor
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


def cheb_branch(lap: Tensor, h0: Tensor, params: PowerBranchParams) -> Tensor:
    """Residual sum h0 + sum_l tanh(sum_k Lap^k H theta_k).

    The state is (n, latent) or a minibatch (batch, n, latent). lap is one
    (n, n) Laplacian shared by every sample or a stack (batch, n, n) with one
    per sample; either way each power is a single batched matmul.
    """
    if lap.data.ndim not in (2, 3) or lap.shape[-1] != lap.shape[-2]:
        raise DimensionError(f"laplacian must be square, got {lap.shape}")
    if h0.data.ndim not in (2, 3) or h0.shape[-2] != lap.shape[-1]:
        raise DimensionError(
            f"state {h0.shape} does not match laplacian {lap.shape}")
    h = h0
    total = h0
    for layer in params.thetas:
        power = h
        acc = ad.matmul(power, layer[0])
        for theta in layer[1:]:
            power = ad.matmul(lap, power)
            acc = acc + ad.matmul(power, theta)
        h = ad.tanh(acc)
        total = total + h
    return total


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


def gate_alpha(h_diff: Tensor, h_adv: Tensor, params: FusionParams) -> Tensor:
    return ad.sigmoid(ad.matmul(h_diff, params.w_diff)
                      + ad.matmul(h_adv, params.w_adv) + params.b)


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
        coeff = self.diffusion_coefficient()
        if self.gate_mode == "diff_only":
            h_diff = cheb_branch(self.dist_tensor, z, self.diff_branch)
            return ad.neg(ad.mul(h_diff, coeff))
        if self.gate_mode == "adv_only":
            return ad.neg(cheb_branch(self.flow_lap, z, self.adv_branch))
        h_diff = cheb_branch(self.dist_tensor, z, self.diff_branch)
        h_adv = cheb_branch(self.flow_lap, z, self.adv_branch)
        alpha = gate_alpha(h_diff, h_adv, self.fusion)
        return ad.neg(ad.mul(alpha, ad.mul(h_diff, coeff))
                      + ad.mul(ad.sub(1.0, alpha), h_adv))


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
