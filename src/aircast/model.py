"""Encoder / latent-ODE / decoder forecasting model.

A per-node GRU (weights shared across stations) reads the normalized history
into a hidden state; the head, a two-layer tanh MLP, emits the latent
mean and log-std; the latent state is integrated through the physics-gated
differential equation and an affine readout maps each latent step back to one
normalized PM2.5 value, de-normalized for reporting. The GRU, the latent
head and the readout are per-node maps with shared weights, so they run on
the rows of all samples at once, (batch*n, features), sample-major; the
latent ODE carries its state as (batch, n, latent), so diffusion and advection
act on each sample's own n-station graph.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, no_grad
from .data import (DEFAULT_SPLIT, NUMBER, NormStats, WindowSample, check_ratio,
                   has_type, load_container, save_container)
from .errors import (ConfigurationError, ContractError, DataError,
                     DimensionError, FormatError, NumericError)
from .graph import ScaledLaplacian, SensorGraph, scaled_laplacian
from .odeint import SolverConfig, TimeGrid, ode_solve
from .physics import (DEFunction, FusionParams, GATE_MODES, MLPParams,
                      PowerBranchParams, mlp, uniform_param)


@dataclass(frozen=True)
class ModelConfig:
    history_steps: int = 24
    horizon_steps: int = 24
    latent_dim: int = 16
    gru_hidden: int = 64
    head_hidden: int = 50
    cheb_order: int = 3
    cheb_layers: int = 2
    flownet_hidden: int = 16
    gate_mode: str = "learned"
    diffusion_coeff_init: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("history_steps", "horizon_steps", "latent_dim", "gru_hidden",
                     "head_hidden", "cheb_order", "cheb_layers", "flownet_hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.gate_mode not in GATE_MODES:
            raise ConfigurationError(f"gate_mode must be one of {GATE_MODES}")
        if not 0 < self.diffusion_coeff_init < math.inf:
            raise ConfigurationError(
                "diffusion_coeff_init must be positive and finite, got "
                f"{self.diffusion_coeff_init}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


def config_from_dict(cls, d: dict):
    """A ModelConfig or SolverConfig from stored JSON: every key must be a
    field of cls and hold a value of its default's type."""
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(d) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    for key, value in d.items():
        default = defaults[key]
        if not has_type(value, NUMBER if isinstance(default, float)
                        else type(default)):
            raise ConfigurationError(
                f"{cls.__name__} {key!r} must be {type(default).__name__}, "
                f"got {value!r}")
    return cls(**d)


@dataclass
class GRUParams:
    """Update/reset/candidate gates of a shared per-node GRU (input size 1)."""

    w_z: Parameter
    u_z: Parameter
    b_z: Parameter
    w_r: Parameter
    u_r: Parameter
    b_r: Parameter
    w_n: Parameter
    u_n: Parameter
    b_n: Parameter

    @classmethod
    def create(cls, rng, hidden: int) -> "GRUParams":
        def w(name):
            return uniform_param(rng, (1, hidden), 1, f"gru.{name}")

        def u(name):
            return uniform_param(rng, (hidden, hidden), hidden, f"gru.{name}")

        def b(name):
            return uniform_param(rng, (1, hidden), hidden, f"gru.{name}")

        return cls(w_z=w("w_z"), u_z=u("u_z"), b_z=b("b_z"),
                   w_r=w("w_r"), u_r=u("u_r"), b_r=b("b_r"),
                   w_n=w("w_n"), u_n=u("u_n"), b_n=b("b_n"))

    @property
    def hidden(self) -> int:
        return self.u_z.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.w_z, self.u_z, self.b_z, self.w_r, self.u_r, self.b_r,
                self.w_n, self.u_n, self.b_n]


def gru_step(x: Tensor, h: Tensor, params: GRUParams) -> Tensor:
    """One GRU update: h' = (1 - z)*h + z*n with reset-gated candidate n."""
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise DimensionError(f"gru input must be (rows, 1), got {x.shape}")
    if h.shape != (x.shape[0], params.hidden):
        raise DimensionError(
            f"hidden state {h.shape} does not match input rows {x.shape[0]} "
            f"and width {params.hidden}")
    z = ad.sigmoid(ad.matmul(x, params.w_z) + ad.matmul(h, params.u_z) + params.b_z)
    r = ad.sigmoid(ad.matmul(x, params.w_r) + ad.matmul(h, params.u_r) + params.b_r)
    n = ad.tanh(ad.matmul(x, params.w_n)
                + ad.matmul(ad.mul(r, h), params.u_n) + params.b_n)
    return ad.mul(ad.sub(1.0, z), h) + ad.mul(z, n)


def latent_head(h: Tensor, params: MLPParams) -> tuple[Tensor, Tensor]:
    """(mu, sigma) with sigma = exp(log sigma): the two halves of the head
    MLP's output, each the latent width."""
    out = mlp(h, params)
    d = params.w2.shape[1] // 2
    mu = ad.slice_cols(out, 0, d)
    sigma = ad.exp(ad.slice_cols(out, d, 2 * d))
    return mu, sigma


def encode_history(x_hist: np.ndarray, gru: GRUParams,
                   head: MLPParams) -> tuple[Tensor, Tensor]:
    """Run the shared GRU over (steps, rows, 1) history and apply the head."""
    x_hist = np.asarray(x_hist, dtype=np.float64)
    if x_hist.ndim != 3 or x_hist.shape[2] != 1:
        raise DimensionError(f"history must be (steps, rows, 1), got {x_hist.shape}")
    rows = x_hist.shape[1]
    h = Tensor(np.zeros((rows, gru.hidden)))
    for t in range(x_hist.shape[0]):
        h = gru_step(Tensor(x_hist[t]), h, gru)
    return latent_head(h, head)


def reparameterize(mu: Tensor, sigma: Tensor, eps: np.ndarray | None) -> Tensor:
    """mu + sigma*eps for training draws; mu when eps is None (inference)."""
    if eps is None:
        return mu
    if mu.shape != sigma.shape:
        raise DimensionError(f"mu {mu.shape} and sigma {sigma.shape} differ")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != mu.shape:
        raise DimensionError(f"eps {eps.shape} does not match latent {mu.shape}")
    return mu + ad.mul(sigma, Tensor(eps))


@dataclass
class DecoderParams:
    """Shared affine readout latent -> 1 per node per step."""

    w: Parameter
    b: Parameter

    @classmethod
    def create(cls, rng, latent_dim: int) -> "DecoderParams":
        return cls(w=uniform_param(rng, (latent_dim, 1), latent_dim, "decoder.w"),
                   b=uniform_param(rng, (1, 1), latent_dim, "decoder.b"))

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


def decode_trajectory(traj: Tensor, params: DecoderParams) -> Tensor:
    """(steps, ..., latent) -> (steps, rows, 1) through the shared affine map;
    rows is the product of the axes between steps and latent."""
    steps, latent = traj.shape[0], traj.shape[-1]
    flat = ad.reshape(traj, (-1, latent))
    out = ad.matmul(flat, params.w) + params.b
    return ad.reshape(out, (steps, -1, 1))


class Model:
    """Full forecasting model bound to one sensor graph."""

    def __init__(self, graph: SensorGraph, config: ModelConfig,
                 stats: NormStats | None = None,
                 solver: SolverConfig | None = None):
        self.graph = graph
        self.config = config
        self.stats = stats
        self.solver = solver or SolverConfig()
        self.dist_lap: ScaledLaplacian = scaled_laplacian(graph.weights)
        rng = np.random.default_rng(config.seed)
        self.gru = GRUParams.create(rng, config.gru_hidden)
        self.head = MLPParams.create(rng, config.gru_hidden, config.head_hidden,
                                     2 * config.latent_dim, "head")
        self.decoder = DecoderParams.create(rng, config.latent_dim)
        self.de = DEFunction(
            dist_lap=self.dist_lap,
            flow=MLPParams.create(rng, 2, config.flownet_hidden, 1, "flow"),
            diff_branch=PowerBranchParams.create(
                rng, config.latent_dim, config.cheb_order, config.cheb_layers,
                prefix="diff"),
            adv_branch=PowerBranchParams.create(
                rng, config.latent_dim, config.cheb_order, config.cheb_layers,
                prefix="adv"),
            fusion=FusionParams.create(rng, config.latent_dim),
            diffusion_coeff_raw=Parameter(
                DEFunction.raw_coefficient(config.diffusion_coeff_init),
                "physics.diffusion_coeff_raw"),
            gate_mode=config.gate_mode,
        )

    @property
    def n_stations(self) -> int:
        return self.graph.n_stations

    def parameters(self) -> list[Parameter]:
        return [p for group in self.parameter_groups().values() for p in group]

    def parameter_groups(self) -> dict[str, list[Parameter]]:
        return {
            "gru": self.gru.parameters(),
            "head": self.head.parameters(),
            "decoder": self.decoder.parameters(),
            "flownet": self.de.flow.parameters(),
            "cheb_diff": self.de.diff_branch.parameters(),
            "cheb_adv": self.de.adv_branch.parameters(),
            "fusion": self.de.fusion.parameters(),
            "diffusion_coeff": [self.de.diffusion_coeff_raw],
        }

    def _stack_batch(self, samples: Sequence[WindowSample]
                     ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        n = self.n_stations
        for s in samples:
            if s.x_hist.shape != (cfg.history_steps, n, 1):
                raise DimensionError(
                    f"history shape {s.x_hist.shape} does not match "
                    f"({cfg.history_steps}, {n}, 1)")
            if s.x_future.shape != (cfg.horizon_steps, n, 1):
                raise DimensionError(
                    f"future shape {s.x_future.shape} does not match "
                    f"({cfg.horizon_steps}, {n}, 1)")
            if s.p_hist.shape != (cfg.history_steps, n, 2):
                raise DimensionError(
                    f"wind shape {s.p_hist.shape} does not match "
                    f"({cfg.history_steps}, {n}, 2)")
        # history (steps, batch*n, 1) for the per-node encoder; wind (batch, n, 2)
        x = np.concatenate([s.x_hist for s in samples], axis=1)
        wind_last = np.stack([s.p_hist[-1] for s in samples])
        return x, wind_last

    def forward_batch(self, samples: Sequence[WindowSample], mode: str,
                      eps_rng: np.random.Generator | None = None,
                      horizon_steps: int | None = None) -> Tensor:
        """Normalized predictions (horizon, batch*n, 1), sample-major rows.

        The ODE is solved over `horizon_steps` steps, by default the
        configured horizon."""
        if not samples:
            raise ContractError("empty batch")
        if mode not in ("train", "infer"):
            raise ContractError(f"mode must be 'train' or 'infer', got {mode!r}")
        x, wind_last = self._stack_batch(samples)
        mu, sigma = encode_history(x, self.gru, self.head)
        if mode == "train":
            if eps_rng is None:
                raise ContractError("training forward needs an eps generator")
            eps = eps_rng.standard_normal(mu.shape)
        else:
            eps = None
        z0 = ad.reshape(reparameterize(mu, sigma, eps),
                        (len(samples), self.n_stations, self.config.latent_dim))
        self.de.set_flow_from_wind(Tensor(wind_last))
        if horizon_steps is None:
            horizon_steps = self.config.horizon_steps
        grid = TimeGrid.unit(horizon_steps)
        traj = ode_solve(self.de, z0, grid, self.solver, mode)
        return decode_trajectory(traj, self.decoder)

    def forecast(self, samples: Sequence[WindowSample],
                 horizon_steps: int | None = None) -> np.ndarray:
        """De-normalized inference forecasts (horizon, batch*n, 1) in ug/m3,
        sample-major rows as in forward_batch. A NaN or inf in them is a
        NumericError naming the lowest such sample."""
        if self.stats is None:
            raise ConfigurationError(
                "model has no normalization statistics; attach stats or load "
                "a checkpoint")
        with no_grad():
            pred = self.forward_batch(samples, "infer",
                                      horizon_steps=horizon_steps)
        out = self.stats.denormalize(pred.data)
        finite = np.isfinite(out).reshape(out.shape[0], len(samples), -1)
        if (bad := ~finite.all(axis=(0, 2))).any():
            raise NumericError(
                f"non-finite forecast for sample {int(np.argmax(bad))}")
        return out

    def forward_sample(self, sample: WindowSample) -> np.ndarray:
        """De-normalized inference forecast (horizon, n, 1) in ug/m3 for one
        sample."""
        return self.forecast([sample])


CHECKPOINT_FORMAT = "aircast-checkpoint-v1"
_LAPLACIAN_KEY = "graph.dist_laplacian"
_LAPLACIAN_RTOL = 1e-9  # of the largest entry; eigvalsh rounding is ~1e-15


@dataclass
class ModelCheckpoint:
    """Self-describing snapshot: config, arrays, stats, split, solver."""

    config: ModelConfig
    arrays: dict
    norm_mean: float
    norm_std: float
    n_stations: int
    split_ratio: tuple = DEFAULT_SPLIT
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        check_ratio(self.split_ratio)
        if not -math.inf < self.norm_mean < math.inf:
            raise ConfigurationError(
                f"checkpoint mean must be finite, got {self.norm_mean}")
        if not 0 < self.norm_std < math.inf:
            raise ConfigurationError(
                f"checkpoint std must be positive and finite, got {self.norm_std}")


def make_checkpoint(model: Model, split_ratio: tuple = DEFAULT_SPLIT
                    ) -> ModelCheckpoint:
    if model.stats is None:
        raise ConfigurationError("cannot checkpoint a model without stats")
    arrays = {p.name: p.data.copy() for p in model.parameters()}
    arrays[_LAPLACIAN_KEY] = model.dist_lap.matrix.copy()
    return ModelCheckpoint(config=model.config, arrays=arrays,
                           norm_mean=model.stats.mean, norm_std=model.stats.std,
                           n_stations=model.n_stations,
                           split_ratio=split_ratio, solver=model.solver)


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    meta = {
        "config": asdict(ckpt.config),
        "norm_mean": ckpt.norm_mean,
        "norm_std": ckpt.norm_std,
        "n_stations": ckpt.n_stations,
        "split_ratio": list(ckpt.split_ratio),
        "solver": asdict(ckpt.solver),
    }
    save_container(path, CHECKPOINT_FORMAT, meta, ckpt.arrays)


_CHECKPOINT_SCHEMA = {"config": dict, "norm_mean": NUMBER, "norm_std": NUMBER,
                      "n_stations": int, "split_ratio": ([int], type(None)),
                      "solver": (dict, type(None))}


def load_checkpoint(path) -> ModelCheckpoint:
    """A saved checkpoint; a null or absent split_ratio or solver is its
    default, and every array must be a finite float array."""
    meta, arrays = load_container(path, CHECKPOINT_FORMAT, _CHECKPOINT_SCHEMA)
    for name, a in arrays.items():
        if not np.issubdtype(a.dtype, np.floating):
            problem = f"is {a.dtype}, not a float array"
        elif not np.isfinite(a).all():
            problem = "holds a non-finite value"
        else:
            continue
        raise FormatError(f"{path}: array {name!r} {problem}")
    try:
        return ModelCheckpoint(
            config=config_from_dict(ModelConfig, meta["config"]),
            arrays=arrays,
            norm_mean=meta["norm_mean"],
            norm_std=meta["norm_std"],
            n_stations=meta["n_stations"],
            split_ratio=DEFAULT_SPLIT if meta.get("split_ratio") is None
            else tuple(meta["split_ratio"]),
            solver=SolverConfig() if meta.get("solver") is None
            else config_from_dict(SolverConfig, meta["solver"]),
        )
    except ConfigurationError as e:
        raise FormatError(f"{path}: {e}") from None


def model_from_checkpoint(ckpt: ModelCheckpoint, graph: SensorGraph) -> Model:
    """Rebuild a model and load parameters, verifying every array shape and
    that the stored distance Laplacian is the one the graph gives."""
    saved_lap = ckpt.arrays.get(_LAPLACIAN_KEY)
    if saved_lap is None:
        raise FormatError(f"checkpoint missing array {_LAPLACIAN_KEY!r}")
    if graph.n_stations != ckpt.n_stations:
        raise DimensionError(
            f"checkpoint was trained on {ckpt.n_stations} stations but the "
            f"graph has {graph.n_stations} (array {_LAPLACIAN_KEY!r} is "
            f"{saved_lap.shape})")
    model = Model(graph, ckpt.config,
                  stats=NormStats(ckpt.norm_mean, ckpt.norm_std),
                  solver=ckpt.solver)
    rebuilt = model.dist_lap.matrix
    if saved_lap.shape != rebuilt.shape:
        raise DimensionError(
            f"array {_LAPLACIAN_KEY!r} has shape {saved_lap.shape}, graph "
            f"needs {rebuilt.shape}")
    gap = float(np.abs(saved_lap - rebuilt).max())
    if not gap <= _LAPLACIAN_RTOL * float(np.abs(rebuilt).max()):  # NaN too
        raise DataError(
            f"array {_LAPLACIAN_KEY!r} differs from the graph's distance "
            f"Laplacian by up to {gap:.3g}: the checkpoint was trained on "
            f"another station layout")
    load_parameters(model, ckpt.arrays)
    return model


def load_parameters(model: Model, arrays: dict) -> None:
    """Copy each parameter's values in from the array of its name, checking
    that every parameter has one of its shape."""
    for p in model.parameters():
        saved = arrays.get(p.name)
        if saved is None:
            raise FormatError(f"checkpoint missing array {p.name!r}")
        if saved.shape != p.data.shape:
            raise DimensionError(
                f"array {p.name!r} has shape {saved.shape}, model needs "
                f"{p.data.shape}")
        p.data[...] = saved
