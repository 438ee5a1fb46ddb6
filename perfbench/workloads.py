"""The three workloads: set-up, the op each one repeats, and its checks.

Each op is one aircast invocation through ``aircast.cli.cli_dispatch``. A
workload's set-up writes every input from the seed, so the program only
ever sees generated files. ``after_op`` runs between ops, outside the
timed region; ``check`` runs once after the last op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

PAPER_MODEL = {}  # ModelConfig defaults: 24/24 steps, latent 16, GRU 64


@dataclass(frozen=True)
class Sizes:
    beijing_stations: int = 35
    shenzhen_stations: int = 11
    train_steps: int = 93        # 46 windows: 32 train, 4 validation, 10 test
    train_model: dict = field(default_factory=lambda: PAPER_MODEL)
    batch_size: int = 32
    forecast_steps: int = 2048   # 2001 windows, 401 test: 17 origins at 72 h
    forecast_model: dict = field(default_factory=lambda: PAPER_MODEL)
    ingest_hours: int = 8760     # one year


FULL = Sizes()
TINY = Sizes(beijing_stations=6, shenzhen_stations=4, train_steps=19,
             train_model={"history_steps": 4, "horizon_steps": 4,
                          "latent_dim": 4, "gru_hidden": 8, "head_hidden": 6},
             batch_size=8, forecast_steps=160,
             forecast_model={"history_steps": 4, "latent_dim": 4,
                             "gru_hidden": 8, "head_hidden": 6},
             ingest_hours=24 * 12)

SPLIT = (7, 1, 2)
HORIZON_72H = 24


def split_sizes(windows: int) -> tuple[int, int, int]:
    """The 7:1:2 chronological split as the README describes it."""
    n_train = windows * 7 // 10
    n_val = windows // 10
    return n_train, n_val, windows - n_train - n_val


def _stations(layout: inputs.Layout):
    from aircast.graph import Station

    return [Station(s, a, o) for s, a, o in
            zip(layout.ids, layout.lat.tolist(), layout.lon.tolist())]


def _model_config(sizes_model: dict, seed: int):
    from aircast.model import ModelConfig

    return ModelConfig(seed=seed % 2**31, **sizes_model)


class Workload:
    name = ""
    city = ""
    stream = 0

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, work: Path, seed: int) -> None:
        """Write the inputs under work; the graph and its distance
        Laplacian are built by the program, as every later step does."""
        from aircast.graph import SensorGraph, scaled_laplacian

        self.work, self.seed = work, seed
        self.rng = np.random.default_rng([self.stream, seed % 2**63])
        n = (self.sizes.beijing_stations if self.city == "beijing"
             else self.sizes.shenzhen_stations)
        self.layout = inputs.station_layout(self.rng, self.city, n)
        self.graph = SensorGraph.from_stations(_stations(self.layout))
        self.laplacian = scaled_laplacian(self.graph.weights).matrix
        self.digests: list[str] = []
        self._setup()

    def write_readings(self, hours: int, gaps: bool) -> int:
        """Station table and hourly readings CSVs, with or without gaps;
        returns the number of readings rows."""
        n = len(self.layout.ids)
        self.fields = inputs.hourly_fields(self.rng, n, hours)
        self.gaps = (inputs.make_gaps(self.rng, hours, n) if gaps else
                     inputs.Gaps(np.ones((hours, n), dtype=bool),
                                 {c: np.zeros((hours, n), dtype=bool)
                                  for c in inputs.CHANNELS}))
        self.stations_csv = self.work / "stations.csv"
        self.layout.write_csv(self.stations_csv)
        self.readings = self.work / "readings.csv"
        return inputs.write_readings_csv(self.readings, self.layout,
                                         self.fields, self.gaps)

    def ingest(self, hours: int) -> None:
        """A complete hourly record through aircast ingest, as a user
        prepares data; self.series holds the processed (pm25, u, v)."""
        from aircast.cli import cli_dispatch

        self.write_readings(hours, gaps=False)
        self.data = self.work / "dataset.npz"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_dispatch(["ingest", "--stations", str(self.stations_csv),
                               "--readings", str(self.readings),
                               "--out", str(self.data)])
        if rc != 0:
            raise RuntimeError(f"set-up ingest exited with {rc}")
        arrays, _ = checks.read_npz(self.data)
        self.series = arrays["pm25"], arrays["wind_u"], arrays["wind_v"]

    def pick(self, count: int) -> int:
        """A seeded choice among count items, for the checks."""
        return int(np.random.default_rng(self.seed % 2**63).integers(count))

    def after_op(self) -> None:
        pass

    def check(self) -> list[str]:
        return checks.laplacian_errors(self.laplacian, "set-up graph")


class TrainBeijing(Workload):
    name, city, stream = "train-beijing", "beijing", 1

    def _setup(self) -> None:
        s = self.sizes
        self.cfg = _model_config(s.train_model, self.seed)
        self.ingest(3 * s.train_steps)
        windows = s.train_steps - self.cfg.history_steps - self.cfg.horizon_steps + 1
        self.items = split_sizes(windows)[0]
        self.config = self.work / "train.ini"
        model_lines = [f"{k} = {v}" for k, v in s.train_model.items()]
        self.config.write_text("\n".join(
            ["[model]", f"seed = {self.cfg.seed}", *model_lines, "",
             "[train]", f"batch_size = {s.batch_size}", "max_epochs = 1",
             "patience = 1", f"seed = {self.cfg.seed}", ""]), encoding="utf-8")
        self.out = self.work / "run"
        self.argv = ["train", "--data", str(self.data), "--out-dir", str(self.out),
                     "--config", str(self.config)]

    def after_op(self) -> None:
        self.digests.append(checks.arrays_digest(self.out / "checkpoint.npz"))

    def check(self) -> list[str]:
        from aircast.data import WindowSample
        from aircast.model import load_checkpoint, model_from_checkpoint

        errors = super().check()
        errors += checks.same_digest_errors(self.digests, "checkpoint arrays")
        ckpt = load_checkpoint(self.out / "checkpoint.npz")
        errors += checks.laplacian_errors(ckpt.arrays["graph.dist_laplacian"],
                                          "checkpoint graph")
        model = model_from_checkpoint(ckpt, self.graph)
        stats = model.stats
        pm, u, v = self.series
        hist, hor = self.cfg.history_steps, self.cfg.horizon_steps
        start = self.pick(self.items)
        sample = WindowSample(
            x_hist=stats.normalize(pm[start:start + hist, :, None]),
            p_hist=np.stack([u, v], axis=-1)[start:start + hist],
            x_future=stats.normalize(pm[start + hist:start + hist + hor, :, None]),
            start_time=inputs.START, start_index=start)
        self.gradients = checks.gradient_pairs(model, [sample], self.seed % 2**31)
        return errors + checks.gradient_errors(*self.gradients)


class ForecastShenzhen(Workload):
    name, city, stream = "forecast-shenzhen", "shenzhen", 2

    def _setup(self) -> None:
        from aircast.data import NormStats
        from aircast.model import Model, make_checkpoint, save_checkpoint

        s = self.sizes
        cfg = _model_config(s.forecast_model, self.seed)
        self.ingest(3 * s.forecast_steps)
        self.hist = cfg.history_steps
        windows = s.forecast_steps - cfg.history_steps - cfg.horizon_steps + 1
        n_train, n_val, n_test = split_sizes(windows)
        self.first_test = n_train + n_val
        self.items = math.ceil(n_test / cfg.horizon_steps)
        self.stride = cfg.horizon_steps
        train_span = self.series[0][:n_train + cfg.history_steps + cfg.horizon_steps - 1]
        model = Model(self.graph, cfg, stats=NormStats(float(train_span.mean()),
                                                       float(train_span.std())))
        self.checkpoint = self.work / "checkpoint.npz"
        save_checkpoint(make_checkpoint(model, SPLIT), self.checkpoint)
        self.pred = self.work / "forecast.csv"
        self.truth = self.work / "truth.csv"
        self.argv = ["predict", "--checkpoint", str(self.checkpoint), "--data",
                     str(self.data), "--horizon", "72h", "--out", str(self.pred),
                     "--truth-out", str(self.truth)]

    def after_op(self) -> None:
        self.digests.append(hashlib.sha256(self.pred.read_bytes()).hexdigest())

    def origin_start(self, origin: int) -> int:
        return self.first_test + origin * self.stride

    def check(self) -> list[str]:
        from aircast.cli import cli_dispatch
        from aircast.model import load_checkpoint, model_from_checkpoint

        errors = super().check()
        errors += checks.same_digest_errors(self.digests, "forecast files")
        ckpt = load_checkpoint(self.checkpoint)
        errors += checks.laplacian_errors(ckpt.arrays["graph.dist_laplacian"],
                                          "checkpoint graph")
        pm, u, v = self.series
        n = pm.shape[1]
        pred_rows = checks.read_rows(self.pred)
        truth_rows = checks.read_rows(self.truth)
        truth_values = np.concatenate([
            pm[self.origin_start(o) + self.hist:
               self.origin_start(o) + self.hist + HORIZON_72H].ravel()
            for o in range(self.items)])
        errors += checks.forecast_rows_errors(
            pred_rows, truth_rows, self.items * HORIZON_72H * n, truth_values)
        if errors:
            return errors

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_dispatch(["evaluate", "--pred", str(self.pred),
                               "--truth", str(self.truth)])
        if rc != 0:
            return errors + [f"aircast evaluate exited with {rc}"]
        reported = float(out.getvalue().split()[0].removeprefix("mae="))
        errors += checks.mae_errors(reported, checks.numpy_mae(pred_rows, truth_rows))

        origin = self.pick(self.items)
        start = self.origin_start(origin)
        model = model_from_checkpoint(ckpt, self.graph)
        x_hist = model.stats.normalize(pm[start:start + self.hist, :, None])
        wind_last = np.stack([u[start + self.hist - 1], v[start + self.hist - 1]],
                             axis=-1)
        reference, tol = checks.reference_forecast(model, x_hist, wind_last,
                                                   HORIZON_72H)
        size = HORIZON_72H * n
        got = np.array([float(r[2]) for r in
                        pred_rows[origin * size:(origin + 1) * size]])
        self.forecast_pair = (got.reshape(HORIZON_72H, n), reference, tol)
        return errors + checks.reference_errors(*self.forecast_pair)


class IngestBeijing(Workload):
    name, city, stream = "ingest-beijing", "beijing", 3

    def _setup(self) -> None:
        self.items = self.write_readings(self.sizes.ingest_hours, gaps=True)
        self.out = self.work / "beijing.npz"
        self.argv = ["ingest", "--stations", str(self.stations_csv),
                     "--readings", str(self.readings), "--out", str(self.out)]

    def after_op(self) -> None:
        self.digests.append(checks.arrays_digest(self.out))

    def check(self) -> list[str]:
        errors = super().check()
        errors += checks.same_digest_errors(self.digests, "datasets")
        arrays, meta = checks.read_npz(self.out)
        return errors + checks.ingest_errors(arrays, meta, self.layout,
                                             self.fields, self.gaps)


WORKLOADS = {w.name: w for w in (TrainBeijing, ForecastShenzhen, IngestBeijing)}
