"""Command line surface: ingest, train, predict, evaluate, baseline,
simulate, plot.

Exit codes: 0 success, 1 usage error, 2 data or numeric error. The
config file is UTF-8 INI with [model], [train], and [solver] sections;
values are literal text and [DEFAULT] is an unknown section. Every field
has a default, so all sections and the file itself are optional. The
environment variable AQC_SEED overrides both seeds.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import os
import sys
from dataclasses import fields as dc_fields, replace
from pathlib import Path

import numpy as np

from .baselines import fit_var, ha_forecast, var_forecast
from .data import (DEFAULT_SPLIT, STEP, Dataset, chronological_split,
                   forecast_origins, impute_missing, load_dataset, make_windows,
                   parse_finite, parse_readings, resample_3h, save_dataset,
                   _parse_timestamp)
from .errors import (AircastError, ConfigurationError, DataError, ParseError,
                     UnknownStationError)
from .figures import render_diffusion_lines, render_wind_heatmap
from .graph import SensorGraph, load_stations, table_rows
from .metrics import (CITY_LEVELS, HORIZON_STEPS, mae, masked_metrics, rmse,
                      sudden_change_mask)
from .model import (Model, ModelConfig, load_checkpoint, model_from_checkpoint,
                    save_checkpoint)
from .odeint import SolverConfig
from .physics import simulate_advection_reference, simulate_diffusion_reference
from .training import TrainConfig, train_loop

SEED_ENV = "AQC_SEED"
SPARSE_SPLIT = (3, 1, 6)
CONFIG_SECTIONS = {"model": ModelConfig, "train": TrainConfig,
                   "solver": SolverConfig}
# Flags that only one mode reads: flag -> (the option that sets the mode, the
# value it must have, or None where it need only be given, and whether the
# mode needs the flag). Anywhere else the flag would be ignored, and a mode
# that needs it would fail, so either is a usage error.
MODE_FLAGS = {
    "city": ("sudden_change", None, True),
    "velocities": ("mode", "advection", False),
    "wind": ("type", "wind-heatmap", True),
    "source": ("type", "diffusion-lines", True),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for data
    problems, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite_float(text: str) -> float:
    """argparse type: a finite number, so nan and inf are usage errors."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")


def _section_config(cp: configparser.ConfigParser, path, name: str, cls):
    """``cls`` built from section [name]: its defaults where the section
    leaves a field out. An error in a value names the file and section."""
    if not cp.has_section(name):
        return cls()
    defaults = {f.name: f.default for f in dc_fields(cls)}
    out = {}
    for key, raw in cp.items(name):
        if key not in defaults:
            raise ConfigurationError(f"unknown key {key!r} in [{name}]")
        default = defaults[key]
        try:
            if isinstance(default, int):
                out[key] = int(raw)
            elif isinstance(default, float):
                out[key] = float(raw)
                if not math.isfinite(out[key]):
                    raise ValueError(raw)
            elif isinstance(default, tuple):
                parts = raw.replace(",", " ").split()
                out[key] = tuple(int(p) for p in parts)
            else:
                out[key] = raw.strip()
        except ValueError:
            raise ConfigurationError(
                f"bad value for {key!r} in [{name}]: {raw!r}") from None
    try:
        return cls(**out)
    except ConfigurationError as e:
        raise ConfigurationError(f"{path}: [{name}] {e}") from None


def load_config(path=None) -> tuple[ModelConfig, TrainConfig, SolverConfig]:
    """Read the optional INI config; AQC_SEED overrides both seeds."""
    configs = {name: cls() for name, cls in CONFIG_SECTIONS.items()}
    if path is not None:
        # literal values; [DEFAULT] is an ordinary section, so an unknown one
        cp = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            loaded = cp.read(path, encoding="utf-8")
        except configparser.Error as e:
            raise ConfigurationError(f"{path}: {e}") from None
        except UnicodeDecodeError as e:
            raise ConfigurationError(
                f"{path}: not UTF-8 text ({e.reason})") from None
        if not loaded:
            raise ConfigurationError(f"cannot read config file {path}")
        for section in cp.sections():
            if section not in CONFIG_SECTIONS:
                raise ConfigurationError(f"unknown config section [{section}]")
        configs = {name: _section_config(cp, path, name, cls)
                   for name, cls in CONFIG_SECTIONS.items()}
    seed_env = os.environ.get(SEED_ENV)
    if seed_env is not None:
        try:
            seed = int(seed_env)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV} must be an integer, got {seed_env!r}") from None
        for name in ("model", "train"):
            configs[name] = replace(configs[name], seed=seed)
    return configs["model"], configs["train"], configs["solver"]


def _read_station_csv(path, station_ids, columns) -> np.ndarray:
    """(n, len(columns)) values from a CSV with header station_id,<columns>
    that covers every station exactly once."""
    values = {}
    rows = table_rows(path, ["station_id", *columns])
    next(rows)  # the header
    for lineno, row in rows:
        sid = row[0].strip()
        if sid not in station_ids:
            raise UnknownStationError(f"{path}:{lineno}: unknown station {sid!r}")
        if sid in values:
            raise ParseError(f"{path}:{lineno}: duplicate station {sid!r}")
        values[sid] = [parse_finite(text, path, lineno, column)
                       for text, column in zip(row[1:], columns)]
    missing = [sid for sid in station_ids if sid not in values]
    if missing:
        raise DataError(f"{path}: missing stations {missing}")
    return np.array([values[sid] for sid in station_ids])


def _read_forecast_csv(path) -> dict:
    """Forecast or truth CSV keyed by (timestamp, station_id).

    Header must be timestamp,station_id,<value column>; the value column
    is commonly pm25_pred for forecasts and pm25 for ground truth.
    """
    out = {}
    rows = table_rows(path, ["timestamp", "station_id", None])
    column = next(rows)[1][2]  # the header's value column
    for lineno, row in rows:
        where = f"{path}:{lineno}"
        ts = _parse_timestamp(row[0].strip(), where)
        sid = row[1].strip()
        key = (ts, sid)
        if key in out:
            raise ParseError(f"{where}: duplicate point {sid} at {row[0]}")
        out[key] = parse_finite(row[2], path, lineno, column)
    if not out:
        raise DataError(f"{path}: no rows")
    return out


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row (quoted if needed)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # ends in ',\r\n'
    return buf.getvalue()[:-3]


def _forecast_keys(origins, station_ids, history_steps, horizon) -> list:
    """'timestamp,station_id,' for every forecast row: origin by origin,
    step by step, station by station, over each origin's first ``horizon``
    steps. Each step's timestamp is formatted once, each id quoted once."""
    ids = [_csv_field(sid) for sid in station_ids]
    keys = []
    for w in origins:
        for step in range(horizon):
            ts = w.start_time + (history_steps + step) * STEP
            prefix = ts.isoformat() + ","
            keys.extend([f"{prefix}{sid}," for sid in ids])
    return keys


def _write_csv(path, header, keys, values) -> None:
    """The ``header`` line, then one row per key: the key (its leading fields
    and their commas) and the repr of its float64 value from ``values``,
    flattened in key order. The bytes csv.writer writes, in one string."""
    flat = np.asarray(values, dtype=np.float64).ravel().tolist()
    lines = [f"{header}\r\n"]
    lines.extend([f"{key}{v!r}\r\n"
                  for key, v in zip(keys, flat, strict=True)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _write_forecasts(args, origins, ids, history, horizon, forecasts,
                     summary) -> None:
    """Write ``forecasts`` to --out and, when --truth-out is given, the
    ground truth of the same rows there. ``summary`` is the stdout line's
    text after the path, formatted with ``rows`` and ``origins``."""
    keys = _forecast_keys(origins, ids, history, horizon)
    _write_csv(args.out, "timestamp,station_id,pm25_pred", keys, forecasts)
    print(f"wrote {args.out}: " + summary.format(rows=len(keys), origins=len(origins)))
    if args.truth_out:
        _write_csv(args.truth_out, "timestamp,station_id,pm25", keys,
                   [w.x_future[:horizon, :, 0] for w in origins])
        print(f"wrote {args.truth_out}: aligned ground truth")


def cmd_ingest(args) -> int:
    stations = load_stations(args.stations)
    # a bad cutoff or coincident stations fail here, before the long parse
    SensorGraph.from_stations(stations, args.max_distance_km)
    hourly = parse_readings(args.readings, [s.station_id for s in stations])
    series = resample_3h(impute_missing(hourly))
    save_dataset(Dataset(series, stations, args.max_distance_km), args.out)
    print(f"wrote {args.out}: {series.steps} three-hour steps, "
          f"{len(stations)} stations")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg, solver_cfg = load_config(args.config)
    dataset = load_dataset(args.data)
    graph = SensorGraph.from_stations(list(dataset.stations),
                                      dataset.max_distance_km)
    windows = make_windows(dataset.series, model_cfg.history_steps,
                           model_cfg.horizon_steps)
    ratio = SPARSE_SPLIT if args.sparse_split else DEFAULT_SPLIT
    split = chronological_split(windows, ratio)
    model = Model(graph, model_cfg, solver=solver_cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "training_log.csv"
    ckpt, rows = train_loop(model, split, train_cfg, log_path)
    ckpt_path = out_dir / "checkpoint.npz"
    save_checkpoint(ckpt, ckpt_path)
    best = min(r["val_mae"] for r in rows)
    print(f"trained {len(rows)} epoch(s) on {len(split.train)} windows, "
          f"best val MAE {best:.6f} (normalized)")
    print(f"wrote {ckpt_path} and {log_path}")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    graph = SensorGraph.from_stations(list(dataset.stations),
                                      dataset.max_distance_km)
    model = model_from_checkpoint(ckpt, graph)
    cfg = ckpt.config
    horizon = HORIZON_STEPS[args.horizon]
    if horizon > cfg.horizon_steps:
        raise ConfigurationError(
            f"checkpoint predicts {cfg.horizon_steps} steps, "
            f"{args.horizon} needs {horizon}")
    origins = forecast_origins(dataset.series, cfg.history_steps,
                               cfg.horizon_steps, ckpt.split_ratio)
    samples = [replace(w, x_hist=model.stats.normalize(w.x_hist))
               for w in origins]
    # (horizon, origins * n): each origin's n stations side by side
    forecasts = model.forecast(samples, horizon)[:, :, 0]
    forecasts = forecasts.reshape(horizon, len(origins), -1).swapaxes(0, 1)
    _write_forecasts(args, origins, dataset.series.station_ids, cfg.history_steps,
                     horizon, forecasts, "{rows} rows from {origins} forecast "
                     "origins at horizon " + args.horizon)
    return 0


def cmd_baseline(args) -> int:
    dataset = load_dataset(args.data)
    series = dataset.series.pm25
    if args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        history, horizon = ckpt.config.history_steps, ckpt.config.horizon_steps
        ratio = ckpt.split_ratio
    else:
        cfg = ModelConfig()
        history, horizon = cfg.history_steps, cfg.horizon_steps
        ratio = SPARSE_SPLIT if args.sparse_split else DEFAULT_SPLIT
    origins = forecast_origins(dataset.series, history, horizon, ratio)
    forecasts = []
    for w in origins:
        start = w.start_index + history
        if args.method == "ha":
            forecasts.append(ha_forecast(series,
                                         range(start, start + horizon)))
        else:
            # fit only on data available at the forecast origin
            model = fit_var(series[:start])
            forecasts.append(var_forecast(model, series[start - model.lags:start],
                                          horizon))
    _write_forecasts(args, origins, dataset.series.station_ids, history, horizon,
                     forecasts, args.method + " baseline, {rows} rows from "
                     "{origins} forecast origins")
    return 0


def cmd_evaluate(args) -> int:
    pred = _read_forecast_csv(args.pred)
    truth = _read_forecast_csv(args.truth)
    keys = sorted(set(pred) & set(truth), key=lambda k: (k[0], k[1]))
    if not keys:
        raise DataError("prediction and truth share no (timestamp, station) points")
    p = np.array([pred[k] for k in keys])
    t = np.array([truth[k] for k in keys])
    print(f"mae={mae(p, t)!r} rmse={rmse(p, t)!r} points={len(keys)}")
    if args.sudden_change:
        # the truth one step later; NaN where there is none never flags
        later = np.array([truth.get((ts + STEP, sid), np.nan)
                          for ts, sid in keys])
        mask = sudden_change_mask(np.stack([t, later]), CITY_LEVELS[args.city])[0]
        report = masked_metrics(p, t, mask)
        print(f"sudden_change mae={report.mae!r} rmse={report.rmse!r} "
              f"points={report.n_points}")
    return 0


def cmd_simulate(args) -> int:
    stations = load_stations(args.graph)
    graph = SensorGraph.from_stations(stations)
    ids = [s.station_id for s in stations]
    x0 = _read_station_csv(args.x0, ids, ["value"])[:, 0]
    if args.mode == "diffusion":
        final = simulate_diffusion_reference(graph.weights, x0, args.k, args.t)
    else:
        if args.velocities:
            velocities = _read_matrix_csv(args.velocities, len(ids))
        else:
            velocities = graph.weights
        final = simulate_advection_reference(velocities, x0, args.t)
    _write_csv(args.out, "station_id,value",
               [_csv_field(sid) + "," for sid in ids], final)
    print(f"wrote {args.out}: {args.mode} state at t={args.t:g} "
          f"(mass {float(x0.sum())!r} -> {float(final.sum())!r})")
    return 0


def _read_matrix_csv(path, n) -> np.ndarray:
    """Headerless n-by-n CSV of finite, non-negative numbers with a zero
    diagonal: rates for simulate_advection_reference."""
    rows = []
    for lineno, row in table_rows(path, fields=n):
        diagonal = len(rows) + 1  # the column of this row's own station
        values = [parse_finite(text, path, lineno, f"column {j}")
                  for j, text in enumerate(row, start=1)]
        for j, value in enumerate(values, start=1):
            if value < 0:
                raise ParseError(f"{path}:{lineno}: negative column {j}")
            if value != 0 and j == diagonal:
                raise ParseError(f"{path}:{lineno}: non-zero diagonal column {j}")
        rows.append(values)
    if len(rows) != n:
        raise DataError(f"{path}: expected a {n}x{n} matrix, got {len(rows)} rows")
    return np.array(rows)


def cmd_plot(args) -> int:
    stations = load_stations(args.stations)
    ids = [s.station_id for s in stations]
    field = _read_station_csv(args.field, ids, ["value"])[:, 0]
    if args.type == "wind-heatmap":
        wind = _read_station_csv(args.wind, ids, ["u", "v"])
        render_wind_heatmap(stations, field, wind, args.out)
    else:
        graph = SensorGraph.from_stations(stations)
        render_diffusion_lines(graph, field, args.source, args.k, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="aircast",
                     description="physics-guided PM2.5 forecasting")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="raw CSVs to a processed dataset")
    p.add_argument("--stations", required=True)
    p.add_argument("--readings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-distance-km", type=_finite_float, default=None,
                   help="drop graph edges longer than this (default: none)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model on a processed dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sparse-split", action="store_true",
                   help="use the 3:1:6 split instead of 7:1:2")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="forecast the test partition")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--horizon", required=True, choices=sorted(HORIZON_STEPS))
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None,
                   help="also write aligned ground truth to this CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a forecast CSV against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--sudden-change", action="store_true")
    p.add_argument("--city", choices=list(CITY_LEVELS), default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="historical-average or VAR forecast")
    p.add_argument("--method", required=True, choices=["ha", "var"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    # the checkpoint carries its split
    split = p.add_mutually_exclusive_group()
    split.add_argument("--checkpoint", default=None,
                       help="align windows and split with this checkpoint")
    split.add_argument("--sparse-split", action="store_true",
                       help="use the 3:1:6 split instead of 7:1:2")
    p.add_argument("--truth-out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("simulate", help="run a reference physics simulator")
    p.add_argument("--mode", required=True, choices=["diffusion", "advection"])
    p.add_argument("--graph", required=True, help="stations CSV")
    p.add_argument("--x0", required=True, help="station_id,value CSV")
    p.add_argument("--t", required=True, type=_finite_float)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_finite_float, default=0.1,
                   help="diffusion coefficient (diffusion mode)")
    p.add_argument("--velocities", default=None,
                   help="headerless NxN edge-velocity CSV (advection mode)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="render an SVG figure")
    p.add_argument("--type", required=True,
                   choices=["wind-heatmap", "diffusion-lines"])
    p.add_argument("--stations", required=True)
    p.add_argument("--field", required=True, help="station_id,value CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--wind", default=None, help="station_id,u,v CSV")
    p.add_argument("--source", default=None, help="source station id")
    p.add_argument("--k", type=_finite_float, default=0.1)
    p.set_defaults(func=cmd_plot)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.error("a command is required")
        for flag, (option, value, needed) in MODE_FLAGS.items():
            mode = getattr(args, option, None)
            read = mode not in (None, False) if value is None else mode == value
            given = getattr(args, flag, None) not in (None, False)
            need = option if value is None else f"{option} {value}"
            if given and not read:
                parser.error(f"--{flag} requires --{need}".replace("_", "-"))
            if read and needed and not given:
                parser.error(f"--{need} requires --{flag}".replace("_", "-"))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (AircastError, OSError) as e:
        print(f"aircast: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
