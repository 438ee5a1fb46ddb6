"""Command-line tests: exit codes, config handling, and the full pipeline
from raw CSVs through training, forecasting, and evaluation."""

import csv
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import aircast
from aircast.autodiff import no_grad
from aircast.baselines import fit_var, ha_forecast, var_forecast
from aircast.cli import (SEED_ENV, _read_forecast_csv, _read_matrix_csv,
                         _read_station_csv, build_parser, cli_dispatch,
                         load_config)
from aircast.data import (NormStats, load_dataset, make_windows, parse_readings,
                          split_counts)
from aircast.errors import ConfigurationError, FormatError, ParseError
from aircast.graph import SensorGraph, load_stations
from aircast.metrics import CITY_LEVELS, SUDDEN_CHANGE_DELTA, mae, rmse
from aircast.model import (Model, ModelConfig, load_checkpoint, make_checkpoint,
                           model_from_checkpoint, save_checkpoint)
from aircast.odeint import SolverConfig
from aircast.physics import simulate_advection_reference, simulate_diffusion_reference

from conftest import rewrite_metadata

START = datetime(2017, 1, 1)
N_STATIONS = 4
HOURS = 192  # 64 three-hour blocks

CONFIG_INI = """\
[model]
history_steps = 8
horizon_steps = 8
latent_dim = 4
gru_hidden = 8
head_hidden = 6
cheb_order = 2
cheb_layers = 1
flownet_hidden = 4

[train]
batch_size = 16
learning_rate = 0.002
max_epochs = 2
patience = 2

[solver]
rtol = 1e-4
atol = 1e-4
"""


def write_stations(path, n=N_STATIONS):
    rows = ["station_id,latitude,longitude"]
    for i in range(n):
        rows.append(f"s{i},{39.5 + 0.3 * (i % 2)},{116.0 + 0.3 * (i // 2)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_readings(path, hours=HOURS, n=N_STATIONS):
    lines = ["timestamp,station_id,pm25,wind_speed,wind_direction"]
    for h in range(hours):
        ts = (START + timedelta(hours=h)).isoformat()
        block = h // 3
        for i in range(n):
            pm = 60.0 + 30.0 * np.sin(2 * np.pi * block / 8 + 0.7 * i) \
                + 0.5 * ((block * 7 + i) % 5)
            speed = 2.0 + (i % 2)
            direction = (45.0 * block + 90.0 * i) % 360.0
            lines.append(f"{ts},s{i},{pm:.3f},{speed},{direction}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run ingest -> train -> predict -> baselines once; tests share outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    stations = write_stations(root / "stations.csv")
    readings = write_readings(root / "readings.csv")
    config = root / "config.ini"
    config.write_text(CONFIG_INI, encoding="utf-8")
    data = root / "data.npz"
    assert cli_dispatch(["ingest", "--stations", str(stations),
                         "--readings", str(readings), "--out", str(data)]) == 0
    out_dir = root / "run"
    assert cli_dispatch(["train", "--config", str(config), "--data", str(data),
                         "--out-dir", str(out_dir)]) == 0
    ckpt = out_dir / "checkpoint.npz"
    pred = root / "pred.csv"
    truth = root / "truth.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(data), "--horizon", "24h", "--out", str(pred),
                         "--truth-out", str(truth)]) == 0
    ha = root / "ha.csv"
    assert cli_dispatch(["baseline", "--method", "ha", "--data", str(data),
                         "--checkpoint", str(ckpt), "--out", str(ha)]) == 0
    var = root / "var.csv"
    assert cli_dispatch(["baseline", "--method", "var", "--data", str(data),
                         "--checkpoint", str(ckpt), "--out", str(var)]) == 0
    return {"root": root, "stations": stations, "readings": readings,
            "config": config, "data": data, "ckpt": ckpt, "pred": pred,
            "truth": truth, "ha": ha, "var": var,
            "log": out_dir / "training_log.csv"}


def test_cli_import_leaves_out_urllib():
    # a cold `aircast` process pays for every import: xml.sax.saxutils, once
    # used for SVG escaping, pulled in urllib.request
    src = str(Path(aircast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, aircast.cli; print('urllib.request' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def test_ingest_output(pipeline):
    ds = load_dataset(pipeline["data"])
    assert ds.series.pm25.shape == (HOURS // 3, N_STATIONS)
    assert ds.series.start == START
    assert ds.max_distance_km is None


def test_ingest_logs_what_it_did(tmp_path, capsys, caplog):
    stations = write_stations(tmp_path / "stations.csv")
    readings = tmp_path / "readings.csv"
    lines = write_readings(readings, hours=6).read_text().splitlines()
    # one blank pm25 and one dropped row: two pm25 cells, one wind cell each
    fields = lines[1].split(",")
    fields[2] = ""
    lines[1] = ",".join(fields)
    readings.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    out = tmp_path / "d.npz"
    with caplog.at_level("INFO", logger="aircast.data"):
        assert cli_dispatch(["ingest", "--stations", str(stations),
                             "--readings", str(readings), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: 2 three-hour steps, 4 stations\n"
    assert caplog.messages == [
        "parsed 23 readings onto 6 hours x 4 stations",
        "imputed 2 of 24 hourly pm25 cells",
        "imputed 1 of 24 hourly wind_speed cells",
        "imputed 1 of 24 hourly wind_direction cells",
    ]


def test_train_artifacts(pipeline):
    header, rows = read_csv_rows(pipeline["log"])
    assert header == ["epoch", "lr", "train_mae", "val_mae", "grad_norm",
                      "diffusion_coeff"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(float(r[3]) > 0 for r in rows)
    assert pipeline["ckpt"].exists()


def test_predict_output_alignment(pipeline):
    header, rows = read_csv_rows(pipeline["pred"])
    assert header == ["timestamp", "station_id", "pm25_pred"]
    steps = HOURS // 3
    n_windows = steps - 16 + 1
    n_train, n_val, n_test = split_counts(n_windows, (7, 1, 2))
    origins = -(-n_test // 8)  # every 8th test window
    assert len(rows) == origins * 8 * N_STATIONS
    first_origin_start = n_train + n_val
    expected_first = START + timedelta(hours=3 * (first_origin_start + 8))
    assert rows[0][0] == expected_first.isoformat()
    assert rows[0][1] == "s0"
    for _, _, value in rows:
        assert np.isfinite(float(value))


def test_predict_matches_per_origin_forecast(pipeline):
    # the one batched solve over all origins gives each origin's own forecast
    ckpt = load_checkpoint(pipeline["ckpt"])
    ds = load_dataset(pipeline["data"])
    graph = SensorGraph.from_stations(list(ds.stations), ds.max_distance_km)
    model = model_from_checkpoint(ckpt, graph)
    cfg = ckpt.config
    windows = make_windows(ds.series, cfg.history_steps, cfg.horizon_steps)
    n_train, n_val, _ = split_counts(len(windows), ckpt.split_ratio)
    origins = windows[n_train + n_val::cfg.horizon_steps]
    assert len(origins) >= 2
    expected = [model.forecast(
        [replace(w, x_hist=model.stats.normalize(w.x_hist))])[:, :, 0].ravel()
        for w in origins]
    _, rows = read_csv_rows(pipeline["pred"])
    np.testing.assert_allclose([float(r[2]) for r in rows],
                               np.concatenate(expected), rtol=1e-12, atol=0)


SOLVER_LOG = re.compile(r"dopri5: (\d+) systems, (\d+) accepted and "
                        r"(\d+) rejected steps, (\d+) RHS calls")


def test_predict_logs_solver_statistics(pipeline, tmp_path, capsys, caplog):
    out = tmp_path / "pred.csv"
    with caplog.at_level("INFO", logger="aircast.odeint"):
        assert cli_dispatch(["predict", "--checkpoint", str(pipeline["ckpt"]),
                             "--data", str(pipeline["data"]), "--horizon",
                             "24h", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out)
    origins = len(rows) // (8 * N_STATIONS)
    assert capsys.readouterr().out == (
        f"wrote {out}: {len(rows)} rows from {origins} forecast origins at "
        f"horizon 24h\n")
    (message,) = caplog.messages
    systems, accepted, rejected, calls = map(
        int, SOLVER_LOG.fullmatch(message).groups())
    assert systems == origins
    assert accepted >= origins
    # one call per stage of each attempt of the slowest origin, 6 after the
    # first since the last stage of a step is the first of the next
    assert calls % 6 == 1 and 6 * (accepted + rejected) + 1 >= calls


def test_predict_24h_matches_first_steps_of_72h(pipeline, tmp_path, caplog):
    # 24h solves 8 steps, not the checkpoint's 24, and agrees with the first
    # 8 steps of the 72h forecast to within the solver tolerance
    ds = load_dataset(pipeline["data"])
    graph = SensorGraph.from_stations(list(ds.stations), ds.max_distance_km)
    cfg = ModelConfig(history_steps=8, horizon_steps=24, latent_dim=4,
                      gru_hidden=8, head_hidden=6, flownet_hidden=4, seed=3)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(make_checkpoint(Model(graph, cfg, NormStats(60.0, 25.0)),
                                    (7, 1, 2)), ckpt)
    rows, calls = {}, {}
    for horizon in ("24h", "72h"):
        out = tmp_path / f"{horizon}.csv"
        caplog.clear()
        with caplog.at_level("INFO", logger="aircast.odeint"):
            assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                                 str(pipeline["data"]), "--horizon", horizon,
                                 "--out", str(out)]) == 0
        rows[horizon] = read_csv_rows(out)[1]
        (message,) = caplog.messages
        calls[horizon] = int(SOLVER_LOG.fullmatch(message).group(4))
    origins = len(rows["72h"]) // (24 * N_STATIONS)
    assert origins >= 1
    assert len(rows["24h"]) == origins * 8 * N_STATIONS
    # rows run origin by origin, step by step, station by station
    first = [r for i, r in enumerate(rows["72h"]) if i // N_STATIONS % 24 < 8]
    assert [r[:2] for r in first] == [r[:2] for r in rows["24h"]]
    np.testing.assert_allclose([float(r[2]) for r in rows["24h"]],
                               [float(r[2]) for r in first], rtol=0, atol=1e-3)
    assert calls["24h"] < calls["72h"]


def test_truth_matches_readings(pipeline):
    _, rows = read_csv_rows(pipeline["truth"])
    ds = load_dataset(pipeline["data"])
    by_key = {(r[0], r[1]): float(r[2]) for r in rows}
    ts, sid = min(by_key)
    when = datetime.fromisoformat(ts)
    step = int((when - START).total_seconds() // (3600 * 3))
    col = ds.series.station_ids.index(sid)
    assert by_key[(ts, sid)] == pytest.approx(ds.series.pm25[step, col],
                                              abs=1e-9)


def test_baseline_outputs(pipeline):
    for key in ("ha", "var"):
        header, rows = read_csv_rows(pipeline[key])
        assert header == ["timestamp", "station_id", "pm25_pred"]
        assert rows
        values = [float(r[2]) for r in rows]
        assert np.isfinite(values).all()
    # baselines cover the same keys as the model forecast
    _, model_rows = read_csv_rows(pipeline["pred"])
    _, ha_rows = read_csv_rows(pipeline["ha"])
    assert {(r[0], r[1]) for r in ha_rows} == {(r[0], r[1]) for r in model_rows}


def test_baseline_sparse_split_scores_the_3_1_6_origins(pipeline, tmp_path,
                                                        capsys):
    ds = load_dataset(pipeline["data"])
    cfg = ModelConfig()  # without --checkpoint, the default window shape
    history, horizon = cfg.history_steps, cfg.horizon_steps
    windows = make_windows(ds.series, history, horizon)
    keys = {}
    for flags, ratio in (([], (7, 1, 2)), (["--sparse-split"], (3, 1, 6))):
        # VAR, as 3:1:6 leaves too little history for HA's four days
        out = tmp_path / f"var{len(flags)}.csv"
        assert cli_dispatch(["baseline", "--method", "var", "--data",
                             str(pipeline["data"]), "--out", str(out),
                             *flags]) == 0
        n_train, n_val, _ = split_counts(len(windows), ratio)
        expected = []
        for w in windows[n_train + n_val::horizon]:
            start = w.start_index + history
            var = fit_var(ds.series.pm25[:start])
            values = var_forecast(var, ds.series.pm25[start - var.lags:start],
                                  horizon)
            for step in range(horizon):
                ts = w.start_time + (history + step) * timedelta(hours=3)
                expected.extend((ts.isoformat(), sid, values[step, i])
                                for i, sid in enumerate(ds.series.station_ids))
        _, rows = read_csv_rows(out)
        assert [(r[0], r[1], float(r[2])) for r in rows] == expected
        keys[ratio] = {(r[0], r[1]) for r in rows}
    assert keys[(7, 1, 2)] != keys[(3, 1, 6)]
    capsys.readouterr()


def test_baseline_sparse_split_with_checkpoint_is_usage_error(pipeline,
                                                              tmp_path, capsys):
    # the checkpoint carries the split its model was trained on
    out = tmp_path / "ha.csv"
    assert cli_dispatch(["baseline", "--method", "ha", "--data",
                         str(pipeline["data"]), "--checkpoint",
                         str(pipeline["ckpt"]), "--sparse-split", "--out",
                         str(out)]) == 1
    assert ("argument --sparse-split: not allowed with argument --checkpoint"
            in capsys.readouterr().err)
    assert not out.exists()


QUIRKY_IDS = ["s 0", "a,b", 'say "hi"', "in  ner"]


def _old_forecast_csv(path, column, origins, ids, values, history, horizon):
    """The row layout and writer predict and baseline used to have: one
    csv.writer row per (origin, step, station) with repr of the value."""
    rows = []
    for w, v in zip(origins, values):
        for step in range(horizon):
            ts = w.start_time + timedelta(hours=3 * (history + step))
            for j, sid in enumerate(ids):
                rows.append([ts.isoformat(), sid, repr(float(v[step, j]))])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "station_id", column])
        writer.writerows(rows)
    return path.read_bytes()


def test_forecast_csvs_are_byte_equal_to_csv_writer(tmp_path, capsys):
    # station ids that csv.writer must quote, with inner spaces kept
    stations = tmp_path / "stations.csv"
    readings = tmp_path / "readings.csv"
    with open(stations, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "latitude", "longitude"])
        for i, sid in enumerate(QUIRKY_IDS):
            writer.writerow([sid, 39.5 + 0.3 * (i % 2), 116.0 + 0.3 * (i // 2)])
    rng = np.random.default_rng(4)
    with open(readings, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "station_id", "pm25", "wind_speed",
                         "wind_direction"])
        for h in range(3 * 150):
            ts = (START + timedelta(hours=h)).isoformat()
            for i, sid in enumerate(QUIRKY_IDS):
                writer.writerow([ts, sid, 60 + 30 * np.sin(h / 9 + i)
                                 + rng.random(), 2 + rng.random(),
                                 360 * rng.random()])
    data = tmp_path / "data.npz"
    assert cli_dispatch(["ingest", "--stations", str(stations), "--readings",
                         str(readings), "--out", str(data)]) == 0
    ds = load_dataset(data)
    assert list(ds.series.station_ids) == QUIRKY_IDS
    graph = SensorGraph.from_stations(list(ds.stations), ds.max_distance_km)
    cfg = ModelConfig(history_steps=8, horizon_steps=24, latent_dim=4,
                      gru_hidden=8, head_hidden=6, flownet_hidden=4, seed=5)
    ckpt = tmp_path / "ckpt.npz"
    model = Model(graph, cfg, NormStats(60.0, 25.0))
    save_checkpoint(make_checkpoint(model, (7, 1, 2)), ckpt)
    windows = make_windows(ds.series, 8, 24)
    n_train, n_val, _ = split_counts(len(windows), (7, 1, 2))
    origins = windows[n_train + n_val::24]
    assert len(origins) >= 2
    samples = [replace(w, x_hist=model.stats.normalize(w.x_hist))
               for w in origins]
    for label, horizon in (("24h", 8), ("72h", 24)):
        out, truth = tmp_path / f"{label}.csv", tmp_path / f"{label}_truth.csv"
        assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                             str(data), "--horizon", label, "--out", str(out),
                             "--truth-out", str(truth)]) == 0
        with no_grad():
            pred = model.forward_batch(samples, "infer", horizon_steps=horizon)
        forecasts = model.stats.denormalize(pred.data[:, :, 0])
        n = len(QUIRKY_IDS)
        values = [forecasts[:, i * n:(i + 1) * n] for i in range(len(origins))]
        assert out.read_bytes() == _old_forecast_csv(
            tmp_path / "oracle.csv", "pm25_pred", origins, QUIRKY_IDS, values,
            8, horizon)
        assert truth.read_bytes() == _old_forecast_csv(
            tmp_path / "oracle.csv", "pm25", origins, QUIRKY_IDS,
            [w.x_future[:, :, 0] for w in origins], 8, horizon)
    series = ds.series.pm25
    for method in ("ha", "var"):
        out, truth = tmp_path / f"{method}.csv", tmp_path / f"{method}_t.csv"
        assert cli_dispatch(["baseline", "--method", method, "--data", str(data),
                             "--checkpoint", str(ckpt), "--out", str(out),
                             "--truth-out", str(truth)]) == 0
        values = []
        for w in origins:
            start = w.start_index + 8
            if method == "ha":
                values.append(ha_forecast(series, range(start, start + 24)))
            else:
                var = fit_var(series[:start], lags=3)
                values.append(var_forecast(var, series[start - 3:start], 24))
        assert out.read_bytes() == _old_forecast_csv(
            tmp_path / "oracle.csv", "pm25_pred", origins, QUIRKY_IDS, values,
            8, 24)
        assert truth.read_bytes() == _old_forecast_csv(
            tmp_path / "oracle.csv", "pm25", origins, QUIRKY_IDS,
            [w.x_future[:, :, 0] for w in origins], 8, 24)
    capsys.readouterr()


def test_simulate_csv_is_byte_equal_to_csv_writer(tmp_path, capsys):
    # station ids that csv.writer must quote, in both simulator modes
    stations, x0_path = tmp_path / "stations.csv", tmp_path / "x0.csv"
    x0 = np.array([10.0, 40.5, 7.25, 22.0])
    with open(stations, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "latitude", "longitude"])
        for i, sid in enumerate(QUIRKY_IDS):
            writer.writerow([sid, 39.5 + 0.3 * (i % 2), 116.0 + 0.3 * (i // 2)])
    with open(x0_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "value"])
        writer.writerows(zip(QUIRKY_IDS, x0.tolist()))
    weights = SensorGraph.from_stations(load_stations(stations)).weights
    finals = {"diffusion": simulate_diffusion_reference(weights, x0, 0.1, 2.0),
              "advection": simulate_advection_reference(weights, x0, 2.0)}
    for mode, final in finals.items():
        out, oracle = tmp_path / f"{mode}.csv", tmp_path / "oracle.csv"
        assert cli_dispatch(["simulate", mode, "--graph", str(stations),
                             "--x0", str(x0_path), "--t", "2", "--out",
                             str(out)]) == 0
        with open(oracle, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["station_id", "value"])
            writer.writerows([sid, repr(float(v))]
                             for sid, v in zip(QUIRKY_IDS, final))
        assert out.read_bytes() == oracle.read_bytes(), mode
    capsys.readouterr()


def test_evaluate_model_output(pipeline, capsys):
    assert cli_dispatch(["evaluate", "--pred", str(pipeline["pred"]),
                         "--truth", str(pipeline["truth"])]) == 0
    out = capsys.readouterr().out
    m = re.match(r"mae=([\d.e+-]+) rmse=([\d.e+-]+) points=(\d+)", out)
    assert m, out
    assert float(m.group(2)) >= float(m.group(1))
    assert int(m.group(3)) == 64


def test_evaluate_truth_against_itself(pipeline, capsys):
    assert cli_dispatch(["evaluate", "--pred", str(pipeline["truth"]),
                         "--truth", str(pipeline["truth"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mae=0.0 rmse=0.0 ")


def test_simulate_conserves_printed_mass(pipeline, tmp_path, capsys):
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,100\ns1,0\ns2,0\ns3,0\n",
                  encoding="utf-8")
    out = tmp_path / "final.csv"
    assert cli_dispatch(["simulate", "diffusion", "--graph",
                         str(pipeline["stations"]), "--x0", str(x0),
                         "--t", "5.0", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    m = re.search(r"mass ([\d.e+-]+) -> ([\d.e+-]+)", text)
    assert m
    assert abs(float(m.group(1)) - float(m.group(2))) < 1e-8
    _, rows = read_csv_rows(out)
    total = sum(float(r[1]) for r in rows)
    assert total == pytest.approx(100.0, abs=1e-8)
    assert max(float(r[1]) for r in rows) < 100.0  # mass actually moved


def test_simulate_advection_with_velocity_file(pipeline, tmp_path):
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,40\ns1,30\ns2,20\ns3,10\n",
                  encoding="utf-8")
    vel = tmp_path / "vel.csv"
    v = np.zeros((4, 4))
    v[0, 1] = 0.5
    v[2, 3] = 0.25
    np.savetxt(vel, v, delimiter=",")
    out = tmp_path / "adv.csv"
    assert cli_dispatch(["simulate", "advection", "--graph",
                         str(pipeline["stations"]), "--x0", str(x0),
                         "--t", "2.0", "--velocities", str(vel),
                         "--out", str(out)]) == 0
    _, rows = read_csv_rows(out)
    assert sum(float(r[1]) for r in rows) == pytest.approx(100.0, abs=1e-8)


def test_simulate_incomplete_field_exits_2(pipeline, tmp_path, capsys):
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,100\n", encoding="utf-8")
    code = cli_dispatch(["simulate", "diffusion", "--graph",
                         str(pipeline["stations"]), "--x0", str(x0),
                         "--t", "1.0", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_plot_commands(pipeline, tmp_path, capsys):
    field = tmp_path / "field.csv"
    field.write_text("station_id,value\ns0,80\ns1,45\ns2,60\ns3,110\n",
                     encoding="utf-8")
    wind = tmp_path / "wind.csv"
    wind.write_text("station_id,u,v\ns0,1,0\ns1,0,-2\ns2,1.5,1.5\ns3,0,0\n",
                    encoding="utf-8")
    heat = tmp_path / "heat.svg"
    assert cli_dispatch(["plot", "wind-heatmap", "--stations",
                         str(pipeline["stations"]), "--field", str(field),
                         "--wind", str(wind), "--out", str(heat)]) == 0
    ET.fromstring(heat.read_text(encoding="utf-8"))
    lines = tmp_path / "lines.svg"
    assert cli_dispatch(["plot", "diffusion-lines", "--stations",
                         str(pipeline["stations"]), "--field", str(field),
                         "--source", "s0", "--out", str(lines)]) == 0
    ET.fromstring(lines.read_text(encoding="utf-8"))
    capsys.readouterr()


def test_ingest_overflowing_mean_exits_2_without_output(tmp_path, capsys):
    stations = write_stations(tmp_path / "stations.csv")
    readings = tmp_path / "readings.csv"
    text = write_readings(readings, hours=6).read_text(encoding="utf-8")
    readings.write_text(re.sub(r"(,s1,)[^,]*", r"\g<1>1e308", text),
                        encoding="utf-8")
    out = tmp_path / "d.npz"
    assert cli_dispatch(["ingest", "--stations", str(stations),
                         "--readings", str(readings), "--out", str(out)]) == 2
    assert "station 's1': a 3-hour mean of pm25 is not finite" \
        in capsys.readouterr().err
    assert not out.exists()


def test_train_on_readings_whose_std_overflows_exits_2_without_output(
        tmp_path, capsys):
    # readings near 1e200 average to finite 3-hour means, but their squares
    # overflow, so the train windows have no finite std; pyproject turns a
    # RuntimeWarning into an error, so none is raised on the way
    stations = write_stations(tmp_path / "stations.csv")
    readings = tmp_path / "readings.csv"
    text = write_readings(readings).read_text(encoding="utf-8")
    readings.write_text(re.sub(r"(,s\d+,[^,]*)", r"\g<1>e198", text),
                        encoding="utf-8")
    data = tmp_path / "data.npz"
    assert cli_dispatch(["ingest", "--stations", str(stations),
                         "--readings", str(readings), "--out", str(data)]) == 0
    assert load_dataset(data).series.pm25.min() > 1e199
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_INI, encoding="utf-8")
    out_dir = tmp_path / "run"
    assert cli_dispatch(["train", "--config", str(config), "--data", str(data),
                         "--out-dir", str(out_dir)]) == 2
    assert "aircast: error: normalization std must be positive and finite, " \
        "got inf" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("value, code, message", [
    ("1000", 0, "trained 2 epoch(s)"),
    ("1e300", 2, "aircast: error: non-finite state in interval 1"),
])
def test_train_with_huge_diffusion_coeff_init_runs_or_fails_typed(
        pipeline, tmp_path, capsys, value, code, message):
    # its inverse softplus no longer overflows; a coefficient that blows up
    # the state is the solver's NumericError, not a numpy warning
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_INI.replace(
        "[model]\n", f"[model]\ndiffusion_coeff_init = {value}\n"),
        encoding="utf-8")
    assert cli_dispatch(["train", "--config", str(config), "--data",
                         str(pipeline["data"]), "--out-dir",
                         str(tmp_path / "run")]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)


def test_train_failing_in_its_first_epoch_writes_no_log(pipeline, tmp_path,
                                                        capsys):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_INI.replace(
        "[model]\n", "[model]\ndiffusion_coeff_init = 1e300\n"),
        encoding="utf-8")
    out_dir = tmp_path / "run"
    assert cli_dispatch(["train", "--config", str(config), "--data",
                         str(pipeline["data"]), "--out-dir",
                         str(out_dir)]) == 2
    assert "non-finite state in interval 1" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("column, value", [
    ("pm25", "-40"), ("wind_speed", "-5"), ("wind_direction", "-720"),
    ("wind_direction", "1e308"),
])
def test_ingest_reading_no_instrument_gives_exits_2_without_output(
        tmp_path, capsys, column, value):
    stations = write_stations(tmp_path / "stations.csv")
    readings = write_readings(tmp_path / "readings.csv", hours=6)
    lines = readings.read_text(encoding="utf-8").splitlines()
    fields = lines[4].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[4] = ",".join(fields)
    readings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "d.npz"
    assert cli_dispatch(["ingest", "--stations", str(stations),
                         "--readings", str(readings), "--out", str(out)]) == 2
    assert f"readings.csv:5: {column} {float(value)!r} outside" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, flags", [
    ("wind-heatmap", ["--wind", "{wind}"]),
    ("diffusion-lines", ["--source", "s0"]),
])
def test_plot_station_at_a_pole_exits_2_without_output(tmp_path, capsys,
                                                       mode, flags):
    stations = tmp_path / "stations.csv"
    stations.write_text("station_id,latitude,longitude\ns0,-90,116.4\n"
                        "s1,40.0,116.5\n", encoding="utf-8")
    field = tmp_path / "field.csv"
    field.write_text("station_id,value\ns0,10\ns1,20\n", encoding="utf-8")
    wind = tmp_path / "wind.csv"
    wind.write_text("station_id,u,v\ns0,1.5,-0.5\ns1,0.5,2\n",
                    encoding="utf-8")
    out = tmp_path / "map.svg"
    argv = ["plot", mode, "--stations", str(stations), "--field", str(field),
            *(f.format(wind=wind) for f in flags), "--out", str(out)]
    assert cli_dispatch(argv) == 2
    assert "station 's0' at latitude -90 is beyond" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_1(capsys):
    assert cli_dispatch([]) == 1
    assert cli_dispatch(["transmogrify"]) == 1
    assert cli_dispatch(["predict"]) == 1  # missing required flags
    assert cli_dispatch(["simulate"]) == 1  # no mode
    assert cli_dispatch(["evaluate", "--pred", "a", "--truth", "b",
                         "--sudden-change"]) == 1  # no city
    err = capsys.readouterr().err
    assert "error" in err


# each mode's command line, which runs as it is on _mode_inputs' files
MODE_ARGV = {
    "simulate diffusion": "simulate diffusion --graph {stations} --x0 {field} "
                          "--t 1 --k 0.2 --out {out}",
    "simulate advection": "simulate advection --graph {stations} --x0 {field} "
                          "--t 1 --velocities {velocities} --out {out}",
    "plot wind-heatmap": "plot wind-heatmap --stations {stations} --field "
                         "{field} --wind {wind} --out {out}",
    "plot diffusion-lines": "plot diffusion-lines --stations {stations} "
                            "--field {field} --source s0 --k 0.2 --out {out}",
    "evaluate": "evaluate --pred {pred} --truth {truth} --sudden-change beijing",
}


def _mode_inputs(tmp_path) -> dict:
    """Paths of the files MODE_ARGV names, written for 4 stations."""
    field = tmp_path / "field.csv"
    field.write_text("station_id,value\ns0,80\ns1,45\ns2,60\ns3,110\n",
                     encoding="utf-8")
    wind = tmp_path / "wind.csv"
    wind.write_text("station_id,u,v\ns0,1,0\ns1,0,-2\ns2,1.5,1.5\ns3,0,0\n",
                    encoding="utf-8")
    velocities = tmp_path / "velocities.csv"
    velocities.write_text("0,1,0,0\n0,0,1,0\n0,0,0,1\n1,0,0,0\n",
                          encoding="utf-8")
    pred, truth = write_eval_pair(tmp_path)
    return {"stations": write_stations(tmp_path / "stations.csv"),
            "field": field, "wind": wind, "velocities": velocities,
            "pred": pred, "truth": truth, "out": tmp_path / "out"}


@pytest.mark.parametrize("mode, flag, value", [
    ("simulate advection", "--k", "5"),
    ("plot wind-heatmap", "--k", "7"),
    ("simulate diffusion", "--velocities", "{velocities}"),
    ("plot diffusion-lines", "--wind", "{wind}"),
    ("plot wind-heatmap", "--source", "s0"),
    ("evaluate", "--city", "beijing"),
    # no value: a flag the mode needs, left out
    ("plot wind-heatmap", "--wind", None),
    ("plot diffusion-lines", "--source", None),
    ("simulate advection", "--t", None),
], ids=["advection-k", "wind-heatmap-k", "velocities", "wind", "source",
        "city", "no-wind", "no-source", "no-t"])
def test_flag_its_mode_never_reads_is_usage_error(tmp_path, capsys, mode, flag,
                                                  value):
    # the line runs as it is, so the flag alone makes the usage error
    paths = _mode_inputs(tmp_path)
    argv = [arg.format(**paths) for arg in MODE_ARGV[mode].split()]
    assert cli_dispatch(argv) == 0
    capsys.readouterr()
    paths["out"].unlink(missing_ok=True)
    if value is None:
        at = argv.index(flag)
        del argv[at:at + 2]
    else:
        argv += [flag, value.format(**paths)]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert not paths["out"].exists()


@pytest.mark.parametrize("mode, files, extra, message", [
    ("simulate diffusion", {}, ["--k", "1e308"],
     "non-finite state in the step from t=0 in sample 0"),
    ("plot diffusion-lines",
     {"field": "station_id,value\ns0,1e308\ns1,-1e308\ns2,0\ns3,0\n"}, [],
     "diffusive flux from 's0' to 's1' is not finite"),
    ("plot wind-heatmap",
     {"wind": "station_id,u,v\ns0,0,0\ns1,1e308,0\ns2,1,1\ns3,0,0\n"}, [],
     "wind at station 's1' is too strong to draw: speed 1e+308"),
], ids=["simulate", "diffusion-lines", "wind-heatmap"])
def test_overflowing_inputs_exit_2_without_output(tmp_path, capsys, mode,
                                                  files, extra, message):
    # finite inputs whose results overflow: a typed error before any file is
    # written, not a numpy warning, which pytest turns into an error
    paths = _mode_inputs(tmp_path)
    for name, text in files.items():
        paths[name].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in MODE_ARGV[mode].split()] + extra
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err == f"aircast: error: {message}\n"
    assert not paths["out"].exists()


def test_data_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert cli_dispatch(["ingest", "--stations", str(missing), "--readings",
                         str(missing), "--out", str(tmp_path / "d.npz")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
    assert cli_dispatch(["ingest", "--stations", str(bad), "--readings",
                         str(bad), "--out", str(tmp_path / "d.npz")]) == 2
    capsys.readouterr()


def test_evaluate_disjoint_files_exit_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("timestamp,station_id,pm25_pred\n"
                 "2017-01-01T00:00:00,x,1.0\n", encoding="utf-8")
    b.write_text("timestamp,station_id,pm25\n"
                 "2017-02-01T00:00:00,y,1.0\n", encoding="utf-8")
    assert cli_dispatch(["evaluate", "--pred", str(a), "--truth", str(b)]) == 2
    assert "share no" in capsys.readouterr().err


def test_evaluate_rejects_non_finite_value(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("timestamp,station_id,pm25_pred\n"
                    "2017-01-01T00:00:00,a,1.0\n"
                    "2017-01-01T03:00:00,a,nan\n", encoding="utf-8")
    assert cli_dispatch(["evaluate", "--pred", str(pred), "--truth",
                         str(pred)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{pred}:3: non-finite pm25_pred" in captured.err


def test_simulate_rejects_non_finite_field(tmp_path, capsys):
    stations = write_stations(tmp_path / "stations.csv")
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,100\ns1,0\ns2,inf\ns3,0\n",
                  encoding="utf-8")
    assert cli_dispatch(["simulate", "diffusion", "--graph",
                         str(stations), "--x0", str(x0), "--t", "1.0",
                         "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{x0}:4: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_simulate_rejects_non_finite_velocity(tmp_path, capsys, bad):
    stations = write_stations(tmp_path / "stations.csv", n=3)
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,10\ns1,20\ns2,30\n", encoding="utf-8")
    vel = tmp_path / "vel.csv"
    vel.write_text(f"0,0.5,0\n0,0,{bad}\n0,0,0\n", encoding="utf-8")
    assert cli_dispatch(["simulate", "advection", "--graph",
                         str(stations), "--x0", str(x0), "--t", "1.0",
                         "--velocities", str(vel),
                         "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{vel}:2: non-finite column 3" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("0,0.5,0\n\n0,0,-1\n0,0,0\n", "3: negative column 3"),
    ("0,0.5,0\n\n0,2,0\n0,0,0\n", "3: non-zero diagonal column 2"),
], ids=["negative", "diagonal"])
def test_simulate_velocity_errors_name_line_and_column(tmp_path, capsys, text,
                                                      message):
    stations = write_stations(tmp_path / "stations.csv", n=3)
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,10\ns1,20\ns2,30\n", encoding="utf-8")
    vel = tmp_path / "vel.csv"
    vel.write_text(text, encoding="utf-8")  # line 2 is blank: row 2 is line 3
    assert cli_dispatch(["simulate", "advection", "--graph",
                         str(stations), "--x0", str(x0), "--t", "1.0",
                         "--velocities", str(vel),
                         "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"aircast: error: {vel}:{message}\n"
    assert not (tmp_path / "o.csv").exists()


def test_simulate_rejects_ragged_velocity_rows(tmp_path, capsys):
    stations = write_stations(tmp_path / "stations.csv", n=3)
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,10\ns1,20\ns2,30\n", encoding="utf-8")
    vel = tmp_path / "vel.csv"
    vel.write_text("0,0.5,0\n\n0,0\n0,0,0\n", encoding="utf-8")
    assert cli_dispatch(["simulate", "advection", "--graph",
                         str(stations), "--x0", str(x0), "--t", "1.0",
                         "--velocities", str(vel),
                         "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{vel}:3: expected 3 fields, got 2" in capsys.readouterr().err


def test_plot_rejects_non_finite_wind(tmp_path, capsys):
    stations = write_stations(tmp_path / "stations.csv")
    field = tmp_path / "field.csv"
    field.write_text("station_id,value\ns0,80\ns1,45\ns2,60\ns3,110\n",
                     encoding="utf-8")
    wind = tmp_path / "wind.csv"
    wind.write_text("station_id,u,v\ns0,1,0\ns1,0,1e400\ns2,1,1\ns3,0,0\n",
                    encoding="utf-8")
    assert cli_dispatch(["plot", "wind-heatmap", "--stations",
                         str(stations), "--field", str(field), "--wind",
                         str(wind), "--out", str(tmp_path / "x.svg")]) == 2
    assert f"{wind}:3: non-finite v" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
def test_non_finite_float_flags_are_usage_errors(tmp_path, capsys, bad):
    stations = write_stations(tmp_path / "stations.csv")
    field = tmp_path / "field.csv"
    field.write_text("station_id,value\ns0,80\ns1,45\ns2,60\ns3,110\n",
                     encoding="utf-8")
    readings = write_readings(tmp_path / "readings.csv", hours=6)
    out = tmp_path / "out"
    plot = ["plot", "diffusion-lines", "--stations", str(stations),
            "--field", str(field), "--source", "s0", "--out", str(out)]
    simulate = ["simulate", "diffusion", "--graph", str(stations),
                "--x0", str(field), "--out", str(out)]
    ingest = ["ingest", "--stations", str(stations), "--readings",
              str(readings), "--out", str(out)]
    for argv, flag in ((plot, "--k"), (simulate + ["--t", "1"], "--k"),
                       (simulate, "--t"), (ingest, "--max-distance-km")):
        assert cli_dispatch(argv + [flag, bad]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: {bad!r} is not a finite number" in err
        assert not out.exists()


@pytest.mark.parametrize("cutoff", ["0", "-5"])
def test_ingest_rejects_non_positive_cutoff(tmp_path, capsys, cutoff):
    stations = write_stations(tmp_path / "stations.csv")
    readings = write_readings(tmp_path / "readings.csv", hours=6)
    out = tmp_path / "d.npz"
    assert cli_dispatch(["ingest", "--stations", str(stations), "--readings",
                         str(readings), "--out", str(out),
                         f"--max-distance-km={cutoff}"]) == 2
    assert "max_distance_km must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# every CSV reader: (read, header or None for headerless, one good row)
TABLE_READERS = {
    "stations": (load_stations, "station_id,latitude,longitude",
                 "a,39.9,116.3"),
    "readings": (lambda path: parse_readings(path, ["a"]),
                 "timestamp,station_id,pm25,wind_speed,wind_direction",
                 "2017-01-01T00:00:00,a,1,2,3"),
    "station-values": (lambda path: _read_station_csv(path, ["a"], ["u", "v"]),
                       "station_id,u,v", "a,1,2"),
    "forecast": (_read_forecast_csv, "timestamp,station_id,pm25_pred",
                 "2017-01-01T00:00:00,a,1.0"),
    "velocities": (lambda path: _read_matrix_csv(path, 2), None, "0,1"),
}


@pytest.mark.parametrize("reader", TABLE_READERS)
def test_csv_readers_share_table_rules(tmp_path, reader):
    read, header, row = TABLE_READERS[reader]
    path = tmp_path / "table.csv"
    width = row.count(",") + 1
    lines = [row, "", row.rsplit(",", 1)[0]]  # a blank line, then a short row
    if header is not None:
        path.write_text(header.upper() + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: "
                                             "expected header "):
            read(path)
        lines.insert(0, header.replace(",", " , "))  # names are stripped
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == (f"{path}:{len(lines)}: expected {width} "
                               f"fields, got {width - 1}")


def _corrupt_line_3(lines, column, fault) -> bytes:
    """The CSV lines as UTF-8 bytes, with field ``column`` of line 3 made
    non-UTF-8 (a 0xff byte) or over csv's field size limit."""
    data = [line.encode("utf-8") for line in lines]
    fields = data[2].split(b",")
    fields[column] = (fields[column] + b"\xff" if fault == "not-utf8"
                      else b"9" * 200_000)
    data[2] = b",".join(fields)
    return b"\n".join(data) + b"\n"


@pytest.mark.parametrize("fault", ["not-utf8", "long-field"])
@pytest.mark.parametrize("command", ["ingest", "simulate", "evaluate"])
def test_undecodable_or_overlong_csv_exits_2(tmp_path, capsys, command, fault):
    stations = write_stations(tmp_path / "stations.csv")
    out = tmp_path / "out.csv"
    bad = tmp_path / "bad.csv"
    if command == "ingest":
        lines = write_readings(tmp_path / "r.csv").read_text("utf-8").splitlines()
        bad.write_bytes(_corrupt_line_3(lines, 2, fault))
        argv = ["ingest", "--stations", str(stations), "--readings", str(bad)]
    elif command == "simulate":
        lines = ["station_id,value"] + [f"s{i},{i}.5" for i in range(N_STATIONS)]
        bad.write_bytes(_corrupt_line_3(lines, 1, fault))
        argv = ["simulate", "diffusion", "--graph", str(stations),
                "--x0", str(bad), "--t", "1"]
    else:
        lines = ["timestamp,station_id,pm25_pred"] + [
            f"{START.isoformat()},s{i},{i}.5" for i in range(N_STATIONS)]
        good = tmp_path / "truth.csv"
        good.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bad.write_bytes(_corrupt_line_3(lines, 2, fault))
        argv = ["evaluate", "--pred", str(bad), "--truth", str(good)]
    if command != "evaluate":
        argv += ["--out", str(out)]
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    if fault == "not-utf8":
        assert f"aircast: error: {bad}: not UTF-8 text" in err
    else:
        assert f"aircast: error: {bad}:3: field larger than field limit" in err
    assert "Traceback" not in err
    assert not out.exists()


def write_eval_pair(tmp_path):
    times = [(START + timedelta(hours=3 * k)).isoformat() for k in range(4)]
    truth_vals = [55.0, 80.0, 85.0, 40.0]
    pred_vals = [50.0, 80.0, 75.0, 40.0]
    pred = tmp_path / "p.csv"
    truth = tmp_path / "t.csv"
    pred.write_text("timestamp,station_id,pm25_pred\n" + "".join(
        f"{ts},a,{v}\n" for ts, v in zip(times, pred_vals)), encoding="utf-8")
    truth.write_text("timestamp,station_id,pm25\n" + "".join(
        f"{ts},a,{v}\n" for ts, v in zip(times, truth_vals)), encoding="utf-8")
    return pred, truth


def test_evaluate_sudden_change_hand_case(tmp_path, capsys):
    pred, truth = write_eval_pair(tmp_path)
    assert cli_dispatch(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--sudden-change", "beijing"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("mae=3.75 ")
    assert "points=4" in out[0]
    # flagged: 55 -> 80 (jump 25) and 85 -> 40 (crash 45); errors 5 and 10
    assert out[1].startswith("sudden_change mae=7.5 ")
    assert "points=2" in out[1]


def test_evaluate_sudden_change_shenzhen_threshold(tmp_path, capsys):
    times = [(START + timedelta(hours=3 * k)).isoformat() for k in range(3)]
    truth = tmp_path / "t.csv"
    truth.write_text("timestamp,station_id,pm25\n" + "".join(
        f"{ts},a,{v}\n" for ts, v in zip(times, [30.0, 60.0, 58.0])),
        encoding="utf-8")
    # 30 exceeds the shenzhen level (20) but not beijing's (50)
    assert cli_dispatch(["evaluate", "--pred", str(truth), "--truth",
                         str(truth), "--sudden-change",
                         "shenzhen"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("sudden_change mae=0.0 ")
    assert "points=1" in lines[1]
    assert cli_dispatch(["evaluate", "--pred", str(truth), "--truth",
                         str(truth), "--sudden-change",
                         "beijing"]) == 2
    assert "no sudden-change points" in capsys.readouterr().err


def sudden_change_oracle(pred, truth, level):
    """evaluate's sudden-change line, computed station by station: a point
    is flagged when its truth exceeds the level and the station's next
    truth row, exactly three hours later, differs by more than
    SUDDEN_CHANGE_DELTA."""
    by_station = defaultdict(list)
    for (ts, sid), v in truth.items():
        by_station[sid].append((ts, v))
    flagged = set()
    for sid, seq in by_station.items():
        seq.sort()
        for (ts, v), (ts2, v2) in zip(seq, seq[1:]):
            if (ts2 - ts == timedelta(hours=3) and v > level
                    and abs(v2 - v) > SUDDEN_CHANGE_DELTA):
                flagged.add((ts, sid))
    keys = sorted(k for k in set(pred) & set(truth) if k in flagged)
    p = np.array([pred[k] for k in keys])
    t = np.array([truth[k] for k in keys])
    return f"sudden_change mae={mae(p, t)!r} rmse={rmse(p, t)!r} points={len(keys)}"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("city", ["beijing", "shenzhen"])
def test_evaluate_sudden_change_matches_per_station_oracle(tmp_path, capsys,
                                                           seed, city):
    rng = np.random.default_rng(seed)
    steps, stations = 40, [f"s{j}" for j in range(5)]
    level = rng.uniform(10.0, 90.0, (steps, len(stations)))
    truth = {(START + timedelta(hours=3 * k), sid): float(level[k, j])
             for k in range(steps) for j, sid in enumerate(stations)
             if rng.random() > 0.2}
    pred = {key: v + float(rng.normal(0.0, 8.0)) for key, v in truth.items()
            if rng.random() > 0.1}
    orphans = [k for k in truth if (k[0] + timedelta(hours=3), k[1]) not in truth]
    assert len(orphans) > 10  # many points have no 3 h successor
    paths = []
    for name, column, points in (("p.csv", "pm25_pred", pred),
                                 ("t.csv", "pm25", truth)):
        rows = [f"{ts.isoformat()},{sid},{v!r}\n" for (ts, sid), v in points.items()]
        rng.shuffle(rows)
        path = tmp_path / name
        path.write_text(f"timestamp,station_id,{column}\n" + "".join(rows),
                        encoding="utf-8")
        paths.append(str(path))
    assert cli_dispatch(["evaluate", "--pred", paths[0], "--truth", paths[1],
                         "--sudden-change", city]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = sudden_change_oracle(pred, truth, CITY_LEVELS[city])
    assert lines[1] == expected
    assert int(expected.rsplit("=", 1)[1]) > 10


def test_predict_on_incomplete_checkpoint_exits_2(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.npz"
    rewrite_metadata(pipeline["ckpt"], ckpt, lambda meta: {
        k: v for k, v in meta.items() if k != "norm_mean"})
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(pipeline["data"]), "--horizon", "24h", "--out",
                         str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: bad metadata field 'norm_mean': missing" in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda meta: {**meta, "norm_std": float("inf")},
     "normalization std must be positive and finite, got inf"),
    (lambda meta: {**meta, "norm_mean": float("nan")},
     "normalization mean must be finite, got nan"),
    (lambda meta: {**meta, "config": {**meta["config"],
                                      "diffusion_coeff_init": float("inf")}},
     "diffusion_coeff_init must be positive and finite, got inf"),
], ids=["inf-std", "nan-mean", "inf-diffusion_coeff_init"])
def test_predict_rejects_non_finite_checkpoint_numbers(pipeline, tmp_path,
                                                       capsys, edit, message):
    ckpt = tmp_path / "ckpt.npz"
    rewrite_metadata(pipeline["ckpt"], ckpt, edit)  # json writes Infinity, NaN
    out = tmp_path / "p.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(pipeline["data"]), "--horizon", "24h", "--out",
                         str(out)]) == 2
    assert f"{ckpt}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epoch", [
    10**12, -10**12,
    # 9999-12-31T00:00 is a datetime, but the dataset's 64th step is not
    int((datetime(9999, 12, 31) - datetime(1970, 1, 1)).total_seconds()),
], ids=["far-future", "far-past", "last-step"])
def test_baseline_rejects_out_of_range_start_epoch(pipeline, tmp_path, capsys,
                                                   epoch):
    bad = tmp_path / "bad.npz"
    rewrite_metadata(pipeline["data"], bad,
                     lambda meta: {**meta, "start_epoch": epoch})
    with pytest.raises(FormatError) as info:
        load_dataset(bad)
    message = f"{bad}: start_epoch {epoch} is out of the datetime range"
    assert str(info.value) == message
    out = tmp_path / "out.csv"
    assert cli_dispatch(["baseline", "--method", "ha", "--data", str(bad),
                         "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target, edit, field", [
    ("ckpt", lambda meta: {**meta, "norm_mean": 10**400}, "'norm_mean'"),
    ("ckpt", lambda meta: {**meta, "config": {
        **meta["config"], "diffusion_coeff_init": 10**400}},
     "'diffusion_coeff_init'"),
    ("data", lambda meta: {**meta, "max_distance_km": 10**400},
     "'max_distance_km'"),
], ids=["norm_mean", "diffusion_coeff_init", "max_distance_km"])
def test_integers_beyond_float_range_are_format_errors(pipeline, tmp_path,
                                                       capsys, target, edit,
                                                       field):
    bad = tmp_path / "bad.npz"
    rewrite_metadata(pipeline[target], bad, edit)
    with pytest.raises(FormatError) as info:
        (load_checkpoint if target == "ckpt" else load_dataset)(bad)
    assert str(info.value).startswith(f"{bad}: ")
    assert field in str(info.value)
    paths = {"ckpt": pipeline["ckpt"], "data": pipeline["data"], target: bad}
    out = tmp_path / "p.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(paths["ckpt"]),
                         "--data", str(paths["data"]), "--horizon", "24h",
                         "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("stored", [[0, 1, 2], []], ids=["zero", "empty"])
def test_predict_rejects_bad_checkpoint_split_ratio(pipeline, tmp_path, capsys,
                                                    stored):
    ckpt = tmp_path / "ckpt.npz"
    rewrite_metadata(pipeline["ckpt"], ckpt,
                     lambda meta: {**meta, "split_ratio": stored})
    message = (f"{ckpt}: ratio must be three positive whole numbers, "
               f"got {tuple(stored)}")
    with pytest.raises(FormatError) as info:
        load_checkpoint(ckpt)
    assert str(info.value) == message
    out = tmp_path / "p.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(pipeline["data"]), "--horizon", "24h", "--out",
                         str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _predict_rows(ckpt, data, out):
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(data), "--horizon", "24h", "--out", str(out)]) == 0
    return out.read_bytes()


def _without_solver(meta):
    return {k: v for k, v in meta.items() if k != "solver"}


def test_predict_uses_the_solver_settings_of_training(pipeline, tmp_path):
    # the pipeline trains under [solver] rtol = atol = 1e-4 and its checkpoint
    # carries them; the same file without them predicts other values
    assert load_checkpoint(pipeline["ckpt"]).solver == SolverConfig(
        rtol=1e-4, atol=1e-4)
    bare = tmp_path / "bare.npz"
    rewrite_metadata(pipeline["ckpt"], bare, _without_solver)
    assert load_checkpoint(bare).solver == SolverConfig()
    assert (_predict_rows(bare, pipeline["data"], tmp_path / "bare.csv")
            != pipeline["pred"].read_bytes())


def test_checkpoint_without_solver_predicts_at_the_defaults(pipeline,
                                                            tmp_path):
    # a checkpoint written before it carried solver settings predicts the
    # bytes that one storing SolverConfig() does
    ds = load_dataset(pipeline["data"])
    graph = SensorGraph.from_stations(list(ds.stations), ds.max_distance_km)
    cfg = ModelConfig(history_steps=8, horizon_steps=8, latent_dim=4,
                      gru_hidden=8, head_hidden=6, flownet_hidden=4, seed=4)
    stored = tmp_path / "stored.npz"
    save_checkpoint(make_checkpoint(Model(graph, cfg, NormStats(60.0, 25.0))),
                    stored)
    assert load_checkpoint(stored).solver == SolverConfig()
    bare = tmp_path / "bare.npz"
    rewrite_metadata(stored, bare, _without_solver)
    assert (_predict_rows(bare, pipeline["data"], tmp_path / "bare.csv")
            == _predict_rows(stored, pipeline["data"], tmp_path / "s.csv"))


@pytest.mark.parametrize("solver, message", [
    ({"rtol": "tight"}, "SolverConfig 'rtol' must be float, got 'tight'"),
    ({"max_steps": 1.5}, "SolverConfig 'max_steps' must be int, got 1.5"),
    ({"rtol": 0}, "rtol must be positive and finite, got 0"),
    ({"method": "rk4"}, "unknown SolverConfig keys: ['method']"),
    ([1e-4], "bad metadata field 'solver': [0.0001]"),
], ids=["str-rtol", "float-max_steps", "zero-rtol", "unknown-key", "list"])
def test_predict_rejects_bad_checkpoint_solver(pipeline, tmp_path, capsys,
                                               solver, message):
    ckpt = tmp_path / "ckpt.npz"
    rewrite_metadata(pipeline["ckpt"], ckpt,
                     lambda meta: {**meta, "solver": solver})
    with pytest.raises(FormatError) as info:
        load_checkpoint(ckpt)
    assert str(info.value) == f"{ckpt}: {message}"
    out = tmp_path / "p.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(pipeline["data"]), "--horizon", "24h", "--out",
                         str(out)]) == 2
    assert f"{ckpt}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, env", [
    ("model", None),
    ("train", None),
    (None, "-5"),
], ids=["model", "train", "env"])
def test_negative_seed_exits_2(pipeline, tmp_path, capsys, monkeypatch,
                               section, env):
    config = tmp_path / "c.ini"
    config.write_text(f"[{section}]\nseed = -1\n" if section else "",
                      encoding="utf-8")
    monkeypatch.delenv(SEED_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(SEED_ENV, env)
    out_dir = tmp_path / "run"
    assert cli_dispatch(["train", "--config", str(config), "--data",
                         str(pipeline["data"]), "--out-dir", str(out_dir)]) == 2
    # a seed from the file names the file and section, one from AQC_SEED not
    where = f"{config}: [{section}] " if section else ""
    seed = env or "-1"
    assert (f"aircast: error: {where}seed must be non-negative, got {seed}\n"
            == capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["npy", "empty", "byte"])
@pytest.mark.parametrize("command", ["baseline", "predict"])
def test_non_container_file_exits_2(pipeline, tmp_path, capsys, command, kind):
    bad = tmp_path / f"x.{kind}"
    if kind == "npy":
        np.save(bad, np.arange(3.0))
    else:
        bad.write_bytes(b"x" if kind == "byte" else b"")
    out = tmp_path / "out.csv"
    if command == "baseline":
        argv = ["baseline", "--method", "ha", "--data", str(bad)]
    else:
        argv = ["predict", "--checkpoint", str(bad), "--data",
                str(pipeline["data"]), "--horizon", "24h"]
    assert cli_dispatch(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not a readable container" in err
    assert "pickle" not in err
    assert not out.exists()


def _with_nan(a):
    a = a.copy()
    a[5, 1] = np.nan
    return a


@pytest.mark.parametrize("name, change, problem", [
    ("pm25", lambda a: np.hstack([a, a[:, :1]]),
     "has shape (64, 5), expected (64, 4)"),
    ("wind_u", lambda a: a[:-50], "has shape (14, 4), expected (64, 4)"),
    ("wind_v", np.ravel, "is 1-D float64, not a 2-D float array"),
    ("pm25", lambda a: np.array(1.0), "is 0-D float64, not a 2-D float array"),
    ("wind_u", _with_nan, "holds a non-finite value"),
    ("wind_v", lambda a: a.astype(np.int64), "is int64, not a float array"),
], ids=["extra-column", "short-wind", "1-d", "0-d", "nan", "int"])
def test_malformed_dataset_arrays_exit_2(pipeline, tmp_path, capsys, name,
                                         change, problem):
    with np.load(pipeline["data"]) as archive:
        arrays = {k: archive[k] for k in archive.files}
    assert arrays["pm25"].shape == (64, 4)
    arrays[name] = change(arrays[name])
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(FormatError) as info:
        load_dataset(bad)
    assert str(info.value) == f"{bad}: array {name!r} {problem}"
    out = tmp_path / "out.csv"
    for argv in (["baseline", "--method", "ha"],
                 ["predict", "--checkpoint", str(pipeline["ckpt"]),
                  "--horizon", "24h"]):
        assert cli_dispatch(argv + ["--data", str(bad), "--out", str(out)]) == 2
        assert f"{bad}: array {name!r} {problem}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("change, problem", [
    (lambda a: np.full(a.shape, "abc"), "is <U3, not a float array"),
    (lambda a: a + 1j, "is complex128, not a float array"),
    (lambda a: a > 0, "is bool, not a float array"),
    (lambda a: np.vstack([[[np.nan]], a[1:]]), "holds a non-finite value"),
], ids=["str", "complex", "bool", "nan"])
def test_predict_rejects_non_float_checkpoint_arrays(pipeline, tmp_path, capsys,
                                                     change, problem):
    with np.load(pipeline["ckpt"]) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["decoder.w"] = change(arrays["decoder.w"])
    ckpt = tmp_path / "ckpt.npz"
    np.savez(ckpt, **arrays)
    out = tmp_path / "p.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(pipeline["data"]), "--horizon", "24h", "--out",
                         str(out)]) == 2
    err = capsys.readouterr().err
    assert f"aircast: error: {ckpt}: array 'decoder.w' {problem}\n" in err
    assert not out.exists()


def test_predict_rejects_overflowing_forecast(pipeline, tmp_path, capsys):
    # finite decoder weights whose forecast overflows: it is checked before
    # either CSV is written
    with np.load(pipeline["ckpt"]) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["decoder.w"] = np.full_like(arrays["decoder.w"], 1e308)
    ckpt = tmp_path / "ckpt.npz"
    np.savez(ckpt, **arrays)
    out, truth = tmp_path / "p.csv", tmp_path / "t.csv"
    assert cli_dispatch(["predict", "--checkpoint", str(ckpt), "--data",
                         str(pipeline["data"]), "--horizon", "24h", "--out",
                         str(out), "--truth-out", str(truth)]) == 2
    assert "aircast: error: non-finite forecast for sample " in \
        capsys.readouterr().err
    assert not out.exists() and not truth.exists()


def test_load_config_defaults_and_sections(tmp_path):
    model_cfg, train_cfg, solver_cfg = load_config(None)
    assert model_cfg.history_steps == 24
    assert train_cfg.batch_size == 32
    assert solver_cfg == SolverConfig()
    ini = tmp_path / "c.ini"
    ini.write_text("[model]\nlatent_dim = 8\ngate_mode = diff_only\n"
                   "[train]\ndecay_epochs = 10, 20\nlearning_rate = 1e-3\n"
                   "[solver]\nrtol = 1e-6\n", encoding="utf-8")
    model_cfg, train_cfg, solver_cfg = load_config(ini)
    assert model_cfg.latent_dim == 8
    assert model_cfg.gate_mode == "diff_only"
    assert train_cfg.decay_epochs == (10, 20)
    assert train_cfg.learning_rate == 1e-3
    assert solver_cfg.rtol == 1e-6


def test_load_config_error_taxonomy(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(tmp_path / "missing.ini")
    bad_section = tmp_path / "s.ini"
    bad_section.write_text("[models]\nlatent_dim = 8\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown config section"):
        load_config(bad_section)
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[model]\nwidth = 8\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(bad_key)
    bad_value = tmp_path / "v.ini"
    bad_value.write_text("[model]\nlatent_dim = tall\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="bad value"):
        load_config(bad_value)


@pytest.mark.parametrize("section, line, message", [
    ("train", "clip_norm = nan", "bad value for 'clip_norm' in [train]: 'nan'"),
    ("solver", "rtol = inf", "bad value for 'rtol' in [solver]: 'inf'"),
    ("model", "diffusion_coeff_init = inf",
     "bad value for 'diffusion_coeff_init' in [model]: 'inf'"),
    ("solver", "method = dopri5", "unknown key 'method' in [solver]"),
    ("solver", "safety = 0.9", "unknown key 'safety' in [solver]"),
    ("solver", "factor_max = 5", "unknown key 'factor_max' in [solver]"),
    # a value the dataclass's own check rejects names the file and section
    ("model", "latent_dim = 0", "{ini}: [model] latent_dim must be at least 1"),
    ("train", "batch_size = 0", "{ini}: [train] batch_size must be at least 1"),
    ("solver", "max_steps = 0", "{ini}: [solver] max_steps must be at least 1"),
], ids=["nan-clip_norm", "inf-rtol", "inf-diffusion_coeff_init", "method",
        "safety", "factor_max", "latent_dim", "batch_size", "max_steps"])
def test_load_config_rejects_bad_settings(tmp_path, section, line, message):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigurationError,
                       match=re.escape(message.format(ini=ini))):
        load_config(ini)


@pytest.mark.parametrize("text, message", [
    (b"[model]\ngate_mode = learned%\n",
     "{ini}: [model] gate_mode must be one of"),
    (b"[DEFAULT]\nseed = 5\n", "unknown config section [DEFAULT]"),
    (b"[DEFAULT]\nseed = 5\n[model]\nlatent_dim = 4\n",
     "unknown config section [DEFAULT]"),
    (b"[model]\ngate_mode = learned\xff\n", "{ini}: not UTF-8 text"),
], ids=["percent", "default-alone", "default-with-model", "not-utf8"])
def test_config_values_are_literal_utf8_without_default_section(
        pipeline, tmp_path, capsys, text, message):
    ini = tmp_path / "c.ini"
    ini.write_bytes(text)
    message = message.format(ini=ini)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(ini)
    out_dir = tmp_path / "run"
    assert cli_dispatch(["train", "--config", str(ini), "--data",
                         str(pipeline["data"]), "--out-dir", str(out_dir)]) == 2
    assert f"aircast: error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_seed_env_overrides_config(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "424242")
    model_cfg, train_cfg, _ = load_config(None)
    assert model_cfg.seed == 424242
    assert train_cfg.seed == 424242
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    with pytest.raises(ConfigurationError, match=SEED_ENV):
        load_config(None)


def test_training_reproducible_through_cli(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "99")
    dirs = [tmp_path / "runA", tmp_path / "runB"]
    small = tmp_path / "small.ini"
    small.write_text(CONFIG_INI.replace("max_epochs = 2", "max_epochs = 1")
                     .replace("patience = 2", "patience = 1"),
                     encoding="utf-8")
    for d in dirs:
        assert cli_dispatch(["train", "--config", str(small), "--data",
                             str(pipeline["data"]), "--out-dir", str(d)]) == 0
    log_a = (dirs[0] / "training_log.csv").read_bytes()
    log_b = (dirs[1] / "training_log.csv").read_bytes()
    assert log_a == log_b
    a = np.load(dirs[0] / "checkpoint.npz")
    b = np.load(dirs[1] / "checkpoint.npz")
    assert sorted(a.files) == sorted(b.files)
    for name in a.files:
        if name == "_meta":
            assert str(a[name]) == str(b[name])
        else:
            np.testing.assert_array_equal(a[name], b[name])


def test_sparse_split_changes_partitioning(pipeline, tmp_path, capsys):
    out = tmp_path / "sparse"
    assert cli_dispatch(["train", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]), "--out-dir",
                         str(out), "--sparse-split"]) == 0
    text = capsys.readouterr().out
    m = re.search(r"on (\d+) windows", text)
    steps = HOURS // 3
    n_windows = steps - 16 + 1
    assert int(m.group(1)) == (n_windows * 3) // 10
    ckpt = np.load(out / "checkpoint.npz")
    import json
    meta = json.loads(str(ckpt["_meta"]))
    assert meta["split_ratio"] == [3, 1, 6]


def test_parser_help_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("ingest", "train", "predict", "evaluate", "baseline",
                    "simulate", "plot"):
        assert command in text
