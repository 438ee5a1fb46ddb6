"""Command-line tests: exit codes, config handling, and the full pipeline
from raw CSVs through training, forecasting, and evaluation."""

import csv
import re
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from aircast.cli import (SEED_ENV, build_parser, cli_dispatch, load_config)
from aircast.data import load_dataset, make_windows, split_counts
from aircast.errors import ConfigurationError
from aircast.graph import SensorGraph
from aircast.metrics import SuddenChangeSpec, mae, rmse
from aircast.model import load_checkpoint, model_from_checkpoint
from aircast.odeint import SolverConfig

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
    assert header == ["epoch", "lr", "train_mae", "val_mae"]
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


def test_predict_matches_per_origin_forward_sample(pipeline):
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
    expected = [model.forward_sample(
        replace(w, x_hist=model.stats.normalize(w.x_hist)))[:, :, 0].ravel()
        for w in origins]
    _, rows = read_csv_rows(pipeline["pred"])
    np.testing.assert_allclose([float(r[2]) for r in rows],
                               np.concatenate(expected), rtol=1e-12, atol=0)


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
    assert cli_dispatch(["simulate", "--mode", "diffusion", "--graph",
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
    assert cli_dispatch(["simulate", "--mode", "advection", "--graph",
                         str(pipeline["stations"]), "--x0", str(x0),
                         "--t", "2.0", "--velocities", str(vel),
                         "--out", str(out)]) == 0
    _, rows = read_csv_rows(out)
    assert sum(float(r[1]) for r in rows) == pytest.approx(100.0, abs=1e-8)


def test_simulate_incomplete_field_exits_2(pipeline, tmp_path, capsys):
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,100\n", encoding="utf-8")
    code = cli_dispatch(["simulate", "--mode", "diffusion", "--graph",
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
    assert cli_dispatch(["plot", "--type", "wind-heatmap", "--stations",
                         str(pipeline["stations"]), "--field", str(field),
                         "--wind", str(wind), "--out", str(heat)]) == 0
    ET.fromstring(heat.read_text(encoding="utf-8"))
    lines = tmp_path / "lines.svg"
    assert cli_dispatch(["plot", "--type", "diffusion-lines", "--stations",
                         str(pipeline["stations"]), "--field", str(field),
                         "--source", "s0", "--out", str(lines)]) == 0
    ET.fromstring(lines.read_text(encoding="utf-8"))
    capsys.readouterr()


def test_plot_missing_mode_flags_exit_2(pipeline, tmp_path, capsys):
    field = tmp_path / "field.csv"
    field.write_text("station_id,value\ns0,80\ns1,45\ns2,60\ns3,110\n",
                     encoding="utf-8")
    assert cli_dispatch(["plot", "--type", "wind-heatmap", "--stations",
                         str(pipeline["stations"]), "--field", str(field),
                         "--out", str(tmp_path / "x.svg")]) == 2
    assert cli_dispatch(["plot", "--type", "diffusion-lines", "--stations",
                         str(pipeline["stations"]), "--field", str(field),
                         "--out", str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()


def test_usage_errors_exit_1(capsys):
    assert cli_dispatch([]) == 1
    assert cli_dispatch(["transmogrify"]) == 1
    assert cli_dispatch(["predict"]) == 1  # missing required flags
    assert cli_dispatch(["evaluate", "--pred", "a", "--truth", "b",
                         "--sudden-change"]) == 1  # no --city
    err = capsys.readouterr().err
    assert "error" in err


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
    assert cli_dispatch(["simulate", "--mode", "diffusion", "--graph",
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
    assert cli_dispatch(["simulate", "--mode", "advection", "--graph",
                         str(stations), "--x0", str(x0), "--t", "1.0",
                         "--velocities", str(vel),
                         "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{vel}:2: non-finite column 3" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_simulate_rejects_ragged_velocity_rows(tmp_path, capsys):
    stations = write_stations(tmp_path / "stations.csv", n=3)
    x0 = tmp_path / "x0.csv"
    x0.write_text("station_id,value\ns0,10\ns1,20\ns2,30\n", encoding="utf-8")
    vel = tmp_path / "vel.csv"
    vel.write_text("0,0.5,0\n\n0,0\n0,0,0\n", encoding="utf-8")
    assert cli_dispatch(["simulate", "--mode", "advection", "--graph",
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
    assert cli_dispatch(["plot", "--type", "wind-heatmap", "--stations",
                         str(stations), "--field", str(field), "--wind",
                         str(wind), "--out", str(tmp_path / "x.svg")]) == 2
    assert f"{wind}:3: non-finite v" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


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
                         "--sudden-change", "--city", "beijing"]) == 0
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
                         str(truth), "--sudden-change", "--city",
                         "shenzhen"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("sudden_change mae=0.0 ")
    assert "points=1" in lines[1]
    assert cli_dispatch(["evaluate", "--pred", str(truth), "--truth",
                         str(truth), "--sudden-change", "--city",
                         "beijing"]) == 2
    assert "no sudden-change points" in capsys.readouterr().err


def sudden_change_oracle(pred, truth, spec):
    """evaluate's sudden-change line, computed station by station: a point
    is flagged when its truth exceeds the level and the station's next
    truth row, exactly three hours later, differs by more than delta."""
    by_station = defaultdict(list)
    for (ts, sid), v in truth.items():
        by_station[sid].append((ts, v))
    flagged = set()
    for sid, seq in by_station.items():
        seq.sort()
        for (ts, v), (ts2, v2) in zip(seq, seq[1:]):
            if (ts2 - ts == timedelta(hours=3) and v > spec.level
                    and abs(v2 - v) > spec.delta):
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
                         "--sudden-change", "--city", city]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = sudden_change_oracle(pred, truth, SuddenChangeSpec.for_city(city))
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
], ids=["nan-clip_norm", "inf-rtol", "inf-diffusion_coeff_init", "method"])
def test_load_config_rejects_bad_settings(tmp_path, section, line, message):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(ini)


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
