"""Data pipeline tests: CSV parsing, gap filling, wind conversion, 3-hour
resampling, windowing, chronological splits, and dataset persistence."""

import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from aircast.data import (Dataset, HourlySeries, NormStats, Series3h,
                          chronological_split, impute_missing, load_dataset,
                          make_windows, parse_readings, resample_3h,
                          save_dataset, split_counts, wind_components)
from aircast.errors import (ConfigurationError, DataError, FormatError,
                            ParseError, UnknownStationError)
from aircast.graph import Station

from conftest import grid_stations, rewrite_metadata, synthetic_series

HEADER = "timestamp,station_id,pm25,wind_speed,wind_direction"


def write_readings(tmp_path, rows, header=HEADER):
    path = tmp_path / "readings.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_parse_readings_grid_placement(tmp_path):
    path = write_readings(tmp_path, [
        "2017-01-01T01:00:00,b,20,3,180",
        "2017-01-01T00:00:00,a,10,2,90",
    ])
    series = parse_readings(path, ["a", "b"])
    assert series.start == datetime(2017, 1, 1, 0)
    assert series.hours == 2
    assert series.pm25[0, 0] == 10.0
    assert series.pm25[1, 1] == 20.0
    assert np.isnan(series.pm25[0, 1])
    assert np.isnan(series.pm25[1, 0])
    assert series.wind_direction[0, 0] == 90.0


def test_parse_readings_accepts_timezones(tmp_path):
    path = write_readings(tmp_path, [
        "2017-01-01T08:00:00+08:00,a,1,1,0",
        "2017-01-01T01:00:00Z,a,2,1,0",
    ])
    series = parse_readings(path, ["a"])
    # both collapse to UTC: 00:00 and 01:00
    assert series.start == datetime(2017, 1, 1, 0)
    assert series.hours == 2
    assert series.pm25[0, 0] == 1.0
    assert series.pm25[1, 0] == 2.0


def test_parse_readings_empty_value_is_gap(tmp_path):
    path = write_readings(tmp_path, ["2017-01-01T00:00:00,a,,2,90"])
    series = parse_readings(path, ["a"])
    assert np.isnan(series.pm25[0, 0])
    assert series.wind_speed[0, 0] == 2.0


def test_parse_readings_error_taxonomy(tmp_path):
    bad_header = write_readings(tmp_path, [], header="time,station,pm25,ws,wd")
    with pytest.raises(ParseError, match="header"):
        parse_readings(bad_header, ["a"])
    with pytest.raises(ParseError, match="5 fields"):
        parse_readings(write_readings(tmp_path, ["2017-01-01T00:00:00,a,1,2"]),
                       ["a"])
    with pytest.raises(ParseError, match="timestamp"):
        parse_readings(write_readings(tmp_path, ["yesterday,a,1,2,3"]), ["a"])
    with pytest.raises(ParseError, match="on the hour"):
        parse_readings(write_readings(
            tmp_path, ["2017-01-01T00:30:00,a,1,2,3"]), ["a"])
    with pytest.raises(ParseError, match="pm25"):
        parse_readings(write_readings(
            tmp_path, ["2017-01-01T00:00:00,a,high,2,3"]), ["a"])
    with pytest.raises(UnknownStationError, match="'zz'"):
        parse_readings(write_readings(
            tmp_path, ["2017-01-01T00:00:00,zz,1,2,3"]), ["a"])
    with pytest.raises(DataError, match="no readings"):
        parse_readings(write_readings(tmp_path, []), ["a"])


def test_parse_readings_duplicate_names_both_lines(tmp_path):
    path = write_readings(tmp_path, [
        "2017-01-01T00:00:00,a,1,2,3",
        "2017-01-01T01:00:00,a,1,2,3",
        "2017-01-01T00:00:00,a,9,9,9",
    ])
    with pytest.raises(ParseError, match=r":4.*line 2"):
        parse_readings(path, ["a"])


def test_parse_readings_duplicate_across_timestamp_spellings(tmp_path):
    # one instant written two ways: the timestamp cache is keyed by text,
    # the duplicate check by the instant
    path = write_readings(tmp_path, [
        "2017-01-01T08:00:00+08:00,a,1,2,3",
        "2017-01-01T00:00:00Z,a,9,9,9",
    ])
    with pytest.raises(ParseError,
                       match=r":3: duplicate reading for a at "
                             r"2017-01-01 00:00:00 \(first seen on line 2\)"):
        parse_readings(path, ["a"])


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", [2, 3, 4])
def test_parse_readings_rejects_non_finite_values(tmp_path, field, text):
    bad = ["2017-01-01T01:00:00", "a", "1", "2", "3"]
    bad[field] = text
    path = write_readings(tmp_path, ["2017-01-01T00:00:00,a,1,2,3",
                                     ",".join(bad)])
    column = HEADER.split(",")[field]
    with pytest.raises(ParseError, match=rf"readings.csv:3: non-finite {column}$"):
        parse_readings(path, ["a"])


def test_parse_readings_whitespace_value_is_gap(tmp_path):
    path = write_readings(tmp_path, ["2017-01-01T00:00:00,a,  ,2,\t"])
    series = parse_readings(path, ["a"])
    assert np.isnan(series.pm25[0, 0])
    assert series.wind_speed[0, 0] == 2.0
    assert np.isnan(series.wind_direction[0, 0])


def test_parse_readings_shuffled_gappy_csv_matches_direct_grid(tmp_path):
    rng = np.random.default_rng(2024)
    ids = [f"s{i}" for i in range(7)]
    start, hours = datetime(2017, 3, 1, 5), 300
    grids = {ch: np.full((hours, len(ids)), np.nan) for ch in
             ("pm25", "wind_speed", "wind_direction")}
    rows = []
    for h in range(hours):
        ts = start + timedelta(hours=h)
        spellings = [ts.isoformat(), ts.isoformat() + "Z",
                     (ts + timedelta(hours=8)).isoformat() + "+08:00"]
        for col, sid in enumerate(ids):
            if rng.uniform() < 0.05 and 0 < h < hours - 1:
                continue  # dropped row
            fields = []
            for ch in grids:
                if rng.uniform() < 0.04:
                    fields.append(str(rng.choice(["", " ", "  "])))
                else:
                    value = float(rng.uniform(-50, 500))
                    grids[ch][h, col] = value
                    fields.append(repr(value))
            rows.append(",".join([spellings[rng.integers(3)], sid] + fields))
    rng.shuffle(rows)
    series = parse_readings(write_readings(tmp_path, rows), ids)
    assert series.start == start
    assert series.station_ids == ids
    for ch, grid in grids.items():
        got = getattr(series, ch)
        assert got.shape == grid.shape
        assert got.tobytes() == grid.tobytes()


def hourly(pm, speed=None, direction=None, ids=None):
    pm = np.asarray(pm, dtype=np.float64)
    if pm.ndim == 1:
        pm = pm[:, None]
    hours, n = pm.shape
    return HourlySeries(
        start=datetime(2017, 1, 1),
        station_ids=ids or [f"s{i}" for i in range(n)],
        pm25=pm,
        wind_speed=np.full((hours, n), 2.0) if speed is None else speed,
        wind_direction=np.zeros((hours, n)) if direction is None else direction,
    )


def test_impute_window_mean_rule():
    pm = np.full(30, np.nan)
    pm[0] = 10.0
    pm[5] = 20.0
    pm[6] = np.nan  # hours 0..6 window holds {10, 20}
    series = impute_missing(hourly(pm))
    assert series.pm25[6, 0] == pytest.approx(15.0)


def test_impute_last_observed_beyond_window():
    pm = np.full(40, np.nan)
    pm[0] = 33.0
    series = impute_missing(hourly(pm))
    # hour 30: the preceding 24-hour window (hours 6..29) holds nothing
    # observed, so the last observed value carries forward
    assert series.pm25[30, 0] == pytest.approx(33.0)
    # hour 10 still sees hour 0 inside its window
    assert series.pm25[10, 0] == pytest.approx(33.0)


def test_impute_leading_gap_uses_global_mean():
    pm = np.column_stack([
        np.concatenate([[np.nan, np.nan], np.full(8, 10.0)]),
        np.full(10, 30.0),
    ])
    series = impute_missing(hourly(pm))
    expected = np.nanmean(pm)
    assert series.pm25[0, 0] == pytest.approx(expected)
    assert series.pm25[1, 0] == pytest.approx(expected)


def test_impute_keeps_observed_values(rng):
    pm = rng.uniform(10, 90, size=(50, 3))
    mask = rng.uniform(size=pm.shape) < 0.3
    mask[0] = False  # keep the leading row observed
    pm_gappy = pm.copy()
    pm_gappy[mask] = np.nan
    series = impute_missing(hourly(pm_gappy))
    np.testing.assert_array_equal(series.pm25[~mask], pm[~mask])
    assert np.isfinite(series.pm25).all()


def impute_oracle(grid):
    out = grid.copy()
    gm = np.nanmean(grid)
    for col in range(grid.shape[1]):
        last = np.nan
        for t in range(grid.shape[0]):
            if np.isfinite(grid[t, col]):
                last = grid[t, col]
                continue
            window = grid[max(0, t - 24):t, col]
            window = window[np.isfinite(window)]
            if window.size:
                out[t, col] = window.mean()
            elif np.isfinite(last):
                out[t, col] = last
            else:
                out[t, col] = gm
    return out


def test_impute_matches_brute_force_oracle(rng):
    pm = rng.uniform(5, 120, size=(80, 4))
    mask = rng.uniform(size=pm.shape) < 0.45
    mask[40] = False  # every station observes something
    pm[mask] = np.nan
    got = impute_missing(hourly(pm)).pm25
    np.testing.assert_allclose(got, impute_oracle(pm), atol=1e-12)


def test_impute_matches_oracle_at_realistic_scale():
    rng = np.random.default_rng(77)
    hours, n = 2200, 12
    grids = [rng.uniform(1, 400, size=(hours, n)) for _ in range(3)]
    gappy = []
    for grid in grids:
        missing = rng.uniform(size=grid.shape) < 0.04      # scattered blanks
        for col in range(n):
            missing[:rng.integers(0, 40), col] = True       # leading gaps
            for _ in range(rng.integers(0, 3)):             # outages of 1-4 days
                start = rng.integers(0, hours - 100)
                missing[start:start + rng.integers(25, 97), col] = True
        missing[hours // 2] = False
        g = grid.copy()
        g[missing] = np.nan
        gappy.append(g)
    filled = impute_missing(hourly(*gappy))
    for grid, got in zip(gappy, (filled.pm25, filled.wind_speed,
                                 filled.wind_direction)):
        observed = np.isfinite(grid)
        assert got[observed].tobytes() == grid[observed].tobytes()
        np.testing.assert_allclose(got, impute_oracle(grid), rtol=0, atol=1e-12)


def test_impute_rejects_fully_missing_station():
    pm = np.column_stack([np.full(10, np.nan), np.full(10, 20.0)])
    with pytest.raises(DataError, match="'s0'"):
        impute_missing(hourly(pm))


def test_wind_components_cardinal_directions():
    s = np.array([2.0, 2.0, 2.0, 2.0, 0.0])
    d = np.array([0.0, 90.0, 180.0, 270.0, 45.0])
    u, v = wind_components(s, d)
    # wind FROM the north blows southward, and so on around the compass
    np.testing.assert_allclose(u, [0.0, -2.0, 0.0, 2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(v, [-2.0, 0.0, 2.0, 0.0, 0.0], atol=1e-12)


def test_resample_means_complete_blocks():
    pm = np.arange(7, dtype=np.float64)  # 7 hours -> 2 blocks, 1 dropped
    series = resample_3h(hourly(pm))
    assert series.steps == 2
    np.testing.assert_allclose(series.pm25[:, 0], [1.0, 4.0])
    assert series.time_at(1) == datetime(2017, 1, 1, 3)


def test_resample_converts_wind_before_averaging():
    # directions 0/90/180 at speed 1: per-hour u = 0, -1, 0 so the block
    # mean is -1/3; averaging direction first (90 deg) would give -1
    direction = np.array([[0.0], [90.0], [180.0]])
    speed = np.ones((3, 1))
    series = resample_3h(hourly(np.zeros(3), speed=speed, direction=direction))
    assert series.wind_u[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert series.wind_v[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_resample_requires_imputed_input():
    pm = np.array([1.0, np.nan, 3.0])
    with pytest.raises(DataError, match="imputed"):
        resample_3h(hourly(pm))
    with pytest.raises(DataError, match="3-hour block"):
        resample_3h(hourly(np.array([1.0, 2.0])))


def test_make_windows_alignment():
    series = synthetic_series(12, 2, seed=1)
    windows = make_windows(series, history_steps=4, horizon_steps=3)
    assert len(windows) == 12 - 7 + 1
    w = windows[2]
    np.testing.assert_array_equal(w.x_hist[:, :, 0], series.pm25[2:6])
    np.testing.assert_array_equal(w.x_future[:, :, 0], series.pm25[6:9])
    np.testing.assert_array_equal(w.p_hist[:, :, 0], series.wind_u[2:6])
    np.testing.assert_array_equal(w.p_hist[:, :, 1], series.wind_v[2:6])
    assert w.start_index == 2
    assert w.start_time == series.time_at(2)


def test_make_windows_returns_read_only_views():
    series = synthetic_series(12, 2, seed=2)
    wind = np.stack([series.wind_u, series.wind_v], axis=-1)
    for w in make_windows(series, history_steps=4, horizon_steps=3):
        s = w.start_index
        np.testing.assert_array_equal(w.x_hist, series.pm25[s:s + 4, :, None])
        np.testing.assert_array_equal(w.p_hist, wind[s:s + 4])
        np.testing.assert_array_equal(w.x_future,
                                      series.pm25[s + 4:s + 7, :, None])
        for arr in (w.x_hist, w.p_hist, w.x_future):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0
    assert np.shares_memory(w.x_hist, series.pm25)
    series.pm25[0, 0] = 1.0  # the caller's series stays writable


def test_make_windows_stride_and_errors():
    series = synthetic_series(12, 2, seed=1)
    assert len(make_windows(series, 4, 3, stride=2)) == 3
    with pytest.raises(DataError):
        make_windows(series, 10, 3)
    with pytest.raises(ConfigurationError):
        make_windows(series, 0, 3)


def test_split_counts_exact():
    assert split_counts(100, (7, 1, 2)) == (70, 10, 20)
    assert split_counts(100, (3, 1, 6)) == (30, 10, 60)
    assert split_counts(37, (7, 1, 2)) == (25, 3, 9)
    with pytest.raises(ConfigurationError):
        split_counts(5, (7, 1, 2))  # val partition would be empty
    with pytest.raises(ConfigurationError):
        split_counts(100, (7, 1))


def test_chronological_split_partitions_in_time_order(rng):
    series = synthetic_series(60, 2, seed=3)
    windows = make_windows(series, 4, 4)
    shuffled = list(windows)
    rng.shuffle(shuffled)
    split = chronological_split(shuffled)
    starts = [w.start_index for w in split.train + split.val + split.test]
    assert starts == sorted(starts)
    assert len(split.train) == (len(windows) * 7) // 10
    assert len(split.val) == len(windows) // 10
    assert split.ratio == (7, 1, 2)
    last_train = split.train[-1].start_index
    assert all(w.start_index > last_train for w in split.val)


def test_chronological_split_stats_from_train_only():
    series = synthetic_series(60, 2, seed=4)
    windows = make_windows(series, 4, 4)
    split = chronological_split(windows)
    n_train = (len(windows) * 7) // 10
    raw_train = np.concatenate(
        [np.concatenate([w.x_hist.ravel(), w.x_future.ravel()])
         for w in windows[:n_train]])
    assert split.stats.mean == pytest.approx(raw_train.mean(), abs=1e-12)
    assert split.stats.std == pytest.approx(raw_train.std(), abs=1e-12)


def test_chronological_split_normalizes_every_partition():
    series = synthetic_series(60, 2, seed=5)
    windows = make_windows(series, 4, 4)
    split = chronological_split(windows)
    stats = split.stats
    raw = {w.start_index: w for w in windows}
    for part in (split.train, split.val, split.test):
        for w in part:
            np.testing.assert_allclose(
                w.x_hist, stats.normalize(raw[w.start_index].x_hist),
                atol=1e-12)
    # normalized train values have zero mean and unit scale
    values = np.concatenate(
        [np.concatenate([w.x_hist.ravel(), w.x_future.ravel()])
         for w in split.train])
    assert values.mean() == pytest.approx(0.0, abs=1e-12)
    assert values.std() == pytest.approx(1.0, abs=1e-12)


def test_norm_stats_roundtrip():
    stats = NormStats(mean=60.0, std=25.0)
    x = np.array([10.0, 60.0, 135.0])
    np.testing.assert_allclose(stats.denormalize(stats.normalize(x)), x,
                               atol=1e-12)
    with pytest.raises(DataError):
        NormStats(mean=0.0, std=0.0)


def test_dataset_roundtrip(tmp_path):
    series = synthetic_series(20, 4, seed=6)
    ds = Dataset(series, grid_stations(4), max_distance_km=250.0)
    path = tmp_path / "data.npz"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.series.start == series.start
    assert loaded.series.station_ids == series.station_ids
    np.testing.assert_array_equal(loaded.series.pm25, series.pm25)
    np.testing.assert_array_equal(loaded.series.wind_u, series.wind_u)
    np.testing.assert_array_equal(loaded.series.wind_v, series.wind_v)
    assert loaded.max_distance_km == 250.0
    assert [s.station_id for s in loaded.stations] == series.station_ids
    assert loaded.stations[1].latitude == pytest.approx(39.8)


def test_dataset_station_mismatch():
    series = synthetic_series(20, 3, seed=6)
    with pytest.raises(ConfigurationError):
        Dataset(series, grid_stations(4))
    wrong = [Station("x0", 39.5, 116.0), Station("x1", 39.8, 116.0),
             Station("x2", 40.1, 116.0)]
    with pytest.raises(ConfigurationError):
        Dataset(series, wrong)


def test_load_dataset_error_taxonomy(tmp_path):
    garbage = tmp_path / "g.npz"
    garbage.write_bytes(b"\x00\x01junk")
    with pytest.raises(FormatError):
        load_dataset(garbage)
    no_meta = tmp_path / "m.npz"
    np.savez(no_meta, pm25=np.zeros((2, 1)))
    with pytest.raises(FormatError, match="metadata"):
        load_dataset(no_meta)
    wrong_fmt = tmp_path / "w.npz"
    np.savez(wrong_fmt, _meta=np.array(json.dumps({"format": "nope"})))
    with pytest.raises(FormatError, match="format"):
        load_dataset(wrong_fmt)
    missing = tmp_path / "arrays.npz"
    np.savez(missing, _meta=np.array(json.dumps({
        "format": "aircast-dataset-v1", "start_epoch": 0,
        "station_ids": ["a"], "latitudes": [39.0], "longitudes": [116.0],
        "max_distance_km": None})), pm25=np.zeros((2, 1)))
    with pytest.raises(FormatError, match="missing array"):
        load_dataset(missing)


@pytest.mark.parametrize("edit, field", [
    (lambda meta: {k: v for k, v in meta.items() if k != "station_ids"},
     "'station_ids': missing"),
    (lambda meta: {**meta, "latitudes": ["39.5", 39.8, 40.1]}, "'latitudes'"),
    (lambda meta: {**meta, "start_epoch": "0"}, "'start_epoch': '0'"),
    (lambda meta: {**meta, "max_distance_km": "250"}, "'max_distance_km'"),
    (lambda meta: [meta], "not a JSON object"),
], ids=["no-station_ids", "str-in-latitudes", "str-start_epoch",
        "str-max_distance_km", "list-metadata"])
def test_load_dataset_rejects_malformed_metadata(tmp_path, edit, field):
    good = tmp_path / "d.npz"
    save_dataset(Dataset(synthetic_series(12, 3, seed=2), grid_stations(3)),
                 good)
    bad = tmp_path / "bad.npz"
    rewrite_metadata(good, bad, edit)
    with pytest.raises(FormatError) as info:
        load_dataset(bad)
    assert str(info.value).startswith(f"{bad}: ")
    assert field in str(info.value)


def test_series_time_axis():
    series = synthetic_series(10, 2, seed=0)
    assert series.time_at(0) == datetime(2017, 1, 1)
    assert series.time_at(4) == datetime(2017, 1, 1) + timedelta(hours=12)
