"""Station geometry and Laplacian construction against dense eigensolves."""

import math

import numpy as np
import pytest

from aircast.errors import (ConfigurationError, ContractError, DataError,
                            DegenerateGraphError, ParseError)
from aircast.graph import (EARTH_RADIUS_KM, SensorGraph, Station,
                           distance_adjacency, haversine_km, load_stations,
                           normalized_laplacian, scaled_laplacian)

from conftest import grid_stations


def random_symmetric_nonneg(rng, n):
    w = rng.uniform(0.0, 2.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def test_station_coordinate_bounds():
    with pytest.raises(ContractError):
        Station("bad", 91.0, 0.0)
    with pytest.raises(ContractError):
        Station("bad", 0.0, -181.0)


def test_haversine_quarter_circle():
    a = Station("a", 0.0, 0.0)
    b = Station("b", 0.0, 90.0)
    assert haversine_km(a, b) == pytest.approx(math.pi / 2 * EARTH_RADIUS_KM,
                                               rel=1e-12)
    assert haversine_km(a, a) == 0.0
    assert haversine_km(a, b) == haversine_km(b, a)


def test_haversine_known_city_pair():
    # Beijing to Shanghai is roughly 1070 km
    beijing = Station("bj", 39.9042, 116.4074)
    shanghai = Station("sh", 31.2304, 121.4737)
    assert 1000 < haversine_km(beijing, shanghai) < 1150


def test_distance_adjacency_inverse_distance():
    stations = grid_stations(4)
    w = distance_adjacency(stations)
    assert w.shape == (4, 4)
    assert (np.diag(w) == 0).all()
    np.testing.assert_allclose(w, w.T, atol=0)
    i, j = 0, 3
    assert w[i, j] == pytest.approx(1.0 / haversine_km(stations[i], stations[j]),
                                    rel=1e-15)
    assert (w[w > 0] > 0).all()


def test_distance_adjacency_cutoff_sparsifies():
    stations = grid_stations(6)
    full = distance_adjacency(stations)
    dmax = 40.0
    cut = distance_adjacency(stations, max_distance_km=dmax)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            d = haversine_km(stations[i], stations[j])
            if d > dmax:
                assert cut[i, j] == 0.0
            else:
                assert cut[i, j] == full[i, j]
    assert (cut == 0).sum() > (full == 0).sum()


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, 0.0, -5.0])
def test_distance_adjacency_rejects_bad_cutoff(cutoff):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        distance_adjacency(grid_stations(3), max_distance_km=cutoff)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        SensorGraph.from_stations(grid_stations(3), cutoff)


def test_coincident_stations_rejected():
    twins = [Station("a", 40.0, 116.0), Station("b", 40.0, 116.0)]
    with pytest.raises(DegenerateGraphError):
        distance_adjacency(twins)


def test_sensor_graph_duplicate_ids():
    stations = grid_stations(3)
    with pytest.raises(DataError):
        SensorGraph.from_stations(stations + [Station("s0", 41.0, 117.0)])


def test_load_stations_roundtrip(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text("station_id,latitude,longitude\n"
                 "a,39.9,116.3\n"
                 "b,40.1,116.5\n")
    stations = load_stations(p)
    assert [s.station_id for s in stations] == ["a", "b"]
    assert stations[1].longitude == 116.5


def test_load_stations_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("id,lat,lon\na,1,2\n")
    with pytest.raises(ParseError):
        load_stations(bad_header)
    bad_coord = tmp_path / "c.csv"
    bad_coord.write_text("station_id,latitude,longitude\na,x,2\n")
    with pytest.raises(ParseError):
        load_stations(bad_coord)
    dup = tmp_path / "d.csv"
    dup.write_text("station_id,latitude,longitude\na,1,2\na,3,4\n")
    with pytest.raises(DataError):
        load_stations(dup)
    empty = tmp_path / "e.csv"
    empty.write_text("station_id,latitude,longitude\n")
    with pytest.raises(DataError):
        load_stations(empty)
    for lat in ("nan", "inf", "1e400", "95"):
        out_of_range = tmp_path / "r.csv"
        out_of_range.write_text(f"station_id,latitude,longitude\na,1,2\nb,{lat},3\n")
        with pytest.raises(ParseError) as info:
            load_stations(out_of_range)
        assert str(info.value).startswith(f"{out_of_range}:3: latitude ")


def test_normalized_laplacian_two_node_exact():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    lbar = normalized_laplacian(w)
    assert (lbar == np.array([[1.0, -1.0], [-1.0, 1.0]])).all()


def test_scaled_laplacian_two_node_exact():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    scaled = scaled_laplacian(w)
    # lambda_max = 2 here, so the rescaled matrix is exactly Lbar - I
    assert (scaled.matrix == np.array([[0.0, -1.0], [-1.0, 0.0]])).all()
    assert scaled.lambda_max == pytest.approx(2.0, abs=1e-9)


def test_scaled_laplacian_realistic_layouts_top_eigenvalue_one():
    # near-equal top eigenvalues of Lbar on station layouts (grid_stations(35)
    # among them) once defeated an iterative lambda_max estimate
    rng = np.random.default_rng(2024)
    for n in range(2, 81):
        lat = rng.uniform(39.4, 41.1, size=n)
        lon = rng.uniform(115.4, 117.5, size=n)
        layouts = (grid_stations(n),
                   [Station(f"r{i}", a, o) for i, (a, o) in enumerate(zip(lat, lon))])
        for stations in layouts:
            scaled = scaled_laplacian(distance_adjacency(stations))
            top = np.linalg.eigvalsh(scaled.matrix)[-1]
            assert abs(top - 1.0) <= 1e-10, (n, top)


def test_scaled_laplacian_rejects_asymmetric_distance_graph():
    with pytest.raises(ContractError):
        scaled_laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_scaled_laplacian_spectrum_bounded(rng):
    # eigenvalues of 2*Lbar/lambda_max - I must lie in [-1, 1]
    for _ in range(100):
        n = int(rng.integers(2, 11))
        w = random_symmetric_nonneg(rng, n)
        scaled = scaled_laplacian(w)
        eig = np.linalg.eigvalsh(scaled.matrix)
        assert eig.min() >= -1.0 - 1e-9
        assert eig.max() <= 1.0 + 1e-9


def test_normalized_laplacian_isolated_node_identity_row():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 2.0
    lbar = normalized_laplacian(w)
    np.testing.assert_allclose(lbar[2], [0.0, 0.0, 1.0], atol=0)
    np.testing.assert_allclose(lbar[:, 2], [0.0, 0.0, 1.0], atol=0)


def test_normalized_laplacian_scale_invariant_bitwise():
    w = np.array([[0.0, 1.5, 0.25], [1.5, 0.0, 3.0], [0.25, 3.0, 0.0]])
    a = normalized_laplacian(w)
    b = normalized_laplacian(4.0 * w)
    assert (a == b).all()


def test_scaled_laplacian_distance_symmetric(rng):
    w = random_symmetric_nonneg(rng, 6)
    scaled = scaled_laplacian(w)
    np.testing.assert_allclose(scaled.matrix, scaled.matrix.T, atol=1e-12)
