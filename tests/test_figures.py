"""Figure tests: byte determinism, XML validity, color mapping, and the
flux arithmetic behind the exchange map."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from aircast.errors import (ContractError, DataError, DimensionError,
                            UnknownStationError)
from aircast.figures import (CANVAS_H, CANVAS_W, MERCATOR_MAX_LAT,
                             diffusion_flux,
                             diverging_color, heat_color,
                             render_diffusion_lines, render_wind_heatmap)
from aircast.graph import SensorGraph, Station

from conftest import grid_stations, toy_graph


def parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


def test_heat_color_endpoints():
    assert heat_color(0.0, 100.0) == "rgb(247,251,255)"
    assert heat_color(100.0, 100.0) == "rgb(103,0,13)"
    assert heat_color(0.0, 0.0) == "rgb(247,251,255)"  # degenerate range maps low
    assert heat_color(-1e308, 1e-300) == "rgb(247,251,255)"  # no overflow


def test_diverging_color_endpoints():
    assert diverging_color(0.0) == "rgb(247,247,247)"
    assert diverging_color(1.0) == "rgb(178,24,43)"
    assert diverging_color(-1.0) == "rgb(33,102,172)"


def test_wind_heatmap_deterministic_and_valid(tmp_path, rng):
    stations = grid_stations(5)
    field = rng.uniform(10, 110, size=5)
    wind = rng.uniform(-4, 4, size=(5, 2))
    a = render_wind_heatmap(stations, field, wind, tmp_path / "a.svg")
    b = render_wind_heatmap(stations, field, wind, tmp_path / "b.svg")
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    root = parse_svg(a)
    assert root.tag.endswith("svg")
    assert root.get("width") == str(CANVAS_W)
    assert root.get("height") == str(CANVAS_H)
    # one marker circle and one id label per station
    body = ET.tostring(root, encoding="unicode")
    assert body.count("circle") >= 5
    for s in stations:
        assert s.station_id in body


def test_wind_heatmap_zero_wind_omits_arrow(tmp_path):
    stations = grid_stations(2)
    wind = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = render_wind_heatmap(stations, [50.0, 60.0], wind, tmp_path / "w.svg")
    assert svg.count("<line") == 1
    assert svg.count("<polygon") == 1
    none = render_wind_heatmap(stations, [50.0, 60.0], np.zeros((2, 2)),
                               tmp_path / "n.svg")
    assert "<line" not in none
    parse_svg(none)


def test_wind_heatmap_single_station(tmp_path):
    svg = render_wind_heatmap(grid_stations(1), [42.0], [[1.0, -1.0]],
                              tmp_path / "one.svg")
    parse_svg(svg)
    assert "s0" in svg


def test_wind_heatmap_validation(tmp_path):
    stations = grid_stations(3)
    with pytest.raises(DimensionError):
        render_wind_heatmap(stations, [1.0, 2.0], np.zeros((3, 2)),
                            tmp_path / "x.svg")
    with pytest.raises(DimensionError):
        render_wind_heatmap(stations, [1.0, 2.0, 3.0], np.zeros((3, 3)),
                            tmp_path / "x.svg")


def test_diffusion_flux_three_node_hand_case():
    # w_01 = 2, w_02 = 0.5; x = (100, 40, 160); k = 0.1
    # flux to node 1: 0.1 * 2 * (100 - 40) = 12 (outflow)
    # flux to node 2: 0.1 * 0.5 * (100 - 160) = -3 (inflow)
    weights = np.array([[0.0, 2.0, 0.5],
                        [2.0, 0.0, 0.0],
                        [0.5, 0.0, 0.0]])
    flux = diffusion_flux(weights, [100.0, 40.0, 160.0], 0, 0.1)
    np.testing.assert_allclose(flux, [0.0, 12.0, -3.0], atol=1e-12)


def test_diffusion_flux_antisymmetric_pairs(rng):
    n = 5
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    x = rng.uniform(0, 100, size=n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            fij = diffusion_flux(w, x, i, 0.2)[j]
            fji = diffusion_flux(w, x, j, 0.2)[i]
            assert fij == pytest.approx(-fji, abs=1e-12)


def test_diffusion_flux_validation():
    with pytest.raises(DimensionError):
        diffusion_flux(np.zeros((3, 3)), [1.0, 2.0], 0, 0.1)
    with pytest.raises(ContractError,
                       match="^diffusion coefficient must be non-negative$"):
        diffusion_flux(np.zeros((2, 2)), [1.0, 2.0], 0, -3.0)


def test_diffusion_lines_deterministic_and_valid(tmp_path, rng):
    graph = toy_graph(5)
    field = rng.uniform(20, 120, size=5)
    a = render_diffusion_lines(graph, field, "s2", 0.1, tmp_path / "a.svg")
    b = render_diffusion_lines(graph, field, "s2", 0.1, tmp_path / "b.svg")
    assert a == b
    root = parse_svg(a)
    assert root.get("viewBox") == f"0 0 {CANVAS_W} {CANVAS_H}"
    # dense toy graph: the source connects to all four other stations
    assert a.count("<line") == 4
    assert "source s2" in a
    assert "exchange coefficient 0.1" in a


def test_diffusion_lines_colors_follow_gradient(tmp_path):
    # two neighbors, one much lower and one much higher than the source
    stations = [Station("mid", 39.5, 116.0), Station("low", 39.8, 116.0),
                Station("high", 39.5, 116.3)]
    graph = SensorGraph.from_stations(stations)
    field = [100.0, 0.0, 200.0]
    svg = render_diffusion_lines(graph, field, "mid", 0.1, tmp_path / "g.svg")
    flux = diffusion_flux(graph.weights, field, 0, 0.1)
    maxabs = np.abs(flux).max()
    expected = [diverging_color(flux[j] / maxabs) for j in (1, 2)]
    assert expected[0] != expected[1]
    for color in expected:
        assert color in svg
    assert flux[1] > 0 > flux[2]  # outflow to "low", inflow from "high"


def test_diffusion_lines_unknown_source(tmp_path):
    with pytest.raises(UnknownStationError, match="'s9'"):
        render_diffusion_lines(toy_graph(3), [1.0, 2.0, 3.0], "s9", 0.1,
                               tmp_path / "x.svg")
    with pytest.raises(DimensionError):
        render_diffusion_lines(toy_graph(3), [1.0, 2.0], "s0", 0.1,
                               tmp_path / "x.svg")


def test_diffusion_lines_uniform_field_neutral(tmp_path):
    svg = render_diffusion_lines(toy_graph(4), np.full(4, 75.0), "s0", 0.1,
                                 tmp_path / "u.svg")
    lines = [ln for ln in svg.splitlines() if ln.startswith("<line")]
    assert lines
    for ln in lines:
        assert "rgb(247,247,247)" in ln  # zero flux renders the neutral midpoint
        assert 'stroke-width="1.00"' in ln


def test_renderers_escape_station_ids(tmp_path):
    stations = [Station("a<b", 39.5, 116.0), Station("c&d", 39.8, 116.2)]
    svg = render_wind_heatmap(stations, [10.0, 20.0], np.ones((2, 2)),
                              tmp_path / "esc.svg")
    parse_svg(svg)  # would fail on unescaped markup
    assert "a&lt;b" in svg
    assert "c&amp;d" in svg


@pytest.mark.parametrize("lat", [-90.0, 90.0, 85.06, -85.06])
def test_renderers_reject_stations_beyond_mercator(tmp_path, lat):
    # the projection is -inf at -90 and off the square map past 85.0511
    stations = [Station("polar", lat, 116.4), Station("b", 40.0, 116.5)]
    out = tmp_path / "map.svg"
    message = f"^station 'polar' at latitude {lat:g} is beyond"
    with pytest.raises(DataError, match=message):
        render_wind_heatmap(stations, [10.0, 20.0], np.ones((2, 2)), out)
    with pytest.raises(DataError, match=message):
        render_diffusion_lines(SensorGraph.from_stations(stations),
                               [10.0, 20.0], "polar", 1.0, out)
    assert not out.exists()


def test_renderers_draw_stations_at_the_mercator_limit(tmp_path):
    stations = [Station("n", MERCATOR_MAX_LAT, 0.0),
                Station("s", -MERCATOR_MAX_LAT, 10.0)]
    svg = render_wind_heatmap(stations, [1.0, 2.0], np.ones((2, 2)),
                              tmp_path / "map.svg")
    assert "nan" not in svg and "inf" not in svg
    parse_svg(svg)
