"""Deterministic SVG figure rendering.

No plotting library: figures are assembled as plain SVG strings with
fixed-precision coordinates so the same inputs always produce the same
bytes. Station positions come from a spherical mercator projection
fitted to the canvas.
"""

from __future__ import annotations

import math
# not xml.sax.saxutils's escape, whose import loads urllib.request; with
# quote=False this one escapes the same three characters, &, < and >
from html import escape

import numpy as np

from .errors import (ContractError, DataError, DimensionError, NumericError,
                     UnknownStationError)
from .graph import SensorGraph, Station

CANVAS_W = 800
CANVAS_H = 600
MARGIN = 60.0
ARROW_SCALE = 16.0  # wind arrow length in px per unit of speed

HEAT_LOW = (247, 251, 255)
HEAT_HIGH = (103, 0, 13)
DIV_NEG = (33, 102, 172)
DIV_POS = (178, 24, 43)
DIV_MID = (247, 247, 247)


def _fmt(x: float) -> str:
    # constant precision keeps output byte-stable across runs
    return f"{x:.2f}"


# Web Mercator's latitude limit, atan(sinh(pi)) in degrees, where its map
# of the whole globe is square
MERCATOR_MAX_LAT = math.degrees(math.atan(math.sinh(math.pi)))


def _mercator_xy(stations: list[Station]) -> np.ndarray:
    """Canvas (x, y) of each station. A station beyond Web Mercator's
    +-85.0511 degrees, where the projection runs off to infinity at the
    poles, is a DataError naming it."""
    for s in stations:
        if abs(s.latitude) > MERCATOR_MAX_LAT:
            raise DataError(
                f"station {s.station_id!r} at latitude {s.latitude:g} is "
                f"beyond the map's +-{MERCATOR_MAX_LAT:.4f} degrees")
    lon = np.array([s.longitude for s in stations])
    lat = np.array([s.latitude for s in stations])
    mx = np.radians(lon)
    my = np.log(np.tan(np.pi / 4 + np.radians(lat) / 2))
    span_x = max(mx.max() - mx.min(), 1e-9)
    span_y = max(my.max() - my.min(), 1e-9)
    scale = min((CANVAS_W - 2 * MARGIN) / span_x, (CANVAS_H - 2 * MARGIN) / span_y)
    cx = (mx.min() + mx.max()) / 2
    cy = (my.min() + my.max()) / 2
    px = CANVAS_W / 2 + (mx - cx) * scale
    py = CANVAS_H / 2 - (my - cy) * scale
    return np.stack([px, py], axis=1)


def _lerp_color(lo, hi, t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    rgb = [round(a + (b - a) * t) for a, b in zip(lo, hi)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def heat_color(value: float, vmax: float) -> str:
    """Linear colormap over [0, vmax]; vmax <= 0 pins everything low."""
    # clamped before dividing, so a tiny vmax cannot overflow the quotient
    t = min(max(value, 0.0), vmax) / vmax if vmax > 0 else 0.0
    return _lerp_color(HEAT_LOW, HEAT_HIGH, t)


def diverging_color(t: float) -> str:
    """Diverging colormap for t in [-1, 1], white at zero."""
    if t < 0:
        return _lerp_color(DIV_MID, DIV_NEG, -t)
    return _lerp_color(DIV_MID, DIV_POS, t)


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<title>{escape(title, quote=False)}</title>',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>',
    ]


def _svg_close(parts: list[str], path) -> str:
    """Close the SVG begun by _svg_open, write it to ``path`` and return it."""
    svg = "\n".join(parts + ["</svg>"]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return svg


def _station_markers(stations, xy, colors) -> list[str]:
    parts = []
    for s, (x, y), fill in zip(stations, xy, colors):
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="7" '
                     f'fill="{fill}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x + 10)}" y="{_fmt(y - 10)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#222222">{escape(s.station_id, quote=False)}</text>')
    return parts


def render_wind_heatmap(stations: list[Station], field: np.ndarray,
                        wind: np.ndarray, path) -> str:
    """Station map: circles colored by concentration, arrows by wind.

    Arrow length is proportional to wind speed; stations with exactly
    zero wind get no arrow. A wind whose arrow length overflows is a
    NumericError. Writes the SVG to ``path`` and returns it.
    """
    field = np.asarray(field, dtype=np.float64).reshape(-1)
    wind = np.asarray(wind, dtype=np.float64)
    n = len(stations)
    if field.shape != (n,):
        raise DimensionError(f"field must have {n} values, got {field.shape}")
    if wind.shape != (n, 2):
        raise DimensionError(f"wind must be ({n}, 2), got {wind.shape}")
    xy = _mercator_xy(stations)
    vmax = float(field.max()) if n else 0.0
    colors = [heat_color(v, vmax) for v in field]
    parts = _svg_open("wind and concentration map")
    for s, (x, y), (u, v) in zip(stations, xy, wind):
        speed = math.hypot(u, v)
        if speed == 0.0:
            continue
        # a finite length bounds u and v too, so no coordinate overflows
        if not math.isfinite(speed * ARROW_SCALE):
            raise NumericError(f"wind at station {s.station_id!r} is too "
                               f"strong to draw: speed {speed:.4g}")
        # screen y grows downward, so northward wind points up
        tip_x = x + u * ARROW_SCALE
        tip_y = y - v * ARROW_SCALE
        ux, uy = (tip_x - x) / (speed * ARROW_SCALE), (tip_y - y) / (speed * ARROW_SCALE)
        px, py = -uy, ux
        head = 6.0
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(tip_x)}" '
                     f'y2="{_fmt(tip_y)}" stroke="#1a5276" stroke-width="1.5"/>')
        parts.append(
            '<polygon points="'
            f'{_fmt(tip_x)},{_fmt(tip_y)} '
            f'{_fmt(tip_x - head * ux + 0.5 * head * px)},{_fmt(tip_y - head * uy + 0.5 * head * py)} '
            f'{_fmt(tip_x - head * ux - 0.5 * head * px)},{_fmt(tip_y - head * uy - 0.5 * head * py)}'
            '" fill="#1a5276"/>')
    parts.extend(_station_markers(stations, xy, colors))
    parts.append(f'<text x="{_fmt(MARGIN)}" y="{_fmt(CANVAS_H - 20.0)}" '
                 f'font-family="sans-serif" font-size="12" fill="#222222">'
                 f'max concentration {vmax:.4g}, arrow scale {ARROW_SCALE:.4g} px per unit speed</text>')
    return _svg_close(parts, path)


def diffusion_flux(weights: np.ndarray, field: np.ndarray, src: int,
                   coefficient: float) -> np.ndarray:
    """Pairwise diffusive flux coefficient * w_ij * (x_i - x_j) out of node i.

    Positive entries mean flow away from the source node (it sits higher
    than the neighbor); the source's own entry is zero. A negative
    coefficient, which would turn inflow into outflow, is a ContractError.
    """
    if coefficient < 0:
        raise ContractError("diffusion coefficient must be non-negative")
    weights = np.asarray(weights, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64).reshape(-1)
    if weights.shape != (field.size, field.size):
        raise DimensionError(
            f"adjacency {weights.shape} does not match field of {field.size}")
    flux = coefficient * weights[src] * (field[src] - field)
    flux[src] = 0.0
    return flux


def render_diffusion_lines(graph: SensorGraph, field: np.ndarray,
                           source_id: str, coefficient: float, path) -> str:
    """Instantaneous diffusive exchange between one station and the rest.

    Each line from the source carries flux coefficient * w_ij * (x_i - x_j);
    red means net flow away from the source, blue toward it. A flux that
    overflows is a NumericError. Writes the SVG to ``path`` and returns it.
    """
    field = np.asarray(field, dtype=np.float64).reshape(-1)
    stations = list(graph.stations)
    n = len(stations)
    if field.shape != (n,):
        raise DimensionError(f"field must have {n} values, got {field.shape}")
    ids = graph.station_ids
    if source_id not in ids:
        raise UnknownStationError(f"unknown source station {source_id!r}")
    src = ids.index(source_id)
    weights = graph.weights
    with np.errstate(over="ignore", invalid="ignore"):
        flux = diffusion_flux(weights, field, src, coefficient)
    if (bad := ~np.isfinite(flux)).any():
        raise NumericError(f"diffusive flux from {source_id!r} to "
                           f"{ids[int(np.argmax(bad))]!r} is not finite")
    maxabs = float(np.max(np.abs(flux)))
    xy = _mercator_xy(stations)
    vmax = float(field.max()) if n else 0.0
    parts = _svg_open("diffusive exchange map")
    for j in range(n):
        if j == src or weights[src, j] == 0.0:
            continue
        t = flux[j] / maxabs if maxabs > 0 else 0.0
        width = 1.0 + 3.0 * abs(t)
        parts.append(f'<line x1="{_fmt(xy[src, 0])}" y1="{_fmt(xy[src, 1])}" '
                     f'x2="{_fmt(xy[j, 0])}" y2="{_fmt(xy[j, 1])}" '
                     f'stroke="{diverging_color(t)}" stroke-width="{_fmt(width)}"/>')
    colors = [heat_color(v, vmax) for v in field]
    parts.extend(_station_markers(stations, xy, colors))
    legend = [
        f'source {source_id}',
        f'red: outflow from source, blue: inflow, max |flux| {maxabs:.4g}',
        f'exchange coefficient {coefficient:.4g}',
    ]
    for k, line in enumerate(legend):
        parts.append(f'<text x="{_fmt(MARGIN)}" y="{_fmt(CANVAS_H - 48.0 + 14.0 * k)}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'fill="#222222">{escape(line, quote=False)}</text>')
    return _svg_close(parts, path)
