"""Sensor geometry: stations, inverse-distance adjacency, scaled Laplacians."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ContractError, DataError,
                     DegenerateGraphError, DimensionError, NumericError,
                     ParseError)

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Station:
    station_id: str
    latitude: float
    longitude: float

    def __post_init__(self):
        if not (-90.0 <= self.latitude <= 90.0):
            raise ContractError(f"latitude {self.latitude} outside [-90, 90]")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ContractError(f"longitude {self.longitude} outside [-180, 180]")


def haversine_km(a: Station, b: Station) -> float:
    """Great-circle distance in km on a sphere of radius 6371 km."""
    la1, lo1, la2, lo2 = map(math.radians,
                             (a.latitude, a.longitude, b.latitude, b.longitude))
    s = (math.sin((la2 - la1) / 2.0) ** 2
         + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def check_cutoff(max_distance_km: float | None) -> None:
    """A graph distance cutoff is None (no cutoff) or positive and finite."""
    if max_distance_km is not None and not 0 < max_distance_km < math.inf:
        raise ConfigurationError(
            f"max_distance_km must be positive and finite, got {max_distance_km}")


def distance_adjacency(stations: list[Station],
                       max_distance_km: float | None = None) -> np.ndarray:
    """Inverse-distance weights w_ij = 1 / d_ij, zero diagonal.

    The graph is complete unless max_distance_km is given, in which case
    entries for pairs farther apart than the cutoff are zeroed; the cutoff
    must be positive and finite. Coincident stations have no finite weight
    and are rejected.
    """
    check_cutoff(max_distance_km)
    n = len(stations)
    if n == 0:
        raise DataError("no stations")
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = haversine_km(stations[i], stations[j])
            if d == 0.0:
                raise DegenerateGraphError(
                    f"stations {stations[i].station_id!r} and "
                    f"{stations[j].station_id!r} share coordinates")
            if max_distance_km is not None and d > max_distance_km:
                continue
            w[i, j] = w[j, i] = 1.0 / d
    return w


@dataclass(frozen=True)
class SensorGraph:
    """Stations plus their inverse-distance adjacency."""

    stations: tuple
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.stations)
        if self.weights.shape != (n, n):
            raise DimensionError(
                f"adjacency {self.weights.shape} does not match {n} stations")
        if np.diag(self.weights).any():
            raise ContractError("adjacency diagonal must be zero")

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def station_ids(self) -> list[str]:
        return [s.station_id for s in self.stations]

    @classmethod
    def from_stations(cls, stations: list[Station],
                      max_distance_km: float | None = None) -> "SensorGraph":
        ids = [s.station_id for s in stations]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate station ids: {dup}")
        return cls(tuple(stations), distance_adjacency(stations, max_distance_km))


def table_rows(path, header: list | None = None, fields: int | None = None):
    """Stream a CSV table as (line number, fields) pairs, one line at a time.

    With ``header``, the first line must match it name for name after
    stripping whitespace (a None name matches any name) and comes first, as
    (1, the stripped names); every later row has len(header) fields. Without
    it the table is headerless and every row has ``fields`` fields. Blank
    lines are skipped; a row of another width is a ParseError
    "path:line: expected N fields, got M". A file that is not UTF-8 text, or
    that csv cannot split (a field over its size limit), is a ParseError
    naming the file, and the line where csv reports one.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if header is not None:
                names = [h.strip() for h in next(reader, [])]
                if len(names) != len(header) or any(
                        want not in (None, got) for want, got in zip(header, names)):
                    expected = ",".join(h or "<value>" for h in header)
                    raise ParseError(f"{path}: expected header {expected}")
                yield 1, names
                fields = len(header)
            for lineno, row in enumerate(reader, start=1 if header is None else 2):
                if len(row) != fields:
                    if not row:
                        continue
                    raise ParseError(
                        f"{path}:{lineno}: expected {fields} fields, got {len(row)}")
                yield lineno, row
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise ParseError(f"{path}:{reader.line_num}: {e}") from None


def load_stations(path) -> list[Station]:
    """Read a station table CSV with header station_id,latitude,longitude."""
    stations = []
    seen = set()
    rows = table_rows(path, ["station_id", "latitude", "longitude"])
    next(rows)  # the header
    for lineno, row in rows:
        sid = row[0].strip()
        if not sid:
            raise ParseError(f"{path}:{lineno}: empty station_id")
        if sid in seen:
            raise DataError(f"{path}:{lineno}: duplicate station id {sid!r}")
        seen.add(sid)
        try:
            stations.append(Station(sid, float(row[1]), float(row[2])))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric coordinate") from None
        except ContractError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
    if not stations:
        raise DataError(f"{path}: no stations")
    return stations


@dataclass(frozen=True)
class ScaledLaplacian:
    """Rescaled normalized Laplacian of the distance graph with its lambda_max."""

    matrix: np.ndarray
    lambda_max: float


def normalized_laplacian(w: np.ndarray) -> np.ndarray:
    """I - D^(-1/2) W D^(-1/2) with D_ii = sum_j |w_ij|.

    Rows (and matching columns) with zero degree contribute nothing to the
    normalized term, so such a row of the result is an identity row.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"expected square adjacency, got {w.shape}")
    if np.diag(w).any():
        raise ContractError("adjacency diagonal must be zero")
    deg = np.abs(w).sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    # 1/sqrt keeps the result bitwise invariant under power-of-two rescaling
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    return np.eye(w.shape[0]) - inv_sqrt[:, None] * w * inv_sqrt[None, :]


def scaled_laplacian(w: np.ndarray) -> ScaledLaplacian:
    """L = 2*Lbar/lambda_max - I for Lbar = I - D^(-1/2) W D^(-1/2) of the
    symmetric distance graph.

    lambda_max is the top eigenvalue of Lbar, from a dense symmetric
    eigensolve capped at 2 (the upper bound for normalized Laplacians, so
    roundoff cannot push it past). The antisymmetric flow-field graph is
    scaled by physics.flow_scaled_laplacian instead.
    """
    lbar = normalized_laplacian(w)
    if not np.allclose(lbar, lbar.T, atol=1e-12):
        raise ContractError("distance adjacency is not symmetric")
    lam = min(float(np.linalg.eigvalsh(lbar)[-1]), 2.0)
    if lam <= 0:
        raise NumericError(f"non-positive lambda_max {lam}")
    matrix = 2.0 * lbar / lam - np.eye(w.shape[0])
    return ScaledLaplacian(matrix=matrix, lambda_max=lam)
