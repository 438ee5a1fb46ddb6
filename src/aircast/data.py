"""Hourly readings to model-ready windows.

Pipeline: parse hourly CSV onto a dense (hour, station) grid -> impute gaps
-> aggregate to 3-hour blocks with wind converted to (u, v) components ->
slide fixed windows -> chronological split with train-only normalization
statistics. Processed series persist as .npz containers with JSON metadata.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import zipfile
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigurationError, DataError, FormatError, ParseError,
                     UnknownStationError)
from .graph import Station

log = logging.getLogger(__name__)

EPOCH = datetime(1970, 1, 1)
READINGS_HEADER = ["timestamp", "station_id", "pm25", "wind_speed", "wind_direction"]
CHANNELS = ("pm25", "wind_speed", "wind_direction")
HOUR = timedelta(hours=1)
IMPUTE_WINDOW = 24   # hours of history a missing reading is averaged over


@dataclass
class HourlySeries:
    """Dense hourly grid; NaN encodes missing values."""

    start: datetime
    station_ids: list[str]
    pm25: np.ndarray            # (hours, n)
    wind_speed: np.ndarray
    wind_direction: np.ndarray

    @property
    def hours(self) -> int:
        return self.pm25.shape[0]

    def time_at(self, index: int) -> datetime:
        return self.start + timedelta(hours=index)


@dataclass
class Series3h:
    """3-hour blocks: PM2.5 block means plus mean wind components."""

    start: datetime
    station_ids: list[str]
    pm25: np.ndarray   # (steps, n)
    wind_u: np.ndarray
    wind_v: np.ndarray

    @property
    def steps(self) -> int:
        return self.pm25.shape[0]

    def time_at(self, index: int) -> datetime:
        return self.start + timedelta(hours=3 * index)


@dataclass(frozen=True)
class NormStats:
    mean: float
    std: float

    def __post_init__(self):
        if not (self.std > 0):
            raise DataError(f"normalization std must be positive, got {self.std}")

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass(frozen=True)
class WindowSample:
    """History/future pair for one forecast origin.

    x arrays are raw ug/m3 out of make_windows; inside a DatasetSplit they
    are in normalized units. Wind components stay physical (m/s).
    """

    x_hist: np.ndarray    # (history, n, 1)
    p_hist: np.ndarray    # (history, n, 2)
    x_future: np.ndarray  # (horizon, n, 1)
    start_time: datetime
    start_index: int


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list
    stats: NormStats
    ratio: tuple


def _parse_timestamp(text: str, where: str) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"{where}: bad timestamp {text!r}") from None
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    if ts.minute or ts.second or ts.microsecond:
        raise ParseError(f"{where}: timestamp {text!r} is not on the hour")
    return ts


def parse_finite(text: str, path, lineno: int, column: str,
                 gap: bool = False) -> float:
    """One CSV field as a finite float.

    Non-numeric text, nan, inf and overflowing literals such as 1e400 are a
    ParseError naming the file, line and column. With ``gap``, a blank or
    whitespace-only field is a missing value and comes back as NaN.
    """
    try:
        value = float(text)
    except ValueError:
        if gap and not text.strip():
            return math.nan
        raise ParseError(f"{path}:{lineno}: non-numeric {column} "
                         f"{text.strip()!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: non-finite {column}")
    return value


def parse_readings(path, station_ids) -> HourlySeries:
    """Read the readings CSV onto a dense hourly grid.

    Rows may arrive in any order; the grid spans min..max timestamp. A
    duplicate (timestamp, station) pair or a malformed row is an error naming
    the line; a station id outside the supplied registry is an error.
    """
    station_ids = list(station_ids)
    index = {sid: i for i, sid in enumerate(station_ids)}
    n = len(station_ids)
    hour_of: dict[str, int] = {}   # timestamp text -> hours since EPOCH
    seen: dict[int, int] = {}      # hour * n + column -> line number
    pm25, wind_speed, wind_direction = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != READINGS_HEADER:
            raise ParseError(f"{path}: expected header {','.join(READINGS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            sid = row[1].strip()
            col = index.get(sid)
            if col is None:
                raise UnknownStationError(
                    f"{path}:{lineno}: unknown station {sid!r}")
            hour = hour_of.get(row[0])
            if hour is None:
                ts = _parse_timestamp(row[0].strip(), f"{path}:{lineno}")
                hour = hour_of[row[0]] = (ts - EPOCH) // HOUR
            pm25.append(parse_finite(row[2], path, lineno, "pm25", gap=True))
            wind_speed.append(
                parse_finite(row[3], path, lineno, "wind_speed", gap=True))
            wind_direction.append(
                parse_finite(row[4], path, lineno, "wind_direction", gap=True))
            key = hour * n + col
            first = seen.setdefault(key, lineno)
            if first != lineno:
                raise ParseError(
                    f"{path}:{lineno}: duplicate reading for {sid} at "
                    f"{EPOCH + hour * HOUR} (first seen on line {first})")
    if not seen:
        raise DataError(f"{path}: no readings")
    keys = np.fromiter(seen, dtype=np.int64, count=len(seen))
    first_hour = int(keys.min()) // n
    hours = int(keys.max()) // n - first_hour + 1
    flat = keys - first_hour * n    # row-major index into the (hours, n) grid
    grids = {}
    for ch, values in zip(CHANNELS, (pm25, wind_speed, wind_direction)):
        grid = np.full((hours, n), np.nan)
        grid.flat[flat] = values
        grids[ch] = grid
    log.info("parsed %d readings onto %d hours x %d stations",
             len(seen), hours, n)
    return HourlySeries(start=EPOCH + first_hour * HOUR,
                        station_ids=station_ids,
                        pm25=grids["pm25"], wind_speed=grids["wind_speed"],
                        wind_direction=grids["wind_direction"])


def _impute_grid(grid: np.ndarray, observed: np.ndarray,
                 global_mean: float) -> np.ndarray:
    """Fill every station column of one hourly channel.

    A missing entry takes the mean of the station's observed values in the
    preceding 24 hours; if that window holds nothing, the last observed
    value; leading gaps (nothing observed yet) take the dataset-wide mean of
    the channel.
    """
    t, c = np.nonzero(~observed)
    # IMPUTE_WINDOW rows on top: padded rows t..t+23 are the hours t-24..t-1
    pad = ((IMPUTE_WINDOW, 0), (0, 0))
    values = sliding_window_view(np.pad(grid, pad), IMPUTE_WINDOW, axis=0)[t, c]
    seen = sliding_window_view(np.pad(observed, pad), IMPUTE_WINDOW, axis=0)[t, c]
    # observed values first, in hour order: a row's window is its first m
    order = np.argsort(~seen, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    count = seen.sum(axis=1)
    hour = np.arange(grid.shape[0])[:, None]
    last = np.maximum.accumulate(np.where(observed, hour, -1), axis=0)[t, c]
    filled = np.where(last >= 0, grid[np.maximum(last, 0), c], global_mean)
    for m in np.unique(count[count > 0]):
        rows = count == m
        # a mean over exactly m contiguous values per row is the reduction
        # numpy runs on that window alone, so the bits match it
        filled[rows] = values[rows, :m].mean(axis=1)
    out = grid.copy()
    out[t, c] = filled
    return out


def impute_missing(series: HourlySeries) -> HourlySeries:
    """Fill every gap; observed values are never modified."""
    filled = {}
    for ch in CHANNELS:
        grid = getattr(series, ch)
        observed = np.isfinite(grid)
        if not observed.any():
            raise DataError(f"channel {ch} has no observed values")
        empty = ~observed.any(axis=0)
        if empty.any():
            raise DataError(
                f"station {series.station_ids[int(np.argmax(empty))]!r} has "
                f"no observed {ch} values")
        filled[ch] = _impute_grid(grid, observed, float(np.nanmean(grid)))
        log.info("imputed %d of %d hourly %s cells",
                 grid.size - np.count_nonzero(observed), grid.size, ch)
    return HourlySeries(start=series.start, station_ids=list(series.station_ids),
                        pm25=filled["pm25"], wind_speed=filled["wind_speed"],
                        wind_direction=filled["wind_direction"])


def wind_components(speed: np.ndarray, direction_deg: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Meteorological direction (blowing FROM, degrees clockwise of north)
    to eastward u and northward v flow components."""
    rad = np.asarray(direction_deg, dtype=np.float64) * np.pi / 180.0
    u = -np.asarray(speed, dtype=np.float64) * np.sin(rad)
    v = -np.asarray(speed, dtype=np.float64) * np.cos(rad)
    return u, v


def resample_3h(series: HourlySeries) -> Series3h:
    """Mean-pool complete 3-hour blocks; a trailing partial block is dropped."""
    if np.isnan(series.pm25).any() or np.isnan(series.wind_speed).any() \
            or np.isnan(series.wind_direction).any():
        raise DataError("resample_3h requires an imputed series")
    hours = series.hours
    steps = hours // 3
    if steps == 0:
        raise DataError(f"series of {hours} hours has no complete 3-hour block")
    dropped = hours - 3 * steps
    if dropped:
        log.warning("dropping %d trailing hour(s) short of a 3-hour block", dropped)
    n = len(series.station_ids)
    pm = series.pm25[:3 * steps].reshape(steps, 3, n).mean(axis=1)
    u, v = wind_components(series.wind_speed, series.wind_direction)
    u3 = u[:3 * steps].reshape(steps, 3, n).mean(axis=1)
    v3 = v[:3 * steps].reshape(steps, 3, n).mean(axis=1)
    return Series3h(start=series.start, station_ids=list(series.station_ids),
                    pm25=pm, wind_u=u3, wind_v=v3)


def make_windows(series: Series3h, history_steps: int = 24,
                 horizon_steps: int = 24, stride: int = 1) -> list[WindowSample]:
    """Slide (history + horizon)-step windows over the 3-hour series.

    Window arrays are read-only views of the series, not copies.
    """
    if history_steps < 1 or horizon_steps < 1 or stride < 1:
        raise ConfigurationError("window sizes and stride must be positive")
    total = history_steps + horizon_steps
    if series.steps < total:
        raise DataError(
            f"series of {series.steps} steps is shorter than one "
            f"{total}-step window")
    windows = []
    wind = np.stack([series.wind_u, series.wind_v], axis=-1)  # (steps, n, 2)
    x = series.pm25[..., None]                                # (steps, n, 1)
    wind.flags.writeable = x.flags.writeable = False
    for s in range(0, series.steps - total + 1, stride):
        windows.append(WindowSample(
            x_hist=x[s:s + history_steps],
            p_hist=wind[s:s + history_steps],
            x_future=x[s + history_steps:s + total],
            start_time=series.time_at(s),
            start_index=s,
        ))
    return windows


def split_counts(n: int, ratio: tuple = (7, 1, 2)) -> tuple[int, int, int]:
    """Partition sizes: floor for train and val, remainder to test."""
    if len(ratio) != 3 or any(r <= 0 for r in ratio):
        raise ConfigurationError(f"ratio must be three positive parts, got {ratio}")
    if all(float(r).is_integer() for r in ratio):
        # exact floor for integer ratios like 7:1:2
        total = int(sum(ratio))
        n_train = (n * int(ratio[0])) // total
        n_val = (n * int(ratio[1])) // total
    else:
        total = float(sum(ratio))
        n_train = int(n * ratio[0] / total)
        n_val = int(n * ratio[1] / total)
    n_test = n - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise ConfigurationError(
            f"split {ratio} of {n} windows leaves an empty partition "
            f"({n_train}/{n_val}/{n_test})")
    return n_train, n_val, n_test


def chronological_split(windows: list[WindowSample],
                        ratio: tuple = (7, 1, 2)) -> DatasetSplit:
    """Split window starts chronologically and normalize from train stats.

    floor(train_frac * n) windows go to train, floor(val_frac * n) to val,
    the remainder to test. PM2.5 mean/std come from the train windows only;
    all three partitions are returned in normalized units.
    """
    n = len(windows)
    n_train, n_val, _ = split_counts(n, ratio)
    ordered = sorted(windows, key=lambda w: w.start_index)
    train = ordered[:n_train]
    val = ordered[n_train:n_train + n_val]
    test = ordered[n_train + n_val:]
    values = np.concatenate([np.concatenate([w.x_hist.ravel(), w.x_future.ravel()])
                             for w in train])
    stats = NormStats(mean=float(values.mean()), std=float(values.std()))

    def norm(part):
        return [replace(w, x_hist=stats.normalize(w.x_hist),
                        x_future=stats.normalize(w.x_future)) for w in part]

    return DatasetSplit(train=norm(train), val=norm(val), test=norm(test),
                        stats=stats, ratio=tuple(ratio))


DATASET_FORMAT = "aircast-dataset-v1"


@dataclass
class Dataset:
    """Processed series, station geometry, and the graph distance cutoff."""

    series: Series3h
    stations: list
    max_distance_km: float | None = None

    def __post_init__(self):
        if [s.station_id for s in self.stations] != list(self.series.station_ids):
            raise ConfigurationError("station table does not match series columns")


def save_dataset(dataset: Dataset, path) -> None:
    """Persist a processed dataset as one .npz file with JSON metadata."""
    series = dataset.series
    meta = {
        "format": DATASET_FORMAT,
        "start_epoch": int((series.start - EPOCH).total_seconds()),
        "station_ids": list(series.station_ids),
        "latitudes": [s.latitude for s in dataset.stations],
        "longitudes": [s.longitude for s in dataset.stations],
        "max_distance_km": dataset.max_distance_km,
    }
    with open(path, "wb") as fh:
        np.savez(fh, _meta=np.array(json.dumps(meta)),
                 pm25=series.pm25, wind_u=series.wind_u, wind_v=series.wind_v)


NUMBER = (int, float)


def has_type(value, kind) -> bool:
    """Whether a JSON value has ``kind``: a type (a bool is no number), a
    tuple of kinds (any of them) or [kind] (a list of that kind)."""
    if isinstance(kind, tuple):
        return any(has_type(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(has_type(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def read_meta(archive, path, fmt: str, schema: dict) -> dict:
    """JSON metadata of an open .npz container in format ``fmt``.

    Every field in ``schema`` must have its kind (see ``has_type``); a
    missing field reads as None. Anything else is a FormatError naming the
    file.
    """
    if "_meta" not in archive:
        raise FormatError(f"{path}: missing metadata entry")
    try:
        meta = json.loads(str(archive["_meta"]))
    except json.JSONDecodeError:
        raise FormatError(f"{path}: corrupt metadata") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    if meta.get("format") != fmt:
        raise FormatError(f"{path}: unsupported format {meta.get('format')!r}")
    for key, kind in schema.items():
        if not has_type(meta.get(key), kind):
            found = f"{meta[key]!r}" if key in meta else "missing"
            raise FormatError(f"{path}: bad metadata field {key!r}: {found}")
    return meta


_DATASET_SCHEMA = {"start_epoch": int, "station_ids": [str],
                   "latitudes": [NUMBER], "longitudes": [NUMBER],
                   "max_distance_km": NUMBER + (type(None),)}


def load_dataset(path) -> Dataset:
    try:
        archive = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, OSError, ValueError) as e:
        raise FormatError(f"{path}: not a readable container ({e})") from None
    with archive:
        meta = read_meta(archive, path, DATASET_FORMAT, _DATASET_SCHEMA)
        try:
            pm25 = archive["pm25"]
            wind_u = archive["wind_u"]
            wind_v = archive["wind_v"]
        except KeyError as e:
            raise FormatError(f"{path}: missing array {e}") from None
    stations = [Station(sid, lat, lon) for sid, lat, lon
                in zip(meta["station_ids"], meta["latitudes"], meta["longitudes"])]
    series = Series3h(start=EPOCH + timedelta(seconds=meta["start_epoch"]),
                      station_ids=list(meta["station_ids"]),
                      pm25=pm25, wind_u=wind_u, wind_v=wind_v)
    return Dataset(series, stations, meta.get("max_distance_km"))
