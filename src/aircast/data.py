"""Hourly readings to model-ready windows.

Pipeline: parse hourly CSV onto a dense (hour, station) grid -> impute gaps
-> aggregate to 3-hour blocks with wind converted to (u, v) components ->
slide fixed windows -> chronological split with train-only normalization
statistics. Processed series persist as .npz containers with JSON metadata.
"""

from __future__ import annotations

import json
import logging
import math
import sys
import zipfile
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigurationError, ContractError, DataError, FormatError,
                     ParseError, UnknownStationError)
from .graph import Station, check_cutoff, table_rows

log = logging.getLogger(__name__)

EPOCH = datetime(1970, 1, 1)
READINGS_HEADER = ["timestamp", "station_id", "pm25", "wind_speed", "wind_direction"]
CHANNELS = ("pm25", "wind_speed", "wind_direction")
# the values an instrument can give; a reading outside them is a ParseError
READING_RANGES = {"pm25": (0.0, math.inf), "wind_speed": (0.0, math.inf),
                  "wind_direction": (0.0, 360.0)}
HOUR = timedelta(hours=1)
STEP_HOURS = 3       # hours in one model step; every step count derives from it
STEP = timedelta(hours=STEP_HOURS)
IMPUTE_WINDOW = 24   # hours of history a missing reading is averaged over
DEFAULT_SPLIT = (7, 1, 2)  # train:val:test windows


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
        return self.start + index * STEP


@dataclass(frozen=True)
class NormStats:
    """Train-partition PM2.5 mean (finite) and std (positive and finite)."""

    mean: float
    std: float

    def __post_init__(self):
        if not -math.inf < self.mean < math.inf:
            raise DataError(f"normalization mean must be finite, got {self.mean}")
        if not 0 < self.std < math.inf:
            raise DataError(
                f"normalization std must be positive and finite, got {self.std}")

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
    duplicate (timestamp, station) pair, a malformed row or a reading
    outside its READING_RANGES entry is an error naming the line; a station
    id outside the supplied registry is an error.
    """
    station_ids = list(station_ids)
    index = {sid: i for i, sid in enumerate(station_ids)}
    n = len(station_ids)
    hour_of: dict[str, int] = {}   # timestamp text -> hours since EPOCH
    seen: dict[int, int] = {}      # hour * n + column -> line number
    pm25, wind_speed, wind_direction = [], [], []
    rows = table_rows(path, READINGS_HEADER)
    next(rows)  # the header
    for lineno, row in rows:
        sid = row[1].strip()
        col = index.get(sid)
        if col is None:
            raise UnknownStationError(f"{path}:{lineno}: unknown station {sid!r}")
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
        values = np.array(values)
        lo, hi = READING_RANGES[ch]
        bad = (values < lo) | (values > hi)  # a blank, NaN, is neither
        if bad.any():
            i = int(np.argmax(bad))
            lineno = list(seen.values())[i]  # seen is in file order
            raise ParseError(f"{path}:{lineno}: {ch} {float(values[i])!r} "
                             f"outside [{lo:g}, {hi:g}]")
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


def _check_means(grid: np.ndarray, station_ids: list[str], what: str) -> None:
    """A NaN or inf in a grid of means (readings too large for float64 to
    sum) is a DataError naming the first such station and what was
    averaged."""
    finite = np.isfinite(grid)
    if not finite.all():
        bad = ~finite.all(axis=0)
        raise DataError(
            f"station {station_ids[int(np.argmax(bad))]!r}: {what} is not "
            "finite; its readings are too large to average")


def impute_missing(series: HourlySeries) -> HourlySeries:
    """Fill every gap; observed values are never modified. A mean that
    overflows is a DataError naming its station and channel."""
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
        # an overflow is caught below, on the filled grid
        with np.errstate(over="ignore", invalid="ignore"):
            filled[ch] = _impute_grid(grid, observed, float(np.nanmean(grid)))
        _check_means(filled[ch], series.station_ids, f"an imputed {ch} value")
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
    """Mean-pool complete STEP_HOURS-hour blocks; drop a trailing partial one.

    A mean that overflows is a DataError naming its station and channel."""
    if np.isnan(series.pm25).any() or np.isnan(series.wind_speed).any() \
            or np.isnan(series.wind_direction).any():
        raise DataError("resample_3h requires an imputed series")
    hours = series.hours
    steps = hours // STEP_HOURS
    if steps == 0:
        raise DataError(
            f"series of {hours} hours has no complete {STEP_HOURS}-hour block")
    dropped = hours - STEP_HOURS * steps
    if dropped:
        log.warning("dropping %d trailing hour(s) short of a %d-hour block",
                    dropped, STEP_HOURS)
    n = len(series.station_ids)
    # an overflow is caught below, on the means
    with np.errstate(over="ignore", invalid="ignore"):
        pm = series.pm25[:STEP_HOURS * steps].reshape(steps, STEP_HOURS, n).mean(axis=1)
        u, v = wind_components(series.wind_speed, series.wind_direction)
        u3 = u[:STEP_HOURS * steps].reshape(steps, STEP_HOURS, n).mean(axis=1)
        v3 = v[:STEP_HOURS * steps].reshape(steps, STEP_HOURS, n).mean(axis=1)
    for name, grid in (("pm25", pm), ("wind_u", u3), ("wind_v", v3)):
        _check_means(grid, series.station_ids, f"a {STEP_HOURS}-hour mean of {name}")
    return Series3h(start=series.start, station_ids=list(series.station_ids),
                    pm25=pm, wind_u=u3, wind_v=v3)


def window_count(series: Series3h, history_steps: int,
                 horizon_steps: int) -> int:
    """Number of stride-1 (history + horizon)-step windows in the series."""
    if history_steps < 1 or horizon_steps < 1:
        raise ConfigurationError("window sizes must be positive")
    total = history_steps + horizon_steps
    if series.steps < total:
        raise DataError(
            f"series of {series.steps} steps is shorter than one "
            f"{total}-step window")
    return series.steps - total + 1


def make_windows(series: Series3h, history_steps: int,
                 horizon_steps: int, stride: int = 1,
                 first: int = 0) -> list[WindowSample]:
    """Slide (history + horizon)-step windows over the 3-hour series,
    starting at step ``first`` and moving ``stride`` steps at a time.

    Window arrays are read-only views of the series, not copies; start
    indices and times are absolute, whatever ``first`` is.
    """
    if stride < 1 or first < 0:
        raise ConfigurationError(
            "window stride must be positive and the first start non-negative")
    count = window_count(series, history_steps, horizon_steps)
    total = history_steps + horizon_steps
    windows = []
    wind = np.stack([series.wind_u, series.wind_v], axis=-1)  # (steps, n, 2)
    x = series.pm25[..., None]                                # (steps, n, 1)
    wind.flags.writeable = x.flags.writeable = False
    for s in range(first, count, stride):
        windows.append(WindowSample(
            x_hist=x[s:s + history_steps],
            p_hist=wind[s:s + history_steps],
            x_future=x[s + history_steps:s + total],
            start_time=series.time_at(s),
            start_index=s,
        ))
    return windows


def check_ratio(ratio: tuple) -> None:
    """A split ratio is three positive whole numbers, such as 7:1:2."""
    if len(ratio) != 3 or any(not r > 0 or r % 1 for r in ratio):
        raise ConfigurationError(
            f"ratio must be three positive whole numbers, got {ratio}")


def split_counts(n: int, ratio: tuple = DEFAULT_SPLIT) -> tuple[int, int, int]:
    """Partition sizes for a whole-number ratio such as 7:1:2: exact floor
    for train and val, remainder to test."""
    check_ratio(ratio)
    total = int(sum(ratio))
    n_train = (n * int(ratio[0])) // total
    n_val = (n * int(ratio[1])) // total
    n_test = n - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise ConfigurationError(
            f"split {ratio} of {n} windows leaves an empty partition "
            f"({n_train}/{n_val}/{n_test})")
    return n_train, n_val, n_test


def forecast_origins(series: Series3h, history_steps: int, horizon_steps: int,
                     ratio: tuple = DEFAULT_SPLIT) -> list[WindowSample]:
    """Non-overlapping forecast origins: every horizon-th window of the test
    partition that chronological_split would make from all the windows.

    Only these windows are built.
    """
    n_train, n_val, _ = split_counts(
        window_count(series, history_steps, horizon_steps), ratio)
    return make_windows(series, history_steps, horizon_steps,
                        stride=horizon_steps, first=n_train + n_val)


def chronological_split(windows: list[WindowSample],
                        ratio: tuple = DEFAULT_SPLIT) -> DatasetSplit:
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
    # readings too large to square overflow to inf, which NormStats rejects
    with np.errstate(over="ignore", invalid="ignore"):
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


def save_container(path, fmt: str, meta: dict, arrays: dict) -> None:
    """One .npz file: the JSON metadata, its ``format`` key first, as the
    ``_meta`` entry, then ``arrays`` under their names."""
    with open(path, "wb") as fh:
        np.savez(fh, _meta=np.array(json.dumps({"format": fmt, **meta})),
                 **arrays)


NUMBER = (int, float)


def has_type(value, kind) -> bool:
    """Whether a JSON value has ``kind``: a type (a bool is no number), a
    tuple of kinds (any of them) or [kind] (a list of that kind). A NUMBER
    must convert to a float, which a huge JSON int does not; whether it
    must be finite is the field's own check."""
    if kind == NUMBER:
        return has_type(value, float) or (
            has_type(value, int) and abs(value) <= sys.float_info.max)
    if isinstance(kind, tuple):
        return any(has_type(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(has_type(v, kind[0]) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def load_container(path, fmt: str, schema: dict) -> tuple[dict, dict]:
    """(metadata, arrays) of a .npz file in format ``fmt``: each field in
    ``schema`` has its kind (see ``has_type``; a missing one reads as None)
    and each array is a finite float array, or a FormatError names the file."""
    try:
        archive = np.load(path, allow_pickle=False)
    except ValueError:  # neither zip nor .npy; numpy would advise unpickling
        raise FormatError(f"{path}: not a readable container "
                          "(not an .npz archive)") from None
    except (zipfile.BadZipFile, OSError, EOFError) as e:
        raise FormatError(f"{path}: not a readable container ({e})") from None
    if isinstance(archive, np.ndarray):  # a plain .npy file
        raise FormatError(f"{path}: not a readable container "
                          "(an .npy array, not an .npz archive)")
    try:
        with archive:
            if "_meta" not in archive:
                raise FormatError(f"{path}: missing metadata entry")
            try:
                meta = json.loads(str(archive["_meta"]))
            except json.JSONDecodeError:
                raise FormatError(f"{path}: corrupt metadata") from None
            arrays = {key: archive[key] for key in archive.files if key != "_meta"}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as e:
        raise FormatError(f"{path}: not a readable container ({e})") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    if meta.get("format") != fmt:
        raise FormatError(f"{path}: unsupported format {meta.get('format')!r}")
    for key, kind in schema.items():
        if not has_type(meta.get(key), kind):
            found = f"{meta[key]!r}" if key in meta else "missing"
            raise FormatError(f"{path}: bad metadata field {key!r}: {found}")
    for name, a in arrays.items():
        if not np.issubdtype(a.dtype, np.floating):
            raise FormatError(f"{path}: array {name!r} is {a.dtype}, not a float array")
        if not np.isfinite(a).all():
            raise FormatError(f"{path}: array {name!r} holds a non-finite value")
    return meta, arrays


def save_dataset(dataset: Dataset, path) -> None:
    """Persist a processed dataset as one .npz file with JSON metadata."""
    series = dataset.series
    meta = {
        "start_epoch": int((series.start - EPOCH).total_seconds()),
        "station_ids": list(series.station_ids),
        "latitudes": [s.latitude for s in dataset.stations],
        "longitudes": [s.longitude for s in dataset.stations],
        "max_distance_km": dataset.max_distance_km,
    }
    save_container(path, DATASET_FORMAT, meta, {
        "pm25": series.pm25, "wind_u": series.wind_u, "wind_v": series.wind_v})


_DATASET_SCHEMA = {"start_epoch": int, "station_ids": [str],
                   "latitudes": [NUMBER], "longitudes": [NUMBER],
                   "max_distance_km": (NUMBER, type(None))}


def load_dataset(path) -> Dataset:
    meta, stored = load_container(path, DATASET_FORMAT, _DATASET_SCHEMA)
    try:
        arrays = {name: stored[name] for name in ("pm25", "wind_u", "wind_v")}
    except KeyError as e:
        raise FormatError(f"{path}: missing array {e}") from None
    # (steps, stations), with the steps of pm25, which is checked first
    expected = arrays["pm25"].shape[:1] + (len(meta["station_ids"]),)
    for name, a in arrays.items():
        if a.ndim != 2:
            problem = f"is {a.ndim}-D {a.dtype}, not a 2-D float array"
        elif a.shape != expected:
            problem = f"has shape {a.shape}, expected {expected}"
        else:
            continue
        raise FormatError(f"{path}: array {name!r} {problem}")
    cutoff = meta.get("max_distance_km")
    try:
        stations = [Station(sid, lat, lon) for sid, lat, lon in zip(
            meta["station_ids"], meta["latitudes"], meta["longitudes"])]
        check_cutoff(cutoff)
        start = EPOCH + timedelta(seconds=meta["start_epoch"])
        start + (len(arrays["pm25"]) - 1) * STEP  # the last step's time too
    except (ContractError, ConfigurationError) as e:
        raise FormatError(f"{path}: {e}") from None
    except OverflowError:
        raise FormatError(f"{path}: start_epoch {meta['start_epoch']} is out "
                          "of the datetime range") from None
    series = Series3h(start=start, station_ids=list(meta["station_ids"]),
                      **arrays)
    return Dataset(series, stations, cutoff)
