"""Vibration data handling: ingestion, resampling, windowing, splits, synth.

A batch is one contiguous multi-channel measurement ([n_samples,
feature_count] float32) taken at a known timestamp and sampling rate; a
dataset is a strictly time-ordered list of batches from one source (one
machine or one bearing channel).
"""

import calendar
import csv
import math
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, ShapeError

LABELS = ("normal", "anomalous")
IMS_FILENAME_RE = re.compile(r"^\d{4}\.\d{2}\.\d{2}\.\d{2}\.\d{2}\.\d{2}$")
IMS_SAMPLING_RATE_HZ = 20480.0
IMS_ROWS_PER_FILE = 20480


@dataclass
class VibrationBatch:
    """One measurement: [n_samples, feature_count] float32 plus metadata."""

    timestamp: float
    samples: np.ndarray
    sampling_rate_hz: float
    label: str | None = None

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ShapeError(f"batch samples must be 2-D, got shape {self.samples.shape}")
        if self.samples.dtype != np.float32:
            self.samples = self.samples.astype(np.float32)
        if self.sampling_rate_hz <= 0:
            raise ConfigError(f"sampling rate must be > 0, got {self.sampling_rate_hz}")
        if self.label is not None and self.label not in LABELS:
            raise ConfigError(f"label must be one of {LABELS} or None, got {self.label!r}")

    @property
    def feature_count(self):
        return self.samples.shape[1]


@dataclass
class Dataset:
    """Chronologically ordered batches from one source."""

    source_id: str
    batches: list

    def __post_init__(self):
        stamps = [b.timestamp for b in self.batches]
        if any(b2 <= b1 for b1, b2 in zip(stamps, stamps[1:])):
            raise IngestionError(
                f"dataset {self.source_id!r}: batch timestamps must strictly increase")
        feats = {b.feature_count for b in self.batches}
        if len(feats) > 1:
            raise IngestionError(
                f"dataset {self.source_id!r}: mixed feature counts {sorted(feats)}")

    @property
    def feature_count(self):
        return self.batches[0].feature_count if self.batches else 0

    def __len__(self):
        return len(self.batches)


# -- windowing ---------------------------------------------------------------

def windows_for_batches(batches, window_size):
    """Stack all windows of a batch list.

    Returns (windows [N, window_size, F] float32, owner_index [N] int) where
    owner_index maps each window back to its position in ``batches``.
    Windows do not overlap; each batch's trailing remainder is dropped.
    """
    if window_size < 1:
        raise ConfigError(f"window_size must be >= 1, got {window_size}")
    chunks = []
    owners = []
    feature_count = batches[0].feature_count if batches else 0
    for bi, batch in enumerate(batches):
        n = batch.samples.shape[0] // window_size
        if n == 0:
            continue
        trimmed = batch.samples[:n * window_size]
        chunks.append(trimmed.reshape(n, window_size, batch.feature_count))
        owners.extend([bi] * n)
    if not chunks:
        return (np.zeros((0, window_size, feature_count), dtype=np.float32),
                np.zeros(0, dtype=np.int64))
    return np.concatenate(chunks, axis=0), np.asarray(owners, dtype=np.int64)


# -- resampling --------------------------------------------------------------

def downsample(batch, factor, method="mean"):
    """Reduce the sampling rate by an integer factor.

    ``mean`` pools each group of ``factor`` consecutive samples; ``decimate``
    keeps the first sample of each group.  A trailing partial group is
    dropped.
    """
    if int(factor) != factor or factor < 1:
        raise ConfigError(f"downsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return VibrationBatch(timestamp=batch.timestamp, samples=batch.samples.copy(),
                              sampling_rate_hz=batch.sampling_rate_hz, label=batch.label)
    n, f = batch.samples.shape
    m = n // factor
    trimmed = batch.samples[:m * factor]
    if method == "mean":
        pooled = trimmed.reshape(m, factor, f).mean(axis=1, dtype=np.float64)
        out = pooled.astype(np.float32)
    elif method == "decimate":
        out = trimmed[::factor].copy()
    else:
        raise ConfigError(f"unknown downsample method {method!r}")
    return VibrationBatch(timestamp=batch.timestamp, samples=out,
                          sampling_rate_hz=batch.sampling_rate_hz / factor,
                          label=batch.label)


def downsample_dataset(dataset, factor, method="mean"):
    return Dataset(source_id=dataset.source_id,
                   batches=[downsample(b, factor, method) for b in dataset.batches])


# -- chronological split -----------------------------------------------------

# The first TRAIN_FRACTION of a dataset's batches form its training segment,
# of which the last VAL_FRACTION share becomes the validation set; every
# batch after the segment is test data.
TRAIN_FRACTION = 0.70
VAL_FRACTION = 0.08


def split_counts(n):
    """(n_train, n_val, n_test) for ``n`` batches; the 1e-9 guards keep FP
    products like 0.7*10 from flooring an ulp low."""
    if n < 3:
        raise ConfigError(f"need at least 3 batches to split, got {n}")
    segment = math.floor(n * TRAIN_FRACTION + 1e-9)
    n_val = math.ceil(segment * VAL_FRACTION - 1e-9)
    n_train = segment - n_val
    if n_train < 1:
        raise ConfigError(f"split of {n} batches leaves no training data")
    return n_train, n_val, n - segment


def chronological_split(dataset):
    """Split batches into disjoint (train, val, test) lists, order kept."""
    n_train, n_val, n_test = split_counts(len(dataset.batches))
    b = dataset.batches
    return (b[:n_train],
            b[n_train:n_train + n_val],
            b[n_train + n_val:])


# -- IMS run-to-failure files ------------------------------------------------

def _parse_numeric_table(path):
    """Fast whitespace table parse with line-accurate error reporting."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IngestionError("file is empty", path=str(path))
    cols = len(lines[0].split())
    try:
        flat = np.array(text.split(), dtype=np.float64)
    except ValueError:
        for i, ln in enumerate(lines, start=1):
            for tok in ln.split():
                try:
                    float(tok)
                except ValueError:
                    raise IngestionError(f"non-numeric value {tok!r}",
                                         path=str(path), line=i) from None
        raise IngestionError("unparseable numeric content", path=str(path)) from None
    if flat.size != len(lines) * cols:
        for i, ln in enumerate(lines, start=1):
            if len(ln.split()) != cols:
                raise IngestionError(
                    f"expected {cols} columns, found {len(ln.split())}",
                    path=str(path), line=i)
        raise IngestionError("inconsistent table shape", path=str(path))
    return flat.reshape(len(lines), cols)


def ims_timestamp(filename):
    """Timestamp encoded in an IMS file name like ``2004.02.12.10.32.39``."""
    name = Path(filename).name
    if not IMS_FILENAME_RE.match(name):
        raise IngestionError(f"not an IMS-style file name: {name!r}", path=str(filename))
    dt = datetime.strptime(name, "%Y.%m.%d.%H.%M.%S")
    return float(calendar.timegm(dt.timetuple()))


def bearing_column(n_columns, bearing):
    """Column index of a bearing's (first) accelerometer channel."""
    if n_columns == 8:       # two channels per bearing
        cols = {1: 0, 2: 2, 3: 4, 4: 6}
    elif n_columns == 4:     # one channel per bearing
        cols = {1: 0, 2: 1, 3: 2, 4: 3}
    else:
        raise IngestionError(f"unexpected IMS column count {n_columns}")
    if bearing not in cols:
        raise ConfigError(f"bearing must be 1..4, got {bearing}")
    return cols[bearing]


def load_ims_dataset(directory, bearing, source_id=None):
    """Load one bearing channel of an IMS test directory as a Dataset."""
    directory = Path(directory)
    files = sorted(p for p in directory.iterdir()
                   if p.is_file() and IMS_FILENAME_RE.match(p.name))
    if not files:
        raise IngestionError("no IMS measurement files found", path=str(directory))
    batches = []
    for p in files:
        table = _parse_numeric_table(p)
        col = bearing_column(table.shape[1], bearing)
        batches.append(VibrationBatch(
            timestamp=ims_timestamp(p),
            samples=np.ascontiguousarray(table[:, col:col + 1], dtype=np.float32),
            sampling_rate_hz=IMS_SAMPLING_RATE_HZ))
    return Dataset(source_id=source_id or f"{directory.name}-b{bearing}", batches=batches)


# -- generic CSV batch format ------------------------------------------------

MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ["path", "timestamp", "sampling_rate_hz", "label"]


def save_csv_dataset(dataset, directory):
    """Write a dataset as a manifest plus one CSV file per batch.

    Batch files carry a ``t,<feature names>`` header; sample values are
    printed with 9 significant digits so float32 content round-trips exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w", newline="") as mf:
        writer = csv.writer(mf)
        writer.writerow(MANIFEST_FIELDS)
        for i, batch in enumerate(dataset.batches):
            rel = f"batch_{i:05d}.csv"
            n, f = batch.samples.shape
            t = np.arange(n, dtype=np.float64) / batch.sampling_rate_hz
            header = ",".join(["t"] + [f"f{j}" for j in range(f)])
            body = np.column_stack([t, batch.samples.astype(np.float64)])
            np.savetxt(directory / rel, body, fmt="%.9g", delimiter=",",
                       header=header, comments="")
            writer.writerow([rel, repr(float(batch.timestamp)),
                             repr(float(batch.sampling_rate_hz)), batch.label or ""])
    return manifest_path


def load_csv_batch(path, timestamp, sampling_rate_hz, label=None):
    path = Path(path)
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("t,") and header != "t":
                raise IngestionError(f"batch header must start with 't,', got {header!r}",
                                     path=str(path), line=1)
            table = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    except OSError as e:
        raise IngestionError(str(e), path=str(path)) from None
    except ValueError as e:
        raise IngestionError(f"bad numeric content: {e}", path=str(path)) from None
    if table.shape[1] < 2:
        raise IngestionError("batch file has no feature columns", path=str(path))
    return VibrationBatch(timestamp=timestamp,
                          samples=table[:, 1:].astype(np.float32),
                          sampling_rate_hz=sampling_rate_hz,
                          label=label)


def load_csv_dataset(manifest_path, source_id=None):
    """Load a dataset from its ``manifest.csv`` (columns: path, timestamp,
    sampling_rate_hz, label; empty label means unlabeled)."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    base = manifest_path.parent
    batches = []
    try:
        fh = open(manifest_path, newline="")
    except OSError as e:
        raise IngestionError(str(e), path=str(manifest_path)) from None
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_FIELDS:
            raise IngestionError(
                f"manifest header must be {','.join(MANIFEST_FIELDS)}, "
                f"got {reader.fieldnames}", path=str(manifest_path), line=1)
        for lineno, row in enumerate(reader, start=2):
            try:
                ts = float(row["timestamp"])
                rate = float(row["sampling_rate_hz"])
            except (TypeError, ValueError):
                raise IngestionError(f"bad manifest row {row!r}",
                                     path=str(manifest_path), line=lineno) from None
            label = row["label"] or None
            if label is not None and label not in LABELS:
                raise IngestionError(f"unknown label {label!r}",
                                     path=str(manifest_path), line=lineno)
            batches.append(load_csv_batch(base / row["path"], ts, rate, label))
    return Dataset(source_id=source_id or base.name, batches=batches)


# -- synthetic generator -----------------------------------------------------

@dataclass
class SynthConfig:
    """Sinusoid-mixture generator shaped like the rotating-machine data:
    short fixed-length batches at a few kHz, a few amplitude anomalies."""

    n_batches: int = 200
    batch_len: int = 800
    sampling_rate_hz: float = 4000.0
    feature_count: int = 3
    base_frequencies: tuple = (50.0, 120.0, 210.0)
    base_amplitudes: tuple = (1.0, 0.6, 0.35)
    noise_std: float = 0.15
    anomaly_indices: tuple = ()
    anomaly_amplitude_factor: float = 2.0
    start_timestamp: float = 0.0
    batch_interval_s: float = 3600.0

    def __post_init__(self):
        if self.n_batches < 1:
            raise ConfigError(f"n_batches must be >= 1, got {self.n_batches}")
        if self.batch_len < 1:
            raise ConfigError(f"batch_len must be >= 1, got {self.batch_len}")
        if self.feature_count < 1:
            raise ConfigError(f"feature_count must be >= 1, got {self.feature_count}")
        if len(self.base_frequencies) != len(self.base_amplitudes):
            raise ConfigError("base_frequencies and base_amplitudes lengths differ")
        if self.anomaly_amplitude_factor <= 0:
            raise ConfigError("anomaly_amplitude_factor must be > 0")
        bad = [i for i in self.anomaly_indices if not 0 <= i < self.n_batches]
        if bad:
            raise ConfigError(f"anomaly indices out of range: {bad}")


def generate_synthetic(config, seed=0, source_id="synth"):
    """Deterministic synthetic dataset; anomalous batches are the same
    process with every sample scaled by ``anomaly_amplitude_factor``."""
    rng = np.random.default_rng(seed)
    anomalies = set(config.anomaly_indices)
    t = np.arange(config.batch_len, dtype=np.float64) / config.sampling_rate_hz
    batches = []
    for i in range(config.n_batches):
        sig = np.empty((config.batch_len, config.feature_count), dtype=np.float64)
        for f in range(config.feature_count):
            acc = rng.normal(0.0, config.noise_std, size=config.batch_len)
            for freq, amp in zip(config.base_frequencies, config.base_amplitudes):
                phase = rng.uniform(0.0, 2.0 * np.pi)
                acc += amp * np.sin(2.0 * np.pi * freq * t + phase)
            sig[:, f] = acc
        label = "normal"
        if i in anomalies:
            sig *= config.anomaly_amplitude_factor
            label = "anomalous"
        batches.append(VibrationBatch(
            timestamp=config.start_timestamp + i * config.batch_interval_s,
            samples=sig.astype(np.float32),
            sampling_rate_hz=config.sampling_rate_hz,
            label=label))
    return Dataset(source_id=source_id, batches=batches)


def standardize_dataset(dataset):
    """Zero-mean/unit-variance per feature across all batches (off by
    default everywhere; provided as an opt-in preprocessing step)."""
    if not dataset.batches:
        return dataset
    stacked = np.concatenate([b.samples for b in dataset.batches], axis=0)
    mean = stacked.mean(axis=0, dtype=np.float64)
    std = stacked.std(axis=0, dtype=np.float64)
    std[std < 1e-12] = 1.0
    batches = [
        VibrationBatch(timestamp=b.timestamp,
                       samples=((b.samples - mean) / std).astype(np.float32),
                       sampling_rate_hz=b.sampling_rate_hz,
                       label=b.label)
        for b in dataset.batches
    ]
    return Dataset(source_id=dataset.source_id, batches=batches)
