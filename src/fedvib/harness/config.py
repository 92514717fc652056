"""Experiment configuration and dataset resolution.

An experiment is described by one :class:`ExperimentConfig`, loadable from a
JSON file whose keys mirror the dataclass fields exactly (nested objects for
the autoencoder, training, and per-node dataset sections).  Unknown keys are
rejected rather than ignored so a typo cannot silently change a run.
"""

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..data import (
    Dataset,
    SynthConfig,
    downsample_dataset,
    generate_synthetic,
    load_csv_dataset,
    load_ims_dataset,
    standardize_dataset,
)
from ..errors import ConfigError, IngestionError
from ..model import SCORE_MODES, THRESHOLD_MODES, AutoencoderConfig
from ..nn import TrainConfig

SCENARIOS = ("historical", "cold_start", "knowledge_transfer", "centralized")
DATASET_KINDS = ("synthetic", "csv", "ims")
TRANSPORTS = ("in_process", "sockets")

IMS_HINT = ("IMS data not found; download it first with "
            "`fedvib fetch-ims --set <1|2|3> --out <dir>`")


@dataclass
class DatasetSpec:
    """Where one node's data comes from and how it is preprocessed.

    ``kind`` selects the source: ``synthetic`` generates from ``synth``/
    ``seed``, ``csv`` loads a manifest directory written by ``fedvib synth``
    (or any :func:`fedvib.data.save_csv_dataset` output), and ``ims`` loads
    one bearing channel of an extracted IMS test directory.
    """

    id: str
    kind: str
    synth: SynthConfig | None = None
    seed: int = 0
    path: str | None = None
    directory: str | None = None
    bearing: int | None = None
    downsample: int = 1
    downsample_method: str = "mean"
    standardize: bool = False

    def __post_init__(self):
        if not self.id:
            raise ConfigError("dataset spec needs a non-empty id")
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ConfigError(f"dataset {self.id!r}: csv kind needs a path")
        if self.kind == "ims" and (not self.directory or self.bearing is None):
            raise ConfigError(f"dataset {self.id!r}: ims kind needs directory and bearing")
        if self.downsample < 1:
            raise ConfigError(f"dataset {self.id!r}: downsample must be >= 1, got {self.downsample}")


@dataclass
class ExperimentConfig:
    """One complete scenario description.

    ``delta`` is the anomaly threshold sensitivity; ``transfer_target`` is the
    dataset the trained global model is applied to and is only meaningful for
    the knowledge_transfer scenario.
    """

    scenario: str
    nodes: list
    autoencoder: AutoencoderConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    rounds: int = 25
    epochs_per_round: int = 1
    delta: float = 3.0
    threshold_mode: str = "mean_plus_sigma"
    score_mode: str = "mean"
    seed: int = 0
    transfer_target: DatasetSpec | None = None
    transport: str = "in_process"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not self.nodes:
            raise ConfigError("an experiment needs at least one node")
        ids = [s.id for s in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"node ids must be unique, got {ids}")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.epochs_per_round < 1:
            raise ConfigError(f"epochs_per_round must be >= 1, got {self.epochs_per_round}")
        if self.delta < 0:
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be one of {SCORE_MODES}")
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        if self.scenario == "knowledge_transfer" and self.transfer_target is None:
            raise ConfigError("knowledge_transfer needs a transfer_target dataset spec")
        if self.scenario != "knowledge_transfer" and self.transfer_target is not None:
            raise ConfigError(f"transfer_target is only valid for knowledge_transfer, "
                              f"not {self.scenario!r}")


# -- JSON loading -------------------------------------------------------------

_TUPLE_FIELDS = {"outer_layer_sizes", "base_frequencies", "base_amplitudes",
                 "anomaly_indices"}


def _build(cls, mapping, context):
    """Instantiate a config dataclass from a plain dict, strictly."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected an object, got {type(mapping).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}; valid keys are {sorted(known)}")
    kwargs = {}
    for key, value in mapping.items():
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _build_spec(mapping, context):
    if isinstance(mapping, dict) and isinstance(mapping.get("synth"), dict):
        mapping = dict(mapping)
        mapping["synth"] = _build(SynthConfig, mapping["synth"], f"{context}.synth")
    return _build(DatasetSpec, mapping, context)


def load_config(path):
    """Read an :class:`ExperimentConfig` from a JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    raw = dict(raw)
    if "autoencoder" not in raw:
        raise ConfigError(f"{path}: missing required 'autoencoder' section")
    raw["autoencoder"] = _build(AutoencoderConfig, raw["autoencoder"], "autoencoder")
    if "train" in raw:
        raw["train"] = _build(TrainConfig, raw["train"], "train")
    raw["nodes"] = [_build_spec(s, f"nodes[{i}]")
                    for i, s in enumerate(raw.get("nodes", []))]
    if raw.get("transfer_target") is not None:
        raw["transfer_target"] = _build_spec(raw["transfer_target"], "transfer_target")
    return _build(ExperimentConfig, raw, str(path))


# -- dataset resolution -------------------------------------------------------

def load_raw_dataset(spec):
    """Resolve a spec to its dataset before any preprocessing."""
    if spec.kind == "synthetic":
        return generate_synthetic(spec.synth or SynthConfig(), seed=spec.seed,
                                  source_id=spec.id)
    if spec.kind == "csv":
        path = Path(spec.path)
        if not path.exists():
            raise IngestionError(f"dataset {spec.id!r}: no such path", path=str(path))
        return load_csv_dataset(path, source_id=spec.id)
    directory = Path(spec.directory)
    if not directory.is_dir():
        raise IngestionError(f"dataset {spec.id!r}: {IMS_HINT}", path=str(directory))
    return load_ims_dataset(directory, spec.bearing, source_id=spec.id)


def preprocess_dataset(dataset, spec):
    if spec.downsample > 1:
        dataset = downsample_dataset(dataset, spec.downsample, method=spec.downsample_method)
    if spec.standardize:
        dataset = standardize_dataset(dataset)
    return dataset


def resolve_dataset(spec):
    """Load and preprocess the dataset a spec describes."""
    return preprocess_dataset(load_raw_dataset(spec), spec)


def dataset_bytes(dataset):
    """Total payload bytes of every batch (4-byte samples), the raw-transfer
    counterfactual used in network accounting."""
    return sum(b.samples.nbytes for b in dataset.batches)
