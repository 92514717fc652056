"""Scenario runners: historical, cold-start, knowledge transfer, centralized.

Each runner produces an :class:`ExperimentResult` bundling the detection
report (per-batch verdicts, threshold traces, detection metrics), the
per-round reports, and the network accounting that compares federated weight
traffic against shipping the raw batches.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data import windows_for_batches
from ..errors import ConfigError, WireError
from ..model import (
    ThresholdModel,
    build_autoencoder,
    evaluate_detection,
    score_batches,
    train_epochs,
    window_scores,
)
from ..proto import GlobalModel, ModelWeights, decode_frame, encode_frame
from .config import resolve_dataset
from .federation import prepare_node, run_federation

TRANSFER_CALIBRATION_FRACTION = 0.10


@dataclass
class DetectionReport:
    """Per-node detection outcome of one scenario."""

    verdicts: dict           # node id -> [AnomalyVerdict]
    threshold_trace: dict    # node id -> per-round thresholds plus the final one
    metrics: dict            # node id -> DetectionMetrics (labeled nodes only)
    untrained: bool = False


@dataclass
class NetworkReport:
    """Bytes actually moved by the federation vs the raw-data counterfactual.

    ``raw_bytes`` counts every batch payload after preprocessing (4-byte
    samples); ``raw_bytes_original`` counts them before downsampling.
    """

    federated_bytes: int
    federated_bytes_by_node: dict
    raw_bytes: int
    raw_bytes_original: int
    reduction_percent: float | None


@dataclass
class ExperimentResult:
    scenario: str
    detection: DetectionReport
    network: NetworkReport
    federation: object = None        # FederationResult for federated scenarios
    training_log: dict = None        # centralized per-epoch losses
    source_detection: DetectionReport = None  # knowledge transfer: source side


def network_reduction(fed_bytes, centralized_bytes):
    """Percentage of network volume saved by sending weights instead of data."""
    if centralized_bytes <= 0:
        raise ConfigError(f"centralized byte count must be > 0, got {centralized_bytes}")
    return 100.0 * (1.0 - fed_bytes / centralized_bytes)


def cold_start_windows(round_index, available=None):
    """Training window budget of a 1-based cold-start round: 64 per round so
    far, capped at what the node actually has."""
    if round_index < 1:
        raise ConfigError(f"round_index must be >= 1, got {round_index}")
    n = 64 * round_index
    if available is not None:
        n = min(n, int(available))
    return n


# -- shared assembly ----------------------------------------------------------

def _prepare_all(config):
    setups = [prepare_node(spec, config.autoencoder.window_size)
              for spec in config.nodes]
    for s in setups:
        got = s.dataset.feature_count
        want = config.autoencoder.feature_count
        if got != want:
            raise ConfigError(f"node {s.node_id!r} has {got} features but the "
                              f"autoencoder expects {want}")
    return setups


def _metrics_from_verdicts(verdicts):
    labeled = [v for v in verdicts if v.label is not None]
    if not labeled:
        return None
    pred = [v.verdict == "anomalous" for v in labeled]
    truth = [v.label == "anomalous" for v in labeled]
    return evaluate_detection(pred, truth)


def _detection_report(outcomes, untrained):
    """``outcomes`` maps node id -> (verdicts, threshold trace)."""
    verdicts, trace, metrics = {}, {}, {}
    for nid, (v, t) in sorted(outcomes.items()):
        verdicts[nid], trace[nid] = v, t
        m = _metrics_from_verdicts(v)
        if m is not None:
            metrics[nid] = m
    return DetectionReport(verdicts=verdicts, threshold_trace=trace,
                           metrics=metrics, untrained=untrained)


def _detection_from_results(node_results):
    return _detection_report(
        {cid: (res.verdicts, [s.threshold for s in res.round_stats]
               + [res.final_threshold.threshold])
         for cid, res in node_results.items()},
        untrained=any(res.untrained for res in node_results.values()))


def _calibrate_and_score(model, config, cal_windows, batches, offset):
    """Calibrate a threshold on ``cal_windows``, then score ``batches`` with
    it; returns (verdicts, threshold trace)."""
    threshold = ThresholdModel.calibrate(window_scores(model, cal_windows),
                                         delta=config.delta,
                                         mode=config.threshold_mode)
    verdicts = score_batches(model, batches, offset, threshold,
                             config.autoencoder.window_size, config.score_mode)
    return verdicts, [threshold.threshold]


def _network_from_federation(setups, fed):
    raw = sum(s.raw_bytes for s in setups)
    raw_original = sum(s.raw_bytes_original for s in setups)
    total = sum(sent + recv for sent, recv in fed.bytes_by_node.values())
    return NetworkReport(
        federated_bytes=total,
        federated_bytes_by_node=dict(sorted(fed.bytes_by_node.items())),
        raw_bytes=raw, raw_bytes_original=raw_original,
        reduction_percent=network_reduction(total, raw) if raw > 0 else None)


def _run_federated_scenario(config, scenario, window_schedules=None):
    setups = _prepare_all(config)
    fed = run_federation(setups, config, window_schedules=window_schedules)
    return ExperimentResult(
        scenario=scenario,
        detection=_detection_from_results(fed.node_results),
        network=_network_from_federation(setups, fed),
        federation=fed)


# -- scenarios ----------------------------------------------------------------

def run_historical(config):
    """Federated training on each node's full historical training segment."""
    return _run_federated_scenario(config, "historical")


def run_cold_start(config):
    """Federated training where round r trains on the chronologically first
    64·r windows of each node (capped at availability)."""
    def schedule(r):
        return cold_start_windows(r + 1)  # the node's slice caps it at availability

    return _run_federated_scenario(
        config, "cold_start", {spec.id: schedule for spec in config.nodes})


def run_knowledge_transfer(config):
    """Train a federation, then score ``config.transfer_target`` with the
    global model.

    No weights are updated on the target; only the anomaly threshold is
    recalibrated, on the target's chronologically first (assumed healthy)
    batches.
    """
    target_spec = config.transfer_target
    if target_spec is None:
        raise ConfigError("knowledge transfer needs a target dataset spec")
    source = _run_federated_scenario(config, "knowledge_transfer")

    target = resolve_dataset(target_spec)
    acfg = config.autoencoder
    if target.feature_count != acfg.feature_count:
        raise ConfigError(f"transfer target {target_spec.id!r} has "
                          f"{target.feature_count} features but the model "
                          f"expects {acfg.feature_count}")

    model = build_autoencoder(acfg, seed=config.seed)
    model.set_weights_dict(source.federation.global_weights.tensors)
    n_cal = max(1, int(TRANSFER_CALIBRATION_FRACTION * len(target.batches)))
    cal_w, _ = windows_for_batches(target.batches[:n_cal], acfg.window_size)
    if len(cal_w) == 0:
        raise ConfigError(f"transfer target {target_spec.id!r}: calibration "
                          f"batches yield no windows")
    detection = _detection_report(
        {target_spec.id: _calibrate_and_score(model, config, cal_w, target.batches, 0)},
        untrained=source.detection.untrained)
    return ExperimentResult(
        scenario="knowledge_transfer",
        detection=detection,
        network=source.network,
        federation=source.federation,
        source_detection=source.detection)


def run_centralized(config):
    """Baseline: one model trained on all nodes' pooled training windows,
    evaluated per node; records what shipping the raw batches would cost."""
    setups = _prepare_all(config)
    model = build_autoencoder(config.autoencoder, seed=config.seed)
    pooled_train = np.concatenate([s.train_windows for s in setups])
    pooled_val = np.concatenate([s.val_windows for s in setups])
    epochs = config.train.epochs
    log = train_epochs(model, pooled_train, config.train, epochs,
                       val_windows=pooled_val, seed=config.seed)

    detection = _detection_report(
        {s.node_id: _calibrate_and_score(model, config, s.val_windows,
                                         s.test_batches, s.test_offset)
         for s in setups},
        untrained=epochs == 0)
    raw = sum(s.raw_bytes for s in setups)
    raw_original = sum(s.raw_bytes_original for s in setups)
    return ExperimentResult(
        scenario="centralized",
        detection=detection,
        network=NetworkReport(federated_bytes=0, federated_bytes_by_node={},
                              raw_bytes=raw, raw_bytes_original=raw_original,
                              reduction_percent=None),
        training_log={"train_losses": log.train_losses,
                      "val_losses": log.val_losses})


_SCENARIO_RUNNERS = {
    "historical": run_historical,
    "cold_start": run_cold_start,
    "knowledge_transfer": run_knowledge_transfer,
    "centralized": run_centralized,
}


def run_experiment(config):
    """Dispatch a config to its scenario runner."""
    return _SCENARIO_RUNNERS[config.scenario](config)


# -- model checkpoints --------------------------------------------------------

def save_model_checkpoint(path, weights, round_index=0):
    """Persist a global model as one wire-encoded frame."""
    if not isinstance(weights, ModelWeights):
        weights = ModelWeights(weights)
    Path(path).write_bytes(encode_frame(GlobalModel(round=round_index, weights=weights)))


def load_model_checkpoint(path):
    """Read back a checkpoint; returns (round_index, ModelWeights)."""
    msg = decode_frame(Path(path).read_bytes())
    if not isinstance(msg, GlobalModel):
        raise WireError(f"checkpoint {path} holds a {type(msg).__name__}, "
                        f"not a global model")
    return msg.round, msg.weights
