"""Training-node lifecycle: register, train per round, ship deltas, score.

A node is a single-threaded loop around one endpoint.  Per received global
model of round r it trains its configured epochs (with the cumulative epoch
counter ``r * epochs_per_round`` driving LR decay and shuffling), sends the
float32 weight delta against that global model, scores its validation
windows once (their mean is the round's validation loss, their spread
calibrates the local anomaly threshold), and waits for the next global
model.  A global model whose round number reaches the configured
round count is final: the node scores its test batches with it and stops.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ProtocolError, RoundAbortError
from ..model import (
    SCORE_MODES,
    THRESHOLD_MODES,
    ThresholdModel,
    build_autoencoder,
    score_batches,
    train_epochs,
    window_scores,
)
from ..nn.ops import apply_weight_delta, weight_delta
from .weights import ModelWeights, WeightDelta
from .wire import (
    ERR_ROUND_ABORT,
    Ack,
    DeltaSubmission,
    Error,
    GlobalModel,
    Register,
    max_payload_size,
)


@dataclass
class TrainingNodeConfig:
    """Everything a node needs besides its data and its endpoint."""

    client_id: str
    autoencoder: object  # AutoencoderConfig
    train: object        # TrainConfig
    rounds: int
    epochs_per_round: int = 1
    threshold_delta: float = 3.0
    threshold_mode: str = "mean_plus_sigma"
    score_mode: str = "mean"
    persist_optimizer: bool = False
    seed: int = 0
    recv_timeout_s: float = 600.0
    # round_index (0-based) -> max training windows; None trains on all
    window_schedule: object = None

    def __post_init__(self):
        if not self.client_id:
            raise ValueError("client_id must be non-empty")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.epochs_per_round < 1:
            raise ValueError(f"epochs_per_round must be >= 1, got {self.epochs_per_round}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be one of {SCORE_MODES}")


@dataclass
class NodeRoundStats:
    round: int
    train_loss: float
    val_loss: float
    threshold: float
    windows_trained: int
    duration_s: float


@dataclass
class NodeResult:
    client_id: str
    round_stats: list
    verdicts: list
    final_weights: ModelWeights
    final_threshold: ThresholdModel
    untrained: bool = False
    deltas_sent: int = 0


@dataclass
class TrainingNode:
    """One federation participant.

    ``test_batches`` are scored once, against the final global model;
    ``test_offset`` is the position of the first test batch within the node's
    full chronological dataset so verdict indices line up with it.
    """

    config: TrainingNodeConfig
    train_windows: np.ndarray
    val_windows: np.ndarray
    test_batches: list = field(default_factory=list)
    test_offset: int = 0

    def run(self, endpoint):
        # closed on every exit, so the aggregator sees a failing node leave
        try:
            return self._run(endpoint)
        finally:
            endpoint.close()

    def _run(self, endpoint):
        cfg = self.config
        model = build_autoencoder(cfg.autoencoder, seed=cfg.seed)
        endpoint.max_payload = max_payload_size(model.param_refs())
        endpoint.send(Register(cfg.client_id))

        stats = []
        adam_state = None
        deltas_sent = 0
        trained_any = False
        while True:
            msg = endpoint.recv(timeout=cfg.recv_timeout_s)
            if msg is None:
                raise ProtocolError(f"{cfg.client_id}: connection closed "
                                    "before the final global model arrived")
            if isinstance(msg, Error):
                if msg.code == ERR_ROUND_ABORT:
                    raise RoundAbortError(f"{cfg.client_id}: round aborted "
                                          f"by aggregator: {msg.text}")
                raise ProtocolError(f"{cfg.client_id}: rejected by aggregator "
                                    f"(code {msg.code}): {msg.text}")
            if isinstance(msg, Ack):
                # our submission was outside the aggregated set (late join);
                # keep waiting for the next global model
                continue
            if not isinstance(msg, GlobalModel):
                raise ProtocolError(f"{cfg.client_id}: unexpected "
                                    f"{type(msg).__name__} from aggregator")

            model.set_weights_dict(msg.weights.tensors)
            r = msg.round
            if r >= cfg.rounds:
                break

            t0 = time.perf_counter()
            windows = self.train_windows
            if cfg.window_schedule is not None:
                windows = windows[:cfg.window_schedule(r)]
            round_start = model.weights_dict()
            result = train_epochs(
                model, windows, cfg.train, cfg.epochs_per_round, seed=cfg.seed,
                epoch_offset=r * cfg.epochs_per_round,
                adam_state=adam_state if cfg.persist_optimizer else None)
            if cfg.persist_optimizer:
                adam_state = result.adam_state
            trained_any = True

            delta_tensors = weight_delta(model.param_refs(), round_start)
            model.set_weights_dict(apply_weight_delta(round_start, delta_tensors))
            endpoint.send(DeltaSubmission(
                client_id=cfg.client_id, round=r,
                delta=WeightDelta(delta_tensors, base_round=r),
                windows_trained=len(windows)))
            deltas_sent += 1

            scores = window_scores(model, self.val_windows)
            threshold = self._calibrate(scores)
            stats.append(NodeRoundStats(
                round=r,
                train_loss=result.train_losses[-1],
                val_loss=float(scores.mean()),
                threshold=threshold.threshold,
                windows_trained=len(windows),
                duration_s=time.perf_counter() - t0))

        final_threshold = self._calibrate(window_scores(model, self.val_windows))
        verdicts = score_batches(model, self.test_batches, self.test_offset,
                                 final_threshold, cfg.autoencoder.window_size,
                                 cfg.score_mode)
        return NodeResult(client_id=cfg.client_id, round_stats=stats,
                          verdicts=verdicts,
                          final_weights=ModelWeights(model.weights_dict()),
                          final_threshold=final_threshold,
                          untrained=not trained_any,
                          deltas_sent=deltas_sent)

    def _calibrate(self, scores):
        return ThresholdModel.calibrate(scores, delta=self.config.threshold_delta,
                                        mode=self.config.threshold_mode)
