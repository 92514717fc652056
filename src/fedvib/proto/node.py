"""Training-node lifecycle: register, train per round, ship deltas, score.

A node is a single-threaded loop around one endpoint.  Per received global
model of round r it trains its configured epochs (with the cumulative epoch
counter ``r * epochs_per_round`` driving LR decay and shuffling), sends the
float32 weight delta against that global model, scores its validation
windows once (their mean is the round's validation loss, their spread
calibrates the local anomaly threshold), and waits for the next global
model.  A global model whose round number reaches the configured
round count is final: the node scores its test batches with it and stops.

Each round's stats carry the seconds spent per phase (see :func:`timed`):
``wait`` for the round's global model to arrive, ``train``, ``send`` (take
the delta and send it), ``score`` the validation windows, and ``calibrate``
the threshold on their scores.  All but ``wait`` fall within ``duration_s``.
"""

import resource
import time
from contextlib import contextmanager
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
from .aggregator import ROUND_TIMEOUT_S
from .weights import ModelWeights, WeightDelta
from .wire import (
    ERR_ROUND_ABORT,
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
    # outlasts the aggregator's default round timeout, so that the aggregator's
    # abort, and its reason, reaches the node before the node gives up
    recv_timeout_s: float = ROUND_TIMEOUT_S + 60.0
    # max training windows in each round, from round 0; None trains on all
    window_schedule: tuple = None

    def __post_init__(self):
        if not self.client_id:
            raise ConfigError("client_id must be non-empty")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.epochs_per_round < 1:
            raise ConfigError(f"epochs_per_round must be >= 1, got {self.epochs_per_round}")
        if self.threshold_delta < 0:
            raise ConfigError(f"threshold_delta must be >= 0, got {self.threshold_delta}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be one of {SCORE_MODES}")
        if self.window_schedule is not None and len(self.window_schedule) < self.rounds:
            raise ConfigError(f"window_schedule needs {self.rounds} rounds' caps, "
                              f"got {len(self.window_schedule)}")


@contextmanager
def timed(seconds, phase):
    """Add the wall seconds spent inside the block to ``seconds[phase]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[phase] = seconds.get(phase, 0.0) + time.perf_counter() - start


@dataclass
class NodeRoundStats:
    round: int
    train_loss: float
    val_loss: float
    threshold: float
    windows_trained: int
    duration_s: float
    phases: dict = field(default_factory=dict)  # phase -> seconds


@dataclass
class NodeResult:
    client_id: str
    round_stats: list
    verdicts: list
    final_weights: ModelWeights
    final_threshold: ThresholdModel
    untrained: bool = False
    bytes_sent: int = 0          # frame bytes on the node's endpoint
    bytes_received: int = 0
    # of the process the node ran in, read as the node finishes: its peak
    # resident set and the user plus system CPU seconds of all its threads
    peak_rss_bytes: int = 0
    cpu_s: float = 0.0


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
        trained_any = False
        while True:
            phases = {}
            with timed(phases, "wait"):
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
                windows = windows[:cfg.window_schedule[r]]
            with timed(phases, "train"):
                result = train_epochs(
                    model, windows, cfg.train, cfg.epochs_per_round, seed=cfg.seed,
                    epoch_offset=r * cfg.epochs_per_round,
                    adam_state=adam_state if cfg.persist_optimizer else None)
            if cfg.persist_optimizer:
                adam_state = result.adam_state
            trained_any = True

            with timed(phases, "send"):
                # the delta is taken against the global model this round started from
                delta_tensors = weight_delta(model.param_refs(), msg.weights.tensors)
                model.set_weights_dict(apply_weight_delta(msg.weights.tensors, delta_tensors))
                endpoint.send(DeltaSubmission(
                    client_id=cfg.client_id, round=r,
                    delta=WeightDelta(delta_tensors, base_round=r),
                    windows_trained=len(windows)))

            with timed(phases, "score"):
                scores = window_scores(model, self.val_windows)
            with timed(phases, "calibrate"):
                threshold = self._calibrate(scores)
            stats.append(NodeRoundStats(
                round=r,
                train_loss=result.train_losses[-1],
                val_loss=float(scores.mean()),
                threshold=threshold.threshold,
                windows_trained=len(windows),
                duration_s=time.perf_counter() - t0,
                phases=phases))

        final_threshold = self._calibrate(window_scores(model, self.val_windows))
        verdicts = score_batches(model, self.test_batches, self.test_offset,
                                 final_threshold, cfg.autoencoder.window_size,
                                 cfg.score_mode)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return NodeResult(client_id=cfg.client_id, round_stats=stats,
                          verdicts=verdicts,
                          final_weights=ModelWeights(model.weights_dict()),
                          final_threshold=final_threshold,
                          untrained=not trained_any,
                          bytes_sent=endpoint.bytes_sent,
                          bytes_received=endpoint.bytes_received,
                          peak_rss_bytes=usage.ru_maxrss * 1024,  # Linux counts KiB
                          cpu_s=usage.ru_utime + usage.ru_stime)

    def _calibrate(self, scores):
        return ThresholdModel.calibrate(scores, delta=self.config.threshold_delta,
                                        mode=self.config.threshold_mode)
