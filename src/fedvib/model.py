"""LSTM autoencoder for vibration windows, plus thresholded anomaly scoring.

Architecture (symmetric): stacked outer LSTM layers returning sequences, a
final LSTM whose last hidden state is the encoding, the encoding repeated over
the window length, mirrored LSTM layers returning sequences, and a linear
per-timestep dense output.  ReLU sits only between stacked outer LSTM layers;
the output stays linear because vibration samples are signed.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import (
    AdamState,
    DenseLayer,
    LstmLayer,
    adam_step,
    apply_weight_delta,
    check_finite,
    clip_gradients,
    decayed_lr,
    mse_grad,
    mse_loss,
    relu,
    relu_grad,
    weight_delta,
)

THRESHOLD_MODES = ("mean_plus_sigma", "paper_literal")
SCORE_MODES = ("mean", "max")
SIGMA_FLOOR = 1e-12
THRESHOLD_FLOOR_MARGIN = 1e-9


@dataclass
class AutoencoderConfig:
    """Shape of the autoencoder.

    ``outer_layer_sizes`` lists encoder outer widths from input inward; the
    decoder mirrors them.  ``encoding_size`` is the bottleneck width.
    """

    feature_count: int
    window_size: int = 100
    outer_layer_sizes: tuple = (128,)
    encoding_size: int = 16

    def __post_init__(self):
        self.outer_layer_sizes = tuple(int(s) for s in self.outer_layer_sizes)
        if self.feature_count < 1:
            raise ConfigError(f"feature_count must be >= 1, got {self.feature_count}")
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        if not self.outer_layer_sizes:
            raise ConfigError("outer_layer_sizes must not be empty")
        if any(s < 1 for s in self.outer_layer_sizes):
            raise ConfigError(f"outer layer sizes must be >= 1: {self.outer_layer_sizes}")
        if self.encoding_size < 1:
            raise ConfigError(f"encoding_size must be >= 1, got {self.encoding_size}")
        if self.encoding_size >= self.window_size * self.feature_count:
            raise ConfigError(
                f"encoding_size {self.encoding_size} does not compress a "
                f"{self.window_size}x{self.feature_count} window")


def count_parameters(config):
    """Parameter count of ``build_autoencoder(config)`` without building it."""
    def lstm(i, h):
        return 4 * h * i + 4 * h * h + 4 * h

    total = 0
    prev = config.feature_count
    for s in config.outer_layer_sizes:
        total += lstm(prev, s)
        prev = s
    total += lstm(prev, config.encoding_size)
    prev = config.encoding_size
    for s in (config.encoding_size,) + tuple(reversed(config.outer_layer_sizes)):
        total += lstm(prev, s)
        prev = s
    total += config.feature_count * prev + config.feature_count
    return total


class LstmAutoencoder:
    """Windows in, reconstructions out; exposes flat named parameter dicts."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(self.seed)
        T = config.window_size
        F = config.feature_count
        outer = config.outer_layer_sizes
        E = config.encoding_size

        self._names = []
        self._layers = {}

        prev = F
        for i, s in enumerate(outer):
            self._add(f"enc{i}", LstmLayer(prev, s, rng, dtype=self.dtype))
            prev = s
        self._add("code", LstmLayer(prev, E, rng, dtype=self.dtype))

        dec_sizes = (E,) + tuple(reversed(outer))
        prev = E
        for j, s in enumerate(dec_sizes):
            self._add(f"dec{j}", LstmLayer(prev, s, rng, dtype=self.dtype))
            prev = s
        self._add("out", DenseLayer(prev, F, rng, dtype=self.dtype))

        n_outer = len(outer)
        self._enc_relu = [i < n_outer - 1 for i in range(n_outer)]
        self._dec_relu = [1 <= j < len(dec_sizes) - 1 for j in range(len(dec_sizes))]
        self._cache = None

    def _add(self, name, layer):
        self._names.append(name)
        self._layers[name] = layer

    # -- parameter access ---------------------------------------------------

    def param_refs(self):
        """Live (unCopied) named arrays, architecture order."""
        out = {}
        for name in self._names:
            for pname, arr in self._layers[name].params().items():
                out[f"{name}.{pname}"] = arr
        return out

    def weights_dict(self):
        """Copied named arrays, safe to ship or stash."""
        return {k: v.copy() for k, v in self.param_refs().items()}

    def set_weights_dict(self, weights):
        current = self.param_refs()
        if list(weights.keys()) != list(current.keys()):
            raise ShapeError(
                f"weight names mismatch: got {list(weights)[:4]}..., "
                f"expected {list(current)[:4]}...")
        for name in self._names:
            layer = self._layers[name]
            layer.set_params({p: weights[f"{name}.{p}"] for p in layer.params()})

    def param_count(self):
        return sum(a.size for a in self.param_refs().values())

    # -- forward / backward -------------------------------------------------

    def forward(self, x):
        """x: [B, T, F] -> reconstruction [B, T, F]; retains backward caches."""
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.window_size or x.shape[2] != cfg.feature_count:
            raise ShapeError(
                f"expected [B, {cfg.window_size}, {cfg.feature_count}] windows, got {x.shape}")
        xt = np.ascontiguousarray(x.transpose(1, 0, 2), dtype=self.dtype)
        T, B, _ = xt.shape

        caches = {}
        h = xt
        for i in range(len(cfg.outer_layer_sizes)):
            name = f"enc{i}"
            h, caches[name] = self._layers[name].forward(h, return_sequences=True)
            if self._enc_relu[i]:
                caches[name + ".pre"] = h
                h = relu(h)
        code, caches["code"] = self._layers["code"].forward(h, return_sequences=False)

        h = np.ascontiguousarray(np.broadcast_to(code, (T,) + code.shape))
        for j in range(len(self._dec_relu)):
            name = f"dec{j}"
            h, caches[name] = self._layers[name].forward(h, return_sequences=True)
            if self._dec_relu[j]:
                caches[name + ".pre"] = h
                h = relu(h)
        y, caches["out"] = self._layers["out"].forward(h)
        self._cache = caches
        return np.ascontiguousarray(y.transpose(1, 0, 2))

    def backward(self, d_recon):
        """Gradient of a scalar loss w.r.t. every parameter.

        ``d_recon`` is the loss gradient w.r.t. the [B, T, F] reconstruction
        returned by the latest ``forward``.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        caches = self._cache
        grads = {}

        d = np.ascontiguousarray(d_recon.transpose(1, 0, 2), dtype=self.dtype)
        d, g = self._layers["out"].backward(d, caches["out"])
        self._store(grads, "out", g)

        for j in reversed(range(len(self._dec_relu))):
            name = f"dec{j}"
            if self._dec_relu[j]:
                d = relu_grad(d, caches[name + ".pre"])
            d, g = self._layers[name].backward(d, caches[name], return_sequences=True)
            self._store(grads, name, g)

        d_code = d.sum(axis=0, dtype=self.dtype)
        d, g = self._layers["code"].backward(d_code, caches["code"], return_sequences=False)
        self._store(grads, "code", g)

        for i in reversed(range(len(self.config.outer_layer_sizes))):
            name = f"enc{i}"
            if self._enc_relu[i]:
                d = relu_grad(d, caches[name + ".pre"])
            d, g = self._layers[name].backward(d, caches[name], return_sequences=True)
            self._store(grads, name, g)

        return {k: grads[k] for k in self.param_refs()}

    def _store(self, grads, name, layer_grads):
        for pname, arr in layer_grads.items():
            grads[f"{name}.{pname}"] = arr

    def reconstruct(self, windows, chunk=256):
        """Reconstruction for [N, T, F] windows without keeping caches."""
        outs = []
        for s in range(0, len(windows), chunk):
            outs.append(self.forward(windows[s:s + chunk]))
        self._cache = None
        return np.concatenate(outs, axis=0) if outs else np.empty_like(windows)


def build_autoencoder(config, seed=0, dtype=np.float32):
    return LstmAutoencoder(config, seed=seed, dtype=dtype)


# -- training ----------------------------------------------------------------

@dataclass
class TrainResult:
    train_losses: list
    val_losses: list
    adam_state: AdamState
    duration_s: float = 0.0


def _epoch_rng(seed, epoch_index):
    return np.random.default_rng([int(seed), int(epoch_index)])


def train_epochs(model, train_windows, cfg, n_epochs, *, val_windows=None,
                 seed=0, epoch_offset=0, adam_state=None):
    """Run ``n_epochs`` of minibatch training, committing weights per epoch.

    ``epoch_offset`` is the number of epochs already completed (it drives both
    the LR decay schedule and the shuffle stream, so federated rounds and one
    long local run traverse identical arithmetic).  Each epoch ends by
    re-expressing the weights as epoch-start plus the float32 epoch delta.
    """
    windows = np.ascontiguousarray(train_windows, dtype=model.dtype)
    if windows.ndim != 3:
        raise ShapeError(f"train_windows must be [N, T, F], got {windows.shape}")
    n = len(windows)
    if n == 0 and n_epochs > 0:
        raise ShapeError("cannot train on zero windows")

    params = model.param_refs()
    if adam_state is None:
        adam_state = AdamState.for_params(params)
    lam = cfg.l2_lambda
    t0 = time.perf_counter()

    train_losses = []
    val_losses = []
    for e in range(n_epochs):
        global_epoch = epoch_offset + e
        lr = decayed_lr(cfg.learning_rate, global_epoch, cfg.lr_decay)
        perm = _epoch_rng(seed, global_epoch).permutation(n)
        start_weights = model.weights_dict()

        batch_losses = []
        for s in range(0, n, cfg.batch_size):
            xb = windows[perm[s:s + cfg.batch_size]]
            recon = model.forward(xb)
            batch_losses.append(mse_loss(xb, recon))
            grads = model.backward(mse_grad(xb, recon))
            params = model.param_refs()
            if lam > 0:
                two_lam = model.dtype.type(2.0 * lam)
                for k in grads:
                    if k.endswith(".W") or k.endswith(".U"):
                        grads[k] += two_lam * params[k]
            clip_gradients(grads, cfg.clip_max_norm)
            adam_step(params, grads, adam_state, lr)

        delta = weight_delta(model.param_refs(), start_weights)
        model.set_weights_dict(apply_weight_delta(start_weights, delta))
        check_finite(model.param_refs(), context=f"epoch {global_epoch}")

        train_losses.append(float(np.mean(batch_losses)))
        if val_windows is not None and len(val_windows):
            val_losses.append(evaluate_loss(model, val_windows))

    return TrainResult(train_losses=train_losses, val_losses=val_losses,
                       adam_state=adam_state, duration_s=time.perf_counter() - t0)


def evaluate_loss(model, windows, chunk=256):
    """Mean squared reconstruction error over a window set, no updates."""
    windows = np.ascontiguousarray(windows, dtype=model.dtype)
    recon = model.reconstruct(windows, chunk=chunk)
    return mse_loss(windows, recon)


# -- reconstruction error and thresholding -----------------------------------

def reconstruction_error(window, recon):
    """Mean squared sample-wise deviation for one window (both [T, F])."""
    return mse_loss(window, recon)


def window_scores(model, windows, chunk=256):
    """Per-window reconstruction errors, [N] float64."""
    windows = np.ascontiguousarray(windows, dtype=model.dtype)
    if len(windows) == 0:
        return np.zeros(0)
    recon = model.reconstruct(windows, chunk=chunk)
    diff = recon.astype(np.float64) - windows.astype(np.float64)
    return (diff * diff).mean(axis=(1, 2))


def batch_anomaly_score(scores, mode="mean"):
    """Collapse the window scores of one batch to a single score."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ShapeError("batch produced no windows to score")
    if mode not in SCORE_MODES:
        raise ConfigError(f"unknown batch score mode {mode!r}, pick from {SCORE_MODES}")
    return float(scores.mean() if mode == "mean" else scores.max())


@dataclass
class ThresholdModel:
    """Anomaly threshold calibrated from reference reconstruction errors."""

    threshold: float
    delta: float
    mode: str
    mean_re: float
    sigma_re: float
    n_reference: int

    @classmethod
    def calibrate(cls, reference_res, delta=3.0, mode="mean_plus_sigma"):
        res = np.asarray(reference_res, dtype=np.float64)
        if res.size == 0:
            raise ShapeError("cannot calibrate a threshold from zero reference errors")
        if mode not in THRESHOLD_MODES:
            raise ConfigError(f"unknown threshold mode {mode!r}, pick from {THRESHOLD_MODES}")
        if delta < 0:
            raise ConfigError(f"delta must be >= 0, got {delta}")
        mean = float(res.mean())
        sigma = float(res.std(ddof=1)) if res.size > 1 else 0.0
        if sigma < SIGMA_FLOOR:
            threshold = mean + THRESHOLD_FLOOR_MARGIN
        elif mode == "paper_literal":
            threshold = delta * sigma
        else:
            threshold = mean + delta * sigma
        return cls(threshold=threshold, delta=delta, mode=mode,
                   mean_re=mean, sigma_re=sigma, n_reference=int(res.size))

    def classify(self, score):
        """Scores at or below the threshold are normal."""
        return "normal" if score <= self.threshold else "anomalous"


@dataclass
class AnomalyVerdict:
    batch_index: int
    timestamp: float
    score: float
    threshold: float
    verdict: str
    label: str | None = None


def score_batches(model, batches, offset, threshold, window_size, score_mode="mean"):
    """Score whole batches with a fitted model and a fixed threshold."""
    verdicts = []
    for i, batch in enumerate(batches):
        n = batch.samples.shape[0] // window_size
        if n == 0:
            continue
        ws = batch.samples[:n * window_size].reshape(n, window_size, batch.feature_count)
        score = batch_anomaly_score(window_scores(model, ws), mode=score_mode)
        verdicts.append(AnomalyVerdict(
            batch_index=offset + i, timestamp=batch.timestamp, score=score,
            threshold=threshold.threshold, verdict=threshold.classify(score),
            label=batch.label))
    return verdicts


@dataclass
class DetectionMetrics:
    """Precision/recall/F1 with anomalous as the positive class.

    ``degenerate`` flags any zero-denominator metric, which is reported as 0.
    """

    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    degenerate: bool = False


def evaluate_detection(predicted_anomalous, truly_anomalous):
    """Compare predicted vs true anomaly flags (any boolean sequences)."""
    pred = np.asarray(predicted_anomalous, dtype=bool)
    truth = np.asarray(truly_anomalous, dtype=bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction/truth length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    tn = int(np.sum(~pred & ~truth))
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return DetectionMetrics(precision=precision, recall=recall, f1=f1,
                            tp=tp, fp=fp, fn=fn, tn=tn, degenerate=degenerate)
