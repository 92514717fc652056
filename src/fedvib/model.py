"""LSTM autoencoder for vibration windows, plus thresholded anomaly scoring.

Architecture (symmetric): stacked outer LSTM layers returning sequences, a
final LSTM whose last hidden state is the encoding, the encoding repeated over
the window length, mirrored LSTM layers returning sequences, and a linear
per-timestep dense output.  ReLU sits only between stacked outer LSTM layers;
the output stays linear because vibration samples are signed.

Two stacked layers with nothing between them run as one recurrence
(:class:`~fedvib.nn.LstmPair`): the last outer encoder layer with ``code``,
and ``dec0`` with ``dec1``.  A ReLU between two layers breaks such a pair,
because the combined recurrence feeds A's hidden state straight into B.  The
pairing halves the time loops, and so the per-step numpy calls, of the
stacked layers.  Parameter names, order and shapes are those of the layers.
"""

from dataclasses import dataclass

import numpy as np

from .data import windows_for_batches
from .errors import ConfigError, ShapeError
from .nn import (
    AdamState,
    DenseLayer,
    LstmLayer,
    LstmPair,
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
from .nn.ops import check_layout

THRESHOLD_MODES = ("mean_plus_sigma", "paper_literal")
SCORE_MODES = ("mean", "max")
SIGMA_FLOOR = 1e-12
THRESHOLD_FLOOR_MARGIN = 1e-9
# most windows per forward pass when no gradient follows: bounds the peak of
# the hidden-state sequences a cache-free forward still builds.  An input is
# cut into near-equal chunks, none shorter than 128 windows unless the whole
# input is, so no chunk edge leaves a short last chunk.  A whole input of 1-4
# windows can still score differently in the last bits on wide models than
# the same windows in a larger forward: OpenBLAS takes a small-M GEMM path.
RECONSTRUCT_CHUNK = 256


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


class LstmAutoencoder:
    """Windows in, reconstructions out; holds only its weights.

    The named parameter arrays are bound once, at construction: loading
    weights copies into them, so ``param_refs()`` stays valid for the life of
    the model.
    """

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(self.seed)
        T = config.window_size
        F = config.feature_count
        outer = config.outer_layer_sizes
        E = config.encoding_size

        self._layers = {}

        prev = F
        for i, s in enumerate(outer):
            self._layers[f"enc{i}"] = LstmLayer(prev, s, rng, dtype=self.dtype)
            prev = s
        self._layers["code"] = LstmLayer(prev, E, rng, dtype=self.dtype)

        dec_sizes = (E,) + tuple(reversed(outer))
        prev = E
        for j, s in enumerate(dec_sizes):
            self._layers[f"dec{j}"] = LstmLayer(prev, s, rng, dtype=self.dtype)
            prev = s
        self._layers["out"] = DenseLayer(prev, F, rng, dtype=self.dtype)

        # (layer names, layer or pair, returns sequences, ReLU after) in
        # forward order; a stage that returns its last step only is the code
        n = len(outer)
        L = self._layers
        self._stages = [((f"enc{i}",), L[f"enc{i}"], True, True) for i in range(n - 1)]
        self._stages += [
            ((f"enc{n - 1}", "code"), LstmPair(L[f"enc{n - 1}"], L["code"]), False, False),
            (("dec0", "dec1"), LstmPair(L["dec0"], L["dec1"]), True, n > 1)]
        self._stages += [((f"dec{j}",), L[f"dec{j}"], True, j < n) for j in range(2, n + 1)]
        self._params = {f"{name}.{pname}": arr
                        for name, layer in self._layers.items()
                        for pname, arr in layer.params().items()}

    # -- parameter access ---------------------------------------------------

    def param_refs(self):
        """Live (uncopied) named arrays, architecture order; the same dict
        and arrays on every call."""
        return self._params

    def weights_dict(self):
        """Copied named arrays, safe to ship or stash."""
        return {k: v.copy() for k, v in self._params.items()}

    def set_weights_dict(self, weights):
        """Copy ``weights`` into the model's own arrays (names, order and
        shapes must match)."""
        check_layout(self._params, weights, "model weights")
        for k, arr in self._params.items():
            np.copyto(arr, weights[k])

    def param_count(self):
        return sum(a.size for a in self._params.values())

    # -- forward / backward -------------------------------------------------

    def forward(self, x, keep_cache=True):
        """x: [B, T, F] -> ``(reconstruction [B, T, F], cache)``.

        ``cache`` holds what ``backward`` needs; the model keeps none of it.
        With ``keep_cache`` false no backward follows: the layers keep no
        gates or cell states, and ``cache`` is None.
        """
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.window_size or x.shape[2] != cfg.feature_count:
            raise ShapeError(
                f"expected [B, {cfg.window_size}, {cfg.feature_count}] windows, got {x.shape}")
        xt = np.ascontiguousarray(x.transpose(1, 0, 2), dtype=self.dtype)
        T, B, _ = xt.shape

        caches = []
        h = xt
        for _, stage, sequences, relu_after in self._stages:
            h, cache = stage.forward(h, return_sequences=sequences,
                                     keep_cache=keep_cache)
            pre = None
            if relu_after:
                pre, h = h, relu(h)
            if keep_cache:
                caches.append((cache, pre))
            if not sequences:  # the code, repeated over the window
                h = np.ascontiguousarray(np.broadcast_to(h, (T,) + h.shape))
        y, out_cache = self._layers["out"].forward(h)
        recon = np.ascontiguousarray(y.transpose(1, 0, 2))
        return recon, ((caches, out_cache) if keep_cache else None)

    def backward(self, d_recon, cache):
        """Gradient of a scalar loss w.r.t. every parameter.

        ``d_recon`` is the loss gradient w.r.t. the [B, T, F] reconstruction
        of the ``forward`` call that returned ``cache``.
        """
        caches, out_cache = cache
        d = np.ascontiguousarray(d_recon.transpose(1, 0, 2), dtype=self.dtype)
        d, grads = self._layers["out"].backward(d, out_cache)
        grads = {f"out.{k}": v for k, v in grads.items()}

        for (names, stage, sequences, _), (layer_cache, pre) in zip(
                reversed(self._stages), reversed(caches)):
            if not sequences:
                d = d.sum(axis=0, dtype=self.dtype)
            if pre is not None:
                d = relu_grad(d, pre)
            d, *layer_grads = stage.backward(d, layer_cache, return_sequences=sequences)
            for name, g in zip(names, layer_grads, strict=True):
                grads.update((f"{name}.{k}", v) for k, v in g.items())

        return {k: grads[k] for k in self._params}

    def reconstruct(self, windows):
        """Reconstruction for [N, T, F] windows, by cache-free forwards of
        near-equal chunks of at most ``RECONSTRUCT_CHUNK`` windows."""
        if not len(windows):
            return np.empty_like(windows)
        chunks = np.array_split(windows, -(-len(windows) // RECONSTRUCT_CHUNK))
        return np.concatenate([self.forward(c, False)[0] for c in chunks], axis=0)


def build_autoencoder(config, seed=0, dtype=np.float32):
    return LstmAutoencoder(config, seed=seed, dtype=dtype)


# -- training ----------------------------------------------------------------

@dataclass
class TrainResult:
    train_losses: list
    val_losses: list
    adam_state: AdamState


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
            recon, cache = model.forward(xb)
            batch_losses.append(mse_loss(xb, recon))
            grads = model.backward(mse_grad(xb, recon), cache)
            del cache  # freed before the next forward builds its own
            if lam > 0:
                two_lam = model.dtype.type(2.0 * lam)
                for k in grads:
                    if k.endswith(".W") or k.endswith(".U"):
                        grads[k] += two_lam * params[k]
            clip_gradients(grads, cfg.clip_max_norm)
            adam_step(params, grads, adam_state, lr)

        delta = weight_delta(params, start_weights)
        model.set_weights_dict(apply_weight_delta(start_weights, delta))
        check_finite(params, context=f"epoch {global_epoch}")

        train_losses.append(float(np.mean(batch_losses)))
        if val_windows is not None and len(val_windows):
            val_losses.append(evaluate_loss(model, val_windows))

    return TrainResult(train_losses=train_losses, val_losses=val_losses,
                       adam_state=adam_state)


def evaluate_loss(model, windows):
    """Mean squared reconstruction error over a window set, no updates."""
    windows = np.ascontiguousarray(windows, dtype=model.dtype)
    recon = model.reconstruct(windows)
    return mse_loss(windows, recon)


# -- reconstruction error and thresholding -----------------------------------

def window_scores(model, windows):
    """Per-window reconstruction errors, [N] float64."""
    windows = np.ascontiguousarray(windows, dtype=model.dtype)
    if len(windows) == 0:
        return np.zeros(0)
    diff = model.reconstruct(windows).astype(np.float64)
    diff -= windows
    diff *= diff
    return diff.mean(axis=(1, 2))


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
    """Score whole batches with a fitted model and a fixed threshold.

    The windows of all batches go through one ``window_scores`` call; a batch
    too short for one window gets no verdict.
    """
    ws, owners = windows_for_batches(batches, window_size)
    scores = window_scores(model, ws)
    present, starts = np.unique(owners, return_index=True)
    verdicts = []
    for i, batch_scores in zip(present.tolist(), np.split(scores, starts[1:])):
        batch = batches[i]
        score = batch_anomaly_score(batch_scores, mode=score_mode)
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
