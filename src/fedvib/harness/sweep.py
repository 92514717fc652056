"""Hyperparameter sweep over the architecture/training grid.

The full grid is the cross product of batch size {32,64,128}, window size
{50,100,200}, outer LSTM width {32,64,128,256,512}, stacked outer layers
{1,2,3,4}, encoding size {8,16,32}, and learning rate {3e-2,3e-4,1e-2,1e-3}
— 2160 combinations.  A budgeted, seeded sample of it is trained at reduced
scale and ranked by final validation loss; ties prefer the smaller model.
"""

import itertools
from dataclasses import dataclass

from ..data import chronological_split, windows_for_batches
from ..errors import ConfigError
from ..model import build_autoencoder, evaluate_loss, train_epochs
from ..model import AutoencoderConfig
from ..nn import TrainConfig

import numpy as np

BATCH_SIZES = (32, 64, 128)
WINDOW_SIZES = (50, 100, 200)
OUTER_SIZES = (32, 64, 128, 256, 512)
LAYER_COUNTS = (1, 2, 3, 4)
ENCODING_SIZES = (8, 16, 32)
LEARNING_RATES = (3e-2, 3e-4, 1e-2, 1e-3)


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: everything that varies between candidate configs."""

    batch_size: int
    window_size: int
    outer_size: int
    n_layers: int
    encoding_size: int
    learning_rate: float

    def autoencoder_config(self, feature_count):
        return AutoencoderConfig(
            feature_count=feature_count,
            window_size=self.window_size,
            outer_layer_sizes=(self.outer_size,) * self.n_layers,
            encoding_size=self.encoding_size)

    def train_config(self):
        return TrainConfig(batch_size=self.batch_size,
                           learning_rate=self.learning_rate)


@dataclass
class SweepResult:
    point: SweepPoint
    val_loss: float
    param_count: int


def search_space():
    """The full grid, in deterministic order."""
    return tuple(
        SweepPoint(batch_size=b, window_size=w, outer_size=o,
                   n_layers=l, encoding_size=e, learning_rate=lr)
        for b, w, o, l, e, lr in itertools.product(
            BATCH_SIZES, WINDOW_SIZES, OUTER_SIZES,
            LAYER_COUNTS, ENCODING_SIZES, LEARNING_RATES)
    )


def sample_grid(space, budget, seed=0):
    """Seeded sample of ``budget`` distinct points (all of them if the budget
    covers the space)."""
    space = tuple(space)
    if not space:
        raise ConfigError("search space is empty")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    k = min(budget, len(space))
    idx = np.random.default_rng(seed).choice(len(space), size=k, replace=False)
    return [space[i] for i in idx]


def rank_results(results):
    """Best first: smallest validation loss, then smallest parameter count."""
    return sorted(results, key=lambda r: (r.val_loss, r.param_count))


def sweep_hyperparameters(dataset, budget, *, seed=0,
                          epochs=2, max_windows=256, space=None):
    """Train each sampled config briefly on ``dataset`` and rank them.

    ``max_windows`` caps the training windows per candidate so even the large
    grid cells stay affordable; ``epochs=0`` ranks untrained models by their
    initial validation loss.
    """
    points = sample_grid(search_space() if space is None else space, budget, seed)
    train_b, val_b, _ = chronological_split(dataset)
    results = []
    for point in points:
        acfg = point.autoencoder_config(dataset.feature_count)
        tcfg = point.train_config()
        train_w, _ = windows_for_batches(train_b, point.window_size)
        val_w, _ = windows_for_batches(val_b, point.window_size)
        if len(train_w) == 0 or len(val_w) == 0:
            raise ConfigError(f"window_size={point.window_size} yields no "
                              f"windows on dataset {dataset.source_id!r}")
        model = build_autoencoder(acfg, seed=seed)
        train_epochs(model, train_w[:max_windows], tcfg, epochs, seed=seed)
        results.append(SweepResult(point=point,
                                   val_loss=float(evaluate_loss(model, val_w)),
                                   param_count=model.param_count()))
    return rank_results(results)
