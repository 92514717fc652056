"""Adam optimizer and the training hyperparameter record."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``lr_decay`` is the fraction of the learning rate removed per epoch
    (lr_e = learning_rate * (1 - lr_decay) ** e, with e counted cumulatively
    across federation rounds).  ``l2_lambda`` weights the squared-magnitude
    penalty on weight matrices; biases are exempt.
    """

    learning_rate: float = 1e-3
    lr_decay: float = 0.01
    l2_lambda: float = 1e-7
    clip_max_norm: float = 1.0
    batch_size: int = 64
    epochs: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.lr_decay < 1:
            raise ConfigError(f"lr_decay must be in [0, 1), got {self.lr_decay}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.clip_max_norm <= 0:
            raise ConfigError(f"clip_max_norm must be > 0, got {self.clip_max_norm}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params):
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        return cls(m=m, v=v, step=0)


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place on ``params``."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, p in params.items():
        g = grads[k]
        ft = p.dtype.type
        m = state.m[k]
        v = state.v[k]
        m *= ft(ADAM_BETA1)
        m += ft(1.0 - ADAM_BETA1) * g
        v *= ft(ADAM_BETA2)
        v += ft(1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / ft(bc1)
        v_hat = v / ft(bc2)
        p -= ft(lr) * m_hat / (np.sqrt(v_hat) + ft(ADAM_EPS))
