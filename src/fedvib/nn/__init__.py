"""From-scratch neural network core: LSTM/dense layers, losses, Adam."""

from .layers import DenseLayer, LstmLayer, LstmPair, glorot_uniform
from .ops import (
    apply_weight_delta,
    check_finite,
    clip_gradients,
    decayed_lr,
    global_grad_norm,
    mse_grad,
    mse_loss,
    relu,
    relu_grad,
    weight_delta,
)
from .optim import AdamState, TrainConfig, adam_step

# Read by perfbench/run.py for its kernel_mode stamp; the kernels are numpy.
USE_NUMBA = False

__all__ = [
    "USE_NUMBA",
    "AdamState",
    "DenseLayer",
    "LstmLayer",
    "LstmPair",
    "TrainConfig",
    "adam_step",
    "apply_weight_delta",
    "check_finite",
    "clip_gradients",
    "decayed_lr",
    "glorot_uniform",
    "global_grad_norm",
    "mse_grad",
    "mse_loss",
    "relu",
    "relu_grad",
    "weight_delta",
]
