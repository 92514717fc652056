"""LSTM and dense layers: parameter storage plus forward/backward wrappers.

The layers hold their parameters as attributes, written in place and never
rebound, and delegate the heavy recurrence to :mod:`fedvib.nn.kernels`.
Gate order everywhere is input | forget | cell | output along the stacked
4H dimension.
"""

import numpy as np

from ..errors import ShapeError
from . import kernels

FORGET_BIAS = 1.0


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    """Uniform Glorot draw: limit = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class LstmLayer:
    """Single LSTM layer over [T, B, input_size] sequences.

    Weights: W [4H, input], U [4H, hidden], b [4H].  Biases start at zero
    except the forget-gate block, which starts at ``FORGET_BIAS`` (1.0) so
    early training does not dump cell state.
    """

    def __init__(self, input_size, hidden_size, rng, dtype=np.float32):
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.dtype = np.dtype(dtype)
        H = self.hidden_size
        self.W = glorot_uniform(rng, (4 * H, self.input_size),
                                fan_in=self.input_size, fan_out=H, dtype=self.dtype)
        self.U = glorot_uniform(rng, (4 * H, H), fan_in=H, fan_out=H, dtype=self.dtype)
        self.b = np.zeros(4 * H, dtype=self.dtype)
        self.b[H:2 * H] = FORGET_BIAS

    def params(self):
        return {"W": self.W, "U": self.U, "b": self.b}

    def forward(self, x, return_sequences=True):
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"lstm expects [T, B, {self.input_size}], got {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.dtype)
        h, c, gates = kernels.lstm_forward(x, self.W, self.U, self.b)
        cache = (x, h, c, gates)
        return (h if return_sequences else h[-1]), cache

    def backward(self, d_out, cache, return_sequences=True):
        x, h, c, gates = cache
        T, B, _ = x.shape
        if return_sequences:
            d_h = np.ascontiguousarray(d_out, dtype=self.dtype)
        else:
            d_h = np.zeros((T, B, self.hidden_size), dtype=self.dtype)
            d_h[-1] = d_out
        dx, dW, dU, db = kernels.lstm_backward(x, self.W, self.U, h, c, gates, d_h)
        return dx, {"W": dW, "U": dU, "b": db}


class DenseLayer:
    """Per-timestep affine map [T, B, input] -> [T, B, output], linear output."""

    def __init__(self, input_size, output_size, rng, dtype=np.float32):
        self.input_size = int(input_size)
        self.output_size = int(output_size)
        self.dtype = np.dtype(dtype)
        self.W = glorot_uniform(rng, (self.output_size, self.input_size),
                                fan_in=self.input_size, fan_out=self.output_size,
                                dtype=self.dtype)
        self.b = np.zeros(self.output_size, dtype=self.dtype)

    def params(self):
        return {"W": self.W, "b": self.b}

    def forward(self, x):
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(f"dense expects [T, B, {self.input_size}], got {x.shape}")
        T, B, _ = x.shape
        flat = x.reshape(T * B, self.input_size)
        y = flat @ self.W.T + self.b
        return y.reshape(T, B, self.output_size), x

    def backward(self, d_out, cache):
        x = cache
        T, B, _ = x.shape
        d2 = d_out.reshape(T * B, self.output_size)
        x2 = x.reshape(T * B, self.input_size)
        dW = d2.T @ x2
        db = d2.sum(axis=0)
        dx = (d2 @ self.W).reshape(T, B, self.input_size)
        return dx, {"W": dW, "b": db}
