"""LSTM and dense layers: parameter storage plus forward/backward wrappers.

The layers hold their parameters as attributes, written in place and never
rebound, and delegate the heavy recurrence to :mod:`fedvib.nn.kernels`.
Gate order everywhere is input | forget | cell | output along the stacked
4H dimension.  :class:`LstmPair` runs two stacked layers through one call of
the same kernels.
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

    def forward(self, x, return_sequences=True, keep_cache=True):
        """``(output, cache)``; the cache is None unless ``keep_cache``."""
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"lstm expects [T, B, {self.input_size}], got {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.dtype)
        h, c, gates = kernels.lstm_forward(x, self.W, self.U, self.b, keep_cache)
        cache = (x, h, c, gates) if keep_cache else None
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


class LstmPair:
    """Two stacked LSTM layers, A (I -> Ha) under B (Ha -> Hb), run as one
    recurrence of width Ha + Hb with B one step behind A (Appleyard et al.,
    arXiv:1604.01946): T + 1 steps of one kernel call instead of two calls of
    T steps each.

    The combined weights are built from the layers' live arrays on every
    forward.  Their gate rows interleave the layers gate by gate (iA iB fA fB
    gA gB oA oB), so every gate block stays contiguous for the kernels.  The
    recurrent matrix is ``[[Ua, 0], [Wb, Ub]]``: at step t, B reads A's step
    t - 1 output from the previous hidden state.  Only A's rows take the
    input; the extra last input column is 1 at step 0 only and shuts B's input
    gate there, so that B's state after its step -1 is exactly zero, as a
    single layer's initial state is, and no gradient flows through that step.
    """

    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper
        Ha, Hb = lower.hidden_size, upper.hidden_size
        gate_start = (Ha + Hb) * np.arange(4)[:, None]
        self._rows_a = (gate_start + np.arange(Ha)).ravel()
        self._rows_b = (gate_start + Ha + np.arange(Hb)).ravel()

    def combined(self, x):
        """The kernel arguments ``(x, W, U, b)`` of the combined recurrence
        for a [T, B, I] input to A."""
        A, B = self.lower, self.upper
        T, batch, I = x.shape
        Ha, Hb = A.hidden_size, B.hidden_size
        ra, rb = self._rows_a, self._rows_b
        xc = np.zeros((T + 1, batch, I + 1), A.dtype)
        xc[:T, :, :I] = x
        xc[0, :, I] = 1
        W = np.zeros((4 * (Ha + Hb), I + 1), A.dtype)
        W[ra, :I] = A.W
        # B's input-gate pre-activation at step 0 is at most -64, which the
        # kernel halves: tanh(-32) rounds to exactly -1, so the gate is 0.
        W[rb[:Hb], I] = -(np.abs(B.b[:Hb]) + 64)
        U = np.zeros((4 * (Ha + Hb), Ha + Hb), A.dtype)
        U[ra, :Ha] = A.U
        U[rb, :Ha] = B.W
        U[rb, Ha:] = B.U
        b = np.empty(4 * (Ha + Hb), A.dtype)
        b[ra] = A.b
        b[rb] = B.b
        return xc, W, U, b

    def forward(self, x, return_sequences=True, keep_cache=True):
        """``(outputs, cache)``: B's outputs for a [T, B, I] input to A (its
        last step only when ``return_sequences`` is false); the cache is None
        unless ``keep_cache``."""
        A = self.lower
        if x.ndim != 3 or x.shape[2] != A.input_size:
            raise ShapeError(
                f"lstm expects [T, B, {A.input_size}], got {x.shape}")
        xc, W, U, b = self.combined(x)
        h, c, gates = kernels.lstm_forward(xc, W, U, b, keep_cache)
        cache = (xc, W, U, h, c, gates) if keep_cache else None
        Ha = A.hidden_size
        out = h[1:, :, Ha:] if return_sequences else h[-1, :, Ha:]
        return np.ascontiguousarray(out), cache

    def backward(self, d_out, cache, return_sequences=True):
        """``(dx, grads of A, grads of B)`` for the gradient of B's outputs."""
        xc, W, U, h, c, gates = cache
        I, Ha = self.lower.input_size, self.lower.hidden_size
        d_h = np.zeros(h.shape, h.dtype)
        if return_sequences:
            d_h[1:, :, Ha:] = d_out
        else:
            d_h[-1, :, Ha:] = d_out
        dx, dW, dU, db = kernels.lstm_backward(xc, W, U, h, c, gates, d_h)
        ra, rb = self._rows_a, self._rows_b
        # dropped: B's input rows and the step-0 column of dW, the [A rows, B
        # cols] block of dU; they belong to entries that are zero by design
        return (dx[:-1, :, :I],
                {"W": dW[ra, :I], "U": dU[ra, :Ha], "b": db[ra]},
                {"W": dU[rb, :Ha], "U": dU[rb, Ha:], "b": db[rb]})


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
        db = np.ones(T * B, d2.dtype) @ d2
        dx = (d2 @ self.W).reshape(T, B, self.input_size)
        return dx, {"W": dW, "b": db}
