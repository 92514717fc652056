"""Hot recurrence kernels for the LSTM forward and backward passes.

The time loop is inherently sequential, so these are the compute bottleneck of
the whole package.  Each kernel exists twice from a single source body:

* ``lstm_forward`` / ``lstm_backward`` -- numba ``@njit`` compiled when numba
  is importable and ``FEDVIB_DISABLE_NUMBA`` is not set to ``1``;
* ``lstm_forward_numpy`` / ``lstm_backward_numpy`` -- the uncompiled bodies,
  always available (used as the fallback path and by the parity benchmark).

Array conventions: sequences are ``[T, B, *]`` C-contiguous, gate order along
the stacked weight rows is input | forget | cell | output.  Kernels are dtype
generic (float32 in production, float64 for gradient checking); constants are
built with ``ones_like`` so numba does not promote float32 math to float64.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("FEDVIB_DISABLE_NUMBA", "0") != "1"
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # numba comes with the optional [jit] extra
        USE_NUMBA = False


def _sigmoid(z):
    # Branchless stable sigmoid: never exponentiates a positive argument.
    e = np.exp(-np.abs(z))
    one = np.ones_like(e)
    return np.where(z >= 0, one / (one + e), e / (one + e))


def _lstm_forward_impl(x, W, U, b):
    """Run the recurrence over a [T, B, I] input.

    Returns (h, c, gates): hidden and cell state sequences [T, B, H] and the
    post-activation gate sequence [T, B, 4H], everything the backward pass
    needs besides the inputs themselves.
    """
    T, B, _ = x.shape
    H = U.shape[1]
    Wt = W.T.copy()
    Ut = U.T.copy()

    h = np.empty((T, B, H), x.dtype)
    c = np.empty((T, B, H), x.dtype)
    gates = np.empty((T, B, 4 * H), x.dtype)
    h_prev = np.zeros((B, H), x.dtype)
    c_prev = np.zeros((B, H), x.dtype)

    for t in range(T):
        z = np.dot(x[t], Wt) + np.dot(h_prev, Ut) + b
        gi = _sigmoid(z[:, 0:H])
        gf = _sigmoid(z[:, H:2 * H])
        gg = np.tanh(z[:, 2 * H:3 * H])
        go = _sigmoid(z[:, 3 * H:4 * H])
        c_t = gf * c_prev + gi * gg
        h_t = go * np.tanh(c_t)
        gates[t, :, 0:H] = gi
        gates[t, :, H:2 * H] = gf
        gates[t, :, 2 * H:3 * H] = gg
        gates[t, :, 3 * H:4 * H] = go
        c[t] = c_t
        h[t] = h_t
        h_prev = h_t
        c_prev = c_t
    return h, c, gates


def _lstm_backward_impl(x, W, U, h, c, gates, d_h):
    """Backpropagate through time.

    ``d_h`` is the loss gradient w.r.t. every hidden output [T, B, H] (zero
    rows where a step's output is unused).  Returns (dx, dW, dU, db).
    """
    T, B, I = x.shape
    H = U.shape[1]

    dx = np.empty((T, B, I), x.dtype)
    dW = np.zeros(W.shape, x.dtype)
    dU = np.zeros(U.shape, x.dtype)
    db = np.zeros(W.shape[0], x.dtype)

    zero_state = np.zeros((B, H), x.dtype)
    dh_next = np.zeros((B, H), x.dtype)
    dc_next = np.zeros((B, H), x.dtype)
    dz = np.empty((B, 4 * H), x.dtype)
    one = np.ones((B, H), x.dtype)

    for t in range(T - 1, -1, -1):
        gi = gates[t, :, 0:H]
        gf = gates[t, :, H:2 * H]
        gg = gates[t, :, 2 * H:3 * H]
        go = gates[t, :, 3 * H:4 * H]
        c_prev = c[t - 1] if t > 0 else zero_state
        h_prev = h[t - 1] if t > 0 else zero_state

        tc = np.tanh(c[t])
        dh = d_h[t] + dh_next
        dc = dh * go * (one - tc * tc) + dc_next

        dz[:, 0:H] = dc * gg * gi * (one - gi)
        dz[:, H:2 * H] = dc * c_prev * gf * (one - gf)
        dz[:, 2 * H:3 * H] = dc * gi * (one - gg * gg)
        dz[:, 3 * H:4 * H] = dh * tc * go * (one - go)

        dzT = dz.T.copy()
        dW += np.dot(dzT, x[t])
        dU += np.dot(dzT, np.ascontiguousarray(h_prev))
        db += np.sum(dz, axis=0)
        dh_next = np.dot(dz, U)
        dc_next = dc * gf
        dx[t] = np.dot(dz, W)
    return dx, dW, dU, db


lstm_forward_numpy = _lstm_forward_impl
lstm_backward_numpy = _lstm_backward_impl

if USE_NUMBA:
    _sigmoid = njit(cache=True)(_sigmoid)
    lstm_forward = njit(cache=True)(_lstm_forward_impl)
    lstm_backward = njit(cache=True)(_lstm_backward_impl)
else:
    lstm_forward = _lstm_forward_impl
    lstm_backward = _lstm_backward_impl
