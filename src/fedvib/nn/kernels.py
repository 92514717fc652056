"""Hot recurrence kernels for the LSTM forward and backward passes.

The time loop is inherently sequential, so these are the compute bottleneck of
the whole package.  On the narrow layers (3->4, 4->2) per-call overhead, not
arithmetic, sets the time, so everything that does not depend on the previous
step is taken out of the loop (Appleyard et al., arXiv:1604.01946): the input
projection of all steps is one GEMM before it, and the weight gradients and
``dx`` are one GEMM each per block of steps, after the block's recurrence.

Scoring runs the same forward loop without the cache (``keep_cache`` false):
the input projection then runs per block of steps into a small gate buffer,
and only the current step of the cell state is kept, so a scoring call holds
the hidden states and little else.

Array conventions: sequences are ``[T, B, *]`` C-contiguous, gate order along
the stacked weight rows is input | forget | cell | output.  Kernels are dtype
generic (float32 in production, float64 for gradient checking).
"""

import numpy as np

# Elements per block of steps in the backward pass (its gate factors, its dz).
# All T steps at once is fastest on narrow layers but memory-bound at H=128;
# blocks of this size stay in cache on both.
_FACTOR_BLOCK = 1 << 16


def lstm_forward(x, W, U, b, keep_cache=True):
    """Run the recurrence over a [T, B, I] input.

    Returns (h, c, gates): hidden and cell state sequences [T, B, H] and the
    post-activation gate sequence [T, B, 4H], everything the backward pass
    needs besides the inputs themselves.  With ``keep_cache`` false (no
    backward pass follows) it returns (h, None, None): the input is projected
    block by block into a gate buffer of ``_FACTOR_BLOCK`` elements (at least
    one step), and only the current step of ``c`` is kept.
    """
    T, B, I = x.shape
    H = U.shape[1]
    # s is 0.5 on the rows of the i, f and o gates and 1 on the cell gate's.
    # With the weights pre-scaled by s (halving is exact), one tanh serves
    # every gate: sigmoid(z) = 0.5 * (1 + tanh(z / 2)) = s * tanh(s * z) + 1 - s.
    s = np.full(4 * H, 0.5, x.dtype)
    s[2 * H:3 * H] = 1
    shift = 1 - s
    Ws = (W * s[:, None]).T
    bs = b * s
    Us = (U * s[:, None]).T.copy()

    # n steps per block; c[t % len(c)] holds step t's cell state, and
    # without the cache one step, overwritten in place, holds them all
    n = T if keep_cache else max(1, min(T, _FACTOR_BLOCK // (4 * H * B)))
    h = np.empty((T, B, H), x.dtype)
    c = np.empty((T if keep_cache else 1, B, H), x.dtype)
    gates = np.empty((n, B, 4 * H), x.dtype)
    gi = gates[:, :, 0:H]
    gf = gates[:, :, H:2 * H]
    gg = gates[:, :, 2 * H:3 * H]
    go = gates[:, :, 3 * H:4 * H]
    hU = np.empty((B, 4 * H), x.dtype)
    ig = np.empty((B, H), x.dtype)
    h_prev = c_prev = np.zeros((B, H), x.dtype)

    for start in range(0, T, n):
        k = min(n, T - start)
        np.dot(x[start:start + k].reshape(k * B, I), Ws,
               out=gates[:k].reshape(k * B, 4 * H))
        gates[:k] += bs
        for j in range(k):
            t = start + j
            z, c_t, h_t = gates[j], c[t % len(c)], h[t]
            np.dot(h_prev, Us, out=hU)
            z += hU
            np.tanh(z, out=z)
            z *= s
            z += shift
            np.multiply(gf[j], c_prev, out=c_t)
            np.multiply(gi[j], gg[j], out=ig)
            c_t += ig
            np.tanh(c_t, out=h_t)
            h_t *= go[j]
            h_prev, c_prev = h_t, c_t
    if keep_cache:
        return h, c, gates
    return h, None, None


def lstm_backward(x, W, U, h, c, gates, d_h):
    """Backpropagate through time.

    ``d_h`` is the loss gradient w.r.t. every hidden output [T, B, H] (zero
    rows where a step's output is unused).  Returns (dx, dW, dU, db).

    The loop runs on transposed per-step arrays ([H, B] and [4H, B]), so that
    every elementwise op there and in the gate factors walks contiguous runs
    of H*B elements; with [B, H] rows the inner run is only H long.
    """
    T, B, I = x.shape
    H = U.shape[1]
    Ut = U.T.copy()
    dx = np.empty((T, B, I), x.dtype)
    dW = np.zeros(W.shape, x.dtype)
    dU = np.zeros(U.shape, x.dtype)
    db = np.zeros(W.shape[0], x.dtype)
    dh = np.zeros((H, B), x.dtype)
    dc = np.zeros((H, B), x.dtype)
    tmp = np.empty((H, B), x.dtype)
    # Per step of a block: G holds the gates, F turns (dc, dc, dc, dh) into
    # dz, A turns dh into its share of dc, D holds d_h, Z collects dz; C
    # holds c from the step before.
    n = max(1, _FACTOR_BLOCK // (4 * H * B))
    G = np.empty((n, 4, H, B), x.dtype)
    F = np.empty((n, 4, H, B), x.dtype)
    A = np.empty((n, H, B), x.dtype)
    D = np.empty((n, H, B), x.dtype)
    C = np.empty((n + 1, H, B), x.dtype)
    Z = np.empty((4 * H, n, B), x.dtype)

    for stop in range(T, 0, -n):
        start = max(0, stop - n)
        k = stop - start
        G[:k] = gates[start:stop].reshape(k, B, 4, H).transpose(0, 2, 3, 1)
        D[:k] = d_h[start:stop].transpose(0, 2, 1)
        C[0] = c[start - 1].T if start else 0
        C[1:k + 1] = c[start:stop].transpose(0, 2, 1)
        gi, gf, gg, go = G[:k, 0], G[:k, 1], G[:k, 2], G[:k, 3]
        Fi, Ff, Fg, Fo = F[:k, 0], F[:k, 1], F[:k, 2], F[:k, 3]
        Ak = A[:k]
        np.tanh(C[1:k + 1], out=Ak)
        np.multiply(go, go, out=Fo)
        np.subtract(go, Fo, out=Fo)
        Fo *= Ak                                # tanh(c) go (1 - go)
        np.multiply(Ak, Ak, out=Ak)
        np.subtract(1, Ak, out=Ak)
        Ak *= go                                # go (1 - tanh^2 c)
        np.multiply(gi, gi, out=Fi)
        np.subtract(gi, Fi, out=Fi)
        Fi *= gg                                # gg gi (1 - gi)
        np.multiply(gf, gf, out=Ff)
        np.subtract(gf, Ff, out=Ff)
        Ff *= C[:k]                             # c_prev gf (1 - gf)
        np.multiply(gg, gg, out=Fg)
        np.subtract(1, Fg, out=Fg)
        Fg *= gi                                # gi (1 - gg^2)

        for t in range(stop - 1, start - 1, -1):
            j = t - start
            dz = Z[:, j].reshape(4, H, B)
            dh += D[j]
            np.multiply(dh, A[j], out=tmp)
            dc += tmp
            np.multiply(F[j, 0:3], dc, out=dz[0:3])
            np.multiply(F[j, 3], dh, out=dz[3])
            if t:
                np.dot(Ut, Z[:, j], out=dh)
                dc *= G[j, 1]

        z2 = Z[:, :k].reshape(4 * H, k * B)
        dW += np.dot(z2, x[start:stop].reshape(k * B, I))
        if start:
            dU += np.dot(z2, h[start - 1:stop - 1].reshape(k * B, H))
        else:
            dU += np.dot(z2[:, B:], h[0:stop - 1].reshape((k - 1) * B, H))
        db += z2.sum(axis=1)
        np.dot(z2.T, W, out=dx[start:stop].reshape(k * B, I))
    return dx, dW, dU, db
