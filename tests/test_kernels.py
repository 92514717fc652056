"""Kernel-level checks on the LSTM recurrence: shapes, both dtypes,
determinism, agreement with a per-step reference, saturation, and the timing
harness in ``benchmarks/`` that calls it."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fedvib.nn import kernels

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def _ref_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1 / (1 + e), e / (1 + e))


def _ref_forward(x, W, U, b):
    """One step at a time, every gate from its own pre-activation."""
    T, B, _ = x.shape
    H = U.shape[1]
    h = np.zeros((T, B, H))
    c = np.zeros((T, B, H))
    gates = np.zeros((T, B, 4 * H))
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    for t in range(T):
        z = x[t] @ W.T + h_prev @ U.T + b
        gi = _ref_sigmoid(z[:, 0:H])
        gf = _ref_sigmoid(z[:, H:2 * H])
        gg = np.tanh(z[:, 2 * H:3 * H])
        go = _ref_sigmoid(z[:, 3 * H:4 * H])
        c[t] = gf * c_prev + gi * gg
        h[t] = go * np.tanh(c[t])
        gates[t] = np.concatenate([gi, gf, gg, go], axis=1)
        h_prev, c_prev = h[t], c[t]
    return h, c, gates


def _ref_backward(x, W, U, h, c, gates, d_h):
    """Backpropagation through time with every product taken per step."""
    T, B, _ = x.shape
    H = U.shape[1]
    dx = np.zeros(x.shape)
    dW = np.zeros(W.shape)
    dU = np.zeros(U.shape)
    db = np.zeros(W.shape[0])
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        gi, gf, gg, go = np.split(gates[t], 4, axis=1)
        c_prev = c[t - 1] if t > 0 else np.zeros((B, H))
        h_prev = h[t - 1] if t > 0 else np.zeros((B, H))
        tc = np.tanh(c[t])
        dh = d_h[t] + dh_next
        dc = dh * go * (1 - tc * tc) + dc_next
        dz = np.concatenate([dc * gg * gi * (1 - gi),
                             dc * c_prev * gf * (1 - gf),
                             dc * gi * (1 - gg * gg),
                             dh * tc * go * (1 - go)], axis=1)
        dW += dz.T @ x[t]
        dU += dz.T @ h_prev
        db += dz.sum(axis=0)
        dh_next = dz @ U
        dc_next = dc * gf
        dx[t] = dz @ W
    return dx, dW, dU, db


def _assert_close(actual, expected, rtol):
    for a, e in zip(actual, expected):
        assert a.shape == e.shape
        np.testing.assert_allclose(a, e, rtol=rtol, atol=rtol * np.abs(e).max())


def _random_problem(dtype, T=6, B=3, I=2, H=4, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((T, B, I)).astype(dtype)
    W = (rng.standard_normal((4 * H, I)) * 0.4).astype(dtype)
    U = (rng.standard_normal((4 * H, H)) * 0.4).astype(dtype)
    b = (rng.standard_normal(4 * H) * 0.1).astype(dtype)
    d_h = rng.standard_normal((T, B, H)).astype(dtype)
    return x, W, U, b, d_h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_shapes_and_dtype(dtype):
    x, W, U, b, _ = _random_problem(dtype)
    h, c, gates = kernels.lstm_forward(x, W, U, b)
    T, B, _ = x.shape
    H = U.shape[1]
    assert h.shape == (T, B, H) and c.shape == (T, B, H)
    assert gates.shape == (T, B, 4 * H)
    assert h.dtype == np.dtype(dtype)
    # gate activations live in their ranges
    assert gates[:, :, :H].min() >= 0 and gates[:, :, :H].max() <= 1
    assert gates[:, :, 2 * H:3 * H].min() >= -1 and gates[:, :, 2 * H:3 * H].max() <= 1


def test_float32_tracks_float64():
    x, W, U, b, d_h = _random_problem(np.float32)
    h32, _, _ = kernels.lstm_forward(x, W, U, b)
    h64, _, _ = kernels.lstm_forward(x.astype(np.float64), W.astype(np.float64),
                                     U.astype(np.float64), b.astype(np.float64))
    np.testing.assert_allclose(h32, h64, rtol=1e-5, atol=1e-6)


def test_forward_deterministic():
    x, W, U, b, _ = _random_problem(np.float32)
    h1, _, _ = kernels.lstm_forward(x, W, U, b)
    h2, _, _ = kernels.lstm_forward(x, W, U, b)
    assert h1.tobytes() == h2.tobytes()


# (T, B, I, H) of the cache-free forward: one block covering all T steps at
# B=1 and at the C5 pair width (4->6); blocks of 128 steps at B=1 (the last
# one partial), of 2 steps at B=64 (2, 2, 2, 1) and of 1 step at B=256.
CACHE_FREE_SHAPES = [(5, 1, 3, 4), (101, 8, 4, 6), (130, 1, 3, 128),
                     (7, 64, 3, 128), (3, 256, 3, 128)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T,B,I,H", CACHE_FREE_SHAPES)
def test_cache_free_forward_equals_caching_forward(T, B, I, H, dtype):
    x, W, U, b, _ = _random_problem(dtype, T, B, I, H, seed=T + B)
    h, _, _ = kernels.lstm_forward(x, W, U, b)
    h_free, c, gates = kernels.lstm_forward(x, W, U, b, False)
    assert c is None and gates is None
    assert h_free.dtype == h.dtype and h_free.tobytes() == h.tobytes()


# (T, B, I, H): single elements, then the C5 layer shapes (3->4, 4->2, 2->2,
# 2->4) and the wide model's (3->128, 128->16) at a small T; at 3->128 with
# B=64 the backward pass splits T=5 into blocks of 2, 2 and 1 steps.
REFERENCE_SHAPES = [(1, 1, 1, 1), (1, 5, 3, 4), (4, 1, 2, 3), (5, 4, 1, 1),
                    (6, 8, 3, 4), (6, 8, 4, 2), (5, 8, 2, 2), (5, 8, 2, 4),
                    (3, 8, 3, 128), (5, 64, 3, 128), (3, 8, 128, 16)]


@pytest.mark.parametrize("last_step_only", [False, True])
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("T,B,I,H", REFERENCE_SHAPES)
def test_kernels_match_per_step_reference(T, B, I, H, dtype, rtol, last_step_only):
    x, W, U, b, d_h = _random_problem(dtype, T, B, I, H, seed=T * 1000 + I * 10 + H)
    if last_step_only:  # the gradient of a return_sequences=False layer
        d_h[:-1] = 0
    ref = _ref_forward(*(a.astype(np.float64) for a in (x, W, U, b)))
    out = kernels.lstm_forward(x, W, U, b)
    assert all(a.dtype == np.dtype(dtype) for a in out)
    _assert_close(out, ref, rtol)
    ref_grads = _ref_backward(*(a.astype(np.float64) for a in (x, W, U) + ref + (d_h,)))
    grads = kernels.lstm_backward(x, W, U, *out, d_h)
    assert all(g.dtype == np.dtype(dtype) for g in grads)
    _assert_close(grads, ref_grads, rtol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturated_gates_stay_finite_and_in_range(dtype):
    x, W, U, b, d_h = _random_problem(dtype, T=5, B=4, I=3, H=4)
    x = np.sign(x) * 1e3                                 # |pre-activations| ~ 1e3
    W = (np.sign(W) * 0.5).astype(dtype)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h, c, gates = kernels.lstm_forward(x, W, U, b)
        grads = kernels.lstm_backward(x, W, U, h, c, gates, d_h)
    H = U.shape[1]
    for a in (h, c, gates) + grads:
        assert np.isfinite(a).all()
    sig = np.concatenate([gates[:, :, 0:2 * H], gates[:, :, 3 * H:]], axis=2)
    assert sig.min() >= 0 and sig.max() <= 1
    assert np.abs(gates[:, :, 2 * H:3 * H]).max() <= 1
    assert np.abs(h).max() <= 1 and np.abs(c).max() <= c.shape[0]


def test_backward_zero_upstream_gives_zero_grads():
    x, W, U, b, d_h = _random_problem(np.float32)
    h, c, g = kernels.lstm_forward(x, W, U, b)
    dx, dW, dU, db = kernels.lstm_backward(x, W, U, h, c, g, np.zeros_like(d_h))
    assert not dx.any() and not dW.any() and not dU.any() and not db.any()


def test_kernel_bench_prints_every_shape_and_pass(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH_KERNELS)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.main(["--repeat", "1"])
    rows = capsys.readouterr().out.splitlines()[3:]  # after the header
    assert [(row[:30].rstrip(), row.split()[-3]) for row in rows] == [
        (label, name) for label, *_ in bench.SHAPES
        for name in ("forward", "score", "backward")]
