"""Kernel-level checks on the LSTM recurrence: shapes, both dtypes,
determinism, and the timing harness in ``benchmarks/`` that calls it."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fedvib.nn import kernels

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


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
    assert [(row[:30].rstrip(), row.split()[-2]) for row in rows] == [
        (label, name) for label, *_ in bench.SHAPES
        for name in ("forward", "backward")]
