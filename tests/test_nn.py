"""Unit tests for losses, clipping, LR decay, Adam, layers, delta arithmetic.

Derived expectations are computed by independent in-test oracles (scalar
formulas, plain-python Adam) rather than by the code under test.
"""

import math

import numpy as np
import pytest

from conftest import scalar_adam_reference
from fedvib.errors import NumericsError, ShapeError
from fedvib.nn import (
    AdamState,
    DenseLayer,
    LstmLayer,
    LstmPair,
    TrainConfig,
    adam_step,
    apply_weight_delta,
    check_finite,
    clip_gradients,
    decayed_lr,
    global_grad_norm,
    glorot_uniform,
    kernels,
    mse_grad,
    mse_loss,
    relu,
    relu_grad,
    weight_delta,
)
from fedvib.errors import ConfigError


# -- losses and activations --------------------------------------------------

def test_mse_known_values():
    a = np.array([1.0, 2.0], dtype=np.float32)
    z = np.zeros(2, dtype=np.float32)
    assert mse_loss(a, z) == pytest.approx(2.5)  # (1 + 4) / 2
    assert mse_loss(a, a) == 0.0
    assert mse_loss(a, z) == mse_loss(z, a)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(3), np.zeros(4))


def test_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    target = rng.standard_normal((4, 5))
    pred = rng.standard_normal((4, 5))
    g = mse_grad(target, pred)
    h = 1e-6
    for idx in [(0, 0), (1, 3), (3, 4)]:
        p = pred.copy()
        p[idx] += h
        up = mse_loss(target, p)
        p[idx] -= 2 * h
        down = mse_loss(target, p)
        assert g[idx] == pytest.approx((up - down) / (2 * h), rel=1e-6, abs=1e-9)


def test_relu_and_grad():
    x = np.array([-2.0, -0.0, 0.5, 3.0], dtype=np.float32)
    np.testing.assert_array_equal(relu(x), [0.0, 0.0, 0.5, 3.0])
    d = np.ones_like(x)
    np.testing.assert_array_equal(relu_grad(d, x), [0.0, 0.0, 1.0, 1.0])


# -- learning rate schedule --------------------------------------------------

def test_decayed_lr_schedule():
    assert decayed_lr(0.001, 0) == 0.001
    assert decayed_lr(0.001, 1) == pytest.approx(0.00099)
    # closed form after 100 epochs
    assert decayed_lr(0.001, 100) == pytest.approx(0.001 * 0.99 ** 100, rel=1e-12)
    assert decayed_lr(0.001, 100) == pytest.approx(3.6603234127e-4, rel=1e-9)
    with pytest.raises(ValueError):
        decayed_lr(0.001, -1)


# -- gradient clipping -------------------------------------------------------

def test_global_grad_norm_hand_value():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_grad_norm(grads) == pytest.approx(5.0)


def test_clip_below_threshold_unchanged():
    g = {"a": np.array([0.3, 0.4], dtype=np.float32)}
    before = g["a"].copy()
    clip_gradients(g, max_norm=1.0)
    assert g["a"].tobytes() == before.tobytes()


def test_clip_scales_to_max_norm():
    g = {"a": np.array([2.0], dtype=np.float32), "b": np.full(3, 2.0, dtype=np.float32)}
    pre = global_grad_norm(g)
    assert pre == pytest.approx(4.0)
    clip_gradients(g, max_norm=1.0)
    assert global_grad_norm(g) == pytest.approx(1.0, rel=1e-6)
    np.testing.assert_allclose(g["a"], [0.5], rtol=1e-6)


def test_clip_post_norm_property():
    rng = np.random.default_rng(11)
    for trial in range(20):
        g = {f"p{i}": rng.standard_normal(rng.integers(1, 6)).astype(np.float32) * 3
             for i in range(3)}
        pre = global_grad_norm(g)
        clip_gradients(g, max_norm=1.0)
        assert global_grad_norm(g) <= min(pre, 1.0) + 1e-6


# -- Adam --------------------------------------------------------------------

def test_adam_zero_grad_is_noop():
    p = {"w": np.array([1.5, -2.0], dtype=np.float32)}
    before = p["w"].copy()
    st = AdamState.for_params(p)
    adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, st, lr=0.1)
    assert p["w"].tobytes() == before.tobytes()
    assert st.step == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step with unit gradient moves by ~lr
    p = {"w": np.zeros(1, dtype=np.float64)}
    st = AdamState.for_params(p)
    adam_step(p, {"w": np.ones(1)}, st, lr=0.1)
    assert p["w"][0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_trace_matches_scalar_reference():
    grads = [0.7, -1.3, 0.25, 0.9, -0.1]
    p = {"w": np.zeros(1, dtype=np.float64)}
    st = AdamState.for_params(p)
    for g in grads:
        adam_step(p, {"w": np.array([g])}, st, lr=0.05)
    expected = scalar_adam_reference(grads, lr=0.05)
    assert p["w"][0] == pytest.approx(expected, rel=1e-12)


def test_train_config_validation():
    TrainConfig()  # defaults fine
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_decay=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(clip_max_norm=0.0)


def test_train_config_paper_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 1e-3
    assert cfg.lr_decay == 0.01
    assert cfg.l2_lambda == 1e-7
    assert cfg.clip_max_norm == 1.0
    assert cfg.batch_size == 64
    assert cfg.epochs == 100


# -- weight delta arithmetic -------------------------------------------------

def test_weight_delta_zero_and_layout():
    w = {"a": np.array([1.0, 2.0], dtype=np.float32)}
    d = weight_delta(w, w)
    assert not d["a"].any()
    with pytest.raises(ShapeError):
        weight_delta(w, {"b": w["a"]})
    with pytest.raises(ShapeError):
        weight_delta(w, {"a": np.zeros(3, dtype=np.float32)})


def test_delta_round_trip_exact_in_training_regime():
    # per-element move at most half the destination magnitude -> exact
    rng = np.random.default_rng(5)
    for trial in range(30):
        base = {"w": (rng.standard_normal(64) * 0.2).astype(np.float32)}
        factor = rng.uniform(-1 / 3, 1 / 3, size=64).astype(np.float32)
        local = {"w": (base["w"].astype(np.float64) * (1.0 + factor)).astype(np.float32)}
        d = weight_delta(local, base)
        back = apply_weight_delta(base, d)
        assert back["w"].tobytes() == local["w"].tobytes()


def test_delta_round_trip_includes_zero_crossings_from_zero():
    base = {"w": np.zeros(8, dtype=np.float32)}
    local = {"w": np.array([1e-4, -3e-5, 0.0, 2.0, -1.5, 1e-20, -1e-20, 5e-8],
                           dtype=np.float32)}
    d = weight_delta(local, base)
    back = apply_weight_delta(base, d)
    assert back["w"].tobytes() == local["w"].tobytes()


def test_check_finite():
    check_finite({"a": np.ones(3)})
    with pytest.raises(NumericsError):
        check_finite({"a": np.array([1.0, np.nan])})
    with pytest.raises(NumericsError):
        check_finite({"a": np.array([np.inf])})


# -- layers ------------------------------------------------------------------

def test_glorot_bounds_and_determinism():
    limit = math.sqrt(6.0 / (10 + 4))
    w1 = glorot_uniform(np.random.default_rng(2), (4, 10), 10, 4, np.float32)
    w2 = glorot_uniform(np.random.default_rng(2), (4, 10), 10, 4, np.float32)
    assert np.abs(w1).max() <= limit
    assert w1.tobytes() == w2.tobytes()


def test_lstm_init_forget_bias():
    layer = LstmLayer(2, 3, np.random.default_rng(0))
    H = 3
    np.testing.assert_array_equal(layer.b[H:2 * H], np.ones(H, dtype=np.float32))
    assert not layer.b[:H].any() and not layer.b[2 * H:].any()


def test_lstm_zero_weights_zero_output():
    layer = LstmLayer(1, 4, np.random.default_rng(0))
    for arr in (layer.W, layer.U, layer.b):
        arr[...] = 0
    x = np.random.default_rng(1).standard_normal((5, 2, 1)).astype(np.float32)
    y, _ = layer.forward(x)
    assert not y.any()


def test_lstm_scalar_hand_computation():
    # one step, one unit: z = x*W per gate, U and b zero
    layer = LstmLayer(1, 1, np.random.default_rng(0))
    layer.W[:] = [[0.1], [0.2], [0.3], [0.4]]
    layer.U[:] = 0
    layer.b[:] = 0
    x = np.full((1, 1, 1), 2.0, dtype=np.float32)
    y, _ = layer.forward(x)

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    gi, gf, gg, go = sig(0.2), sig(0.4), math.tanh(0.6), sig(0.8)
    c = gf * 0.0 + gi * gg
    expected = go * math.tanh(c)
    assert y[0, 0, 0] == pytest.approx(expected, rel=1e-6)


def test_lstm_two_step_recurrence_hand_computation():
    layer = LstmLayer(1, 1, np.random.default_rng(0))
    W = np.array([[0.5], [-0.3], [0.8], [0.2]], dtype=np.float32)
    U = np.array([[0.4], [0.1], [-0.6], [0.3]], dtype=np.float32)
    b = np.array([0.05, 1.0, -0.1, 0.0], dtype=np.float32)
    layer.W[:], layer.U[:], layer.b[:] = W, U, b
    x = np.array([[[1.0]], [[-0.5]]], dtype=np.float32)
    y, _ = layer.forward(x)

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    h, c = 0.0, 0.0
    outs = []
    for xv in (1.0, -0.5):
        zi = 0.5 * xv + 0.4 * h + 0.05
        zf = -0.3 * xv + 0.1 * h + 1.0
        zg = 0.8 * xv + -0.6 * h + -0.1
        zo = 0.2 * xv + 0.3 * h + 0.0
        c = sig(zf) * c + sig(zi) * math.tanh(zg)
        h = sig(zo) * math.tanh(c)
        outs.append(h)
    np.testing.assert_allclose(y[:, 0, 0], outs, rtol=1e-5)


def test_lstm_return_last_state():
    layer = LstmLayer(2, 3, np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((6, 2, 2)).astype(np.float32)
    seq, _ = layer.forward(x, return_sequences=True)
    last, _ = layer.forward(x, return_sequences=False)
    np.testing.assert_array_equal(last, seq[-1])


def test_lstm_paper_scale_shapes():
    layer = LstmLayer(1, 128, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((100, 2, 1)).astype(np.float32)
    y, _ = layer.forward(x)
    assert y.shape == (100, 2, 128)


def test_lstm_layer_gradients_match_finite_differences():
    # float64 layer; loss = sum(h * G) so d_h = G
    rng = np.random.default_rng(9)
    layer = LstmLayer(2, 3, rng, dtype=np.float64)
    x = rng.standard_normal((4, 2, 2))
    G = rng.standard_normal((4, 2, 3))

    def loss():
        y, _ = layer.forward(x)
        return float(np.sum(y * G))

    y, cache = layer.forward(x)
    dx, grads = layer.backward(G, cache)

    h = 1e-5
    for name in ("W", "U", "b"):
        arr = getattr(layer, name)
        flat = arr.ravel()
        gflat = grads[name].ravel()
        idxs = np.random.default_rng(13).choice(flat.size, size=min(10, flat.size),
                                                replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            assert gflat[i] == pytest.approx(fd, rel=1e-5, abs=1e-8), name
    # input gradient too
    for idx in [(0, 0, 0), (2, 1, 1), (3, 0, 1)]:
        keep = x[idx]
        x[idx] = keep + h
        up = loss()
        x[idx] = keep - h
        down = loss()
        x[idx] = keep
        assert dx[idx] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)


def _stacked_layers(dtype, I, Ha, Hb, seed, bias_scale=2.0):
    """Layer B (Ha -> Hb) on layer A (I -> Ha), with biases far from their
    initial values, as training leaves them."""
    rng = np.random.default_rng(seed)
    lower = LstmLayer(I, Ha, rng, dtype=dtype)
    upper = LstmLayer(Ha, Hb, rng, dtype=dtype)
    for layer in (lower, upper):
        layer.b += (rng.standard_normal(layer.b.shape) * bias_scale).astype(dtype)
    return lower, upper, rng


# return_sequences=False is the encoder pair (A, code), True the decoder pair
@pytest.mark.parametrize("return_sequences", [False, True])
@pytest.mark.parametrize("I,Ha,Hb", [(3, 4, 2), (2, 2, 4), (1, 1, 1), (4, 5, 3)])
def test_lstm_pair_matches_the_layers_one_by_one(I, Ha, Hb, return_sequences):
    lower, upper, rng = _stacked_layers(np.float64, I, Ha, Hb, seed=I * 100 + Ha * 10 + Hb)
    T, B = 7, 5
    x = rng.standard_normal((T, B, I))
    d_out = rng.standard_normal((T, B, Hb) if return_sequences else (B, Hb))

    mid, cache_a = lower.forward(x)
    ref, cache_b = upper.forward(mid, return_sequences=return_sequences)
    d_mid, ref_b = upper.backward(d_out, cache_b, return_sequences=return_sequences)
    ref_dx, ref_a = lower.backward(d_mid, cache_a)

    pair = LstmPair(lower, upper)
    out, cache = pair.forward(x, return_sequences=return_sequences)
    dx, grads_a, grads_b = pair.backward(d_out, cache, return_sequences=return_sequences)
    checks = [(out, ref), (dx, ref_dx)] + [
        (got[k], want[k]) for got, want in ((grads_a, ref_a), (grads_b, ref_b))
        for k in ("W", "U", "b")]
    for got, want in checks:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_lstm_pair_upper_state_is_zero_after_step_0():
    # B runs one step behind A, so its first combined step must leave exactly
    # the zero initial state of a single layer, whatever its bias
    lower, upper, rng = _stacked_layers(np.float32, 3, 4, 2, seed=3, bias_scale=30.0)
    x = rng.standard_normal((5, 8, 3)).astype(np.float32)
    h, c, _ = kernels.lstm_forward(*LstmPair(lower, upper).combined(x))
    assert h.dtype == np.float32
    assert not h[0, :, 4:].any() and not c[0, :, 4:].any()
    assert h[1, :, 4:].all()


def test_dense_known_affine():
    layer = DenseLayer(1, 1, np.random.default_rng(0))
    layer.W[:] = 2.0
    layer.b[:] = 1.0
    x = np.full((1, 1, 1), 3.0, dtype=np.float32)
    y, _ = layer.forward(x)
    assert y[0, 0, 0] == pytest.approx(7.0)


def test_dense_backward_shapes_and_values():
    rng = np.random.default_rng(8)
    layer = DenseLayer(3, 2, rng, dtype=np.float64)
    x = rng.standard_normal((4, 5, 3))
    y, cache = layer.forward(x)
    d = rng.standard_normal(y.shape)
    dx, grads = layer.backward(d, cache)
    assert dx.shape == x.shape
    # dW[o, i] = sum over (t, b) of d[t,b,o] * x[t,b,i]
    expected = np.einsum("tbo,tbi->oi", d, x)
    np.testing.assert_allclose(grads["W"], expected, rtol=1e-12)
    np.testing.assert_allclose(grads["b"], d.sum(axis=(0, 1)), rtol=1e-12)
