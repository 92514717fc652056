"""Shared fixtures and oracle helpers."""

import numpy as np
import pytest

from fedvib.model import AutoencoderConfig, build_autoencoder
from fedvib.proto import InProcessHub


def sine_windows(n, window_size=20, features=1, seed=0, noise=0.05):
    """Random-phase sinusoid windows, float32 [n, window_size, features]."""
    rng = np.random.default_rng(seed)
    t = np.arange(window_size, dtype=np.float64)
    out = np.empty((n, window_size, features), dtype=np.float64)
    for i in range(n):
        for f in range(features):
            phase = rng.uniform(0, 2 * np.pi)
            out[i, :, f] = np.sin(2 * np.pi * t / 10.0 + phase)
    out += rng.normal(0, noise, size=out.shape)
    return out.astype(np.float32)


def fd_gradients(model, x, loss_fn, h=1e-4):
    """Central finite differences of ``loss_fn(model, x)`` w.r.t. every
    parameter.  Perturbs the live arrays in place and restores them."""
    grads = {}
    for name, arr in model.param_refs().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn(model, x)
            flat[i] = keep - h
            down = loss_fn(model, x)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def fd_gradients_smooth(model, x, loss_fn, h=1e-4):
    """Finite differences plus a smoothness mask.

    At a ReLU kink, central differences are step-size dependent at first
    order; comparing estimates at h and h/8 detects those points without
    peeking at the implementation.  Returns (grads, smooth) dicts.
    """
    grads = {}
    smooth = {}
    for name, arr in model.param_refs().items():
        g = np.zeros_like(arr)
        ok = np.ones(arr.shape, dtype=bool)
        flat, gflat, okflat = arr.ravel(), g.ravel(), ok.ravel()
        for i in range(flat.size):
            keep = flat[i]
            est = []
            for step in (h, h / 8):
                flat[i] = keep + step
                up = loss_fn(model, x)
                flat[i] = keep - step
                down = loss_fn(model, x)
                est.append((up - down) / (2 * step))
            flat[i] = keep
            gflat[i] = est[1]
            scale = max(abs(est[0]), abs(est[1]), 1e-8)
            okflat[i] = abs(est[0] - est[1]) / scale < 1e-3
        grads[name] = g
        smooth[name] = ok
    return grads, smooth


def gradient_errors(analytic, numeric):
    """Max relative error (guarded) and max absolute error across all params."""
    max_rel = 0.0
    max_abs = 0.0
    for k in analytic:
        a = analytic[k].ravel()
        n = numeric[k].ravel()
        absdiff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        rel = absdiff / denom
        # near-zero entries are judged on absolute error instead
        small = np.maximum(np.abs(a), np.abs(n)) < 1e-6
        max_rel = max(max_rel, float(rel[~small].max()) if (~small).any() else 0.0)
        max_abs = max(max_abs, float(absdiff[small].max()) if small.any() else 0.0)
    return max_rel, max_abs


def scalar_adam_reference(grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                          w0=0.0):
    """Independent plain-python Adam trajectory for one scalar weight."""
    import math
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads_per_step, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


@pytest.fixture
def tiny_config():
    return AutoencoderConfig(feature_count=1, window_size=6,
                             outer_layer_sizes=(5,), encoding_size=3)


@pytest.fixture
def tiny_model(tiny_config):
    return build_autoencoder(tiny_config, seed=7)


class _ClosingHub(InProcessHub):
    """An InProcessHub that remembers every endpoint it hands out."""

    def __init__(self):
        super().__init__()
        self.handed_out = []

    def connect(self):
        endpoint = super().connect()
        self.handed_out.append(endpoint)
        return endpoint

    def accept(self, timeout=None):
        endpoint = super().accept(timeout)
        if endpoint is not None:
            self.handed_out.append(endpoint)
        return endpoint


@pytest.fixture
def hub():
    """An in-process hub; when the test ends it closes, and so does every
    endpoint it handed out from either side."""
    h = _ClosingHub()
    yield h
    h.close()
    for endpoint in h.handed_out:
        endpoint.close()
