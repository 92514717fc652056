"""Losses, activations, gradient utilities, and weight-delta arithmetic.

Parameter collections are plain ``dict[str, np.ndarray]`` in a fixed insertion
order.  The delta helpers here are the single source of truth for
``new - base`` / ``base + delta`` arithmetic: the trainer's epoch commits, the
federation protocol, and the aggregator all go through them, which is what
makes a 1-client federation reproduce local training bit for bit.
"""

import math

import numpy as np

from ..errors import NumericsError, ShapeError


def mse_loss(target, pred):
    """Mean squared error over every element, as a python float."""
    if target.shape != pred.shape:
        raise ShapeError(f"mse operands differ: {target.shape} vs {pred.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    return float(np.mean(diff * diff))


def mse_grad(target, pred):
    """Gradient of ``mse_loss`` w.r.t. ``pred`` (same dtype as ``pred``)."""
    n = pred.size
    return ((pred - target) * pred.dtype.type(2.0 / n))


def relu(x):
    return np.maximum(x, 0)


def relu_grad(d_out, x):
    """Backprop through ``relu`` given the pre-activation input ``x``."""
    return np.where(x > 0, d_out, 0).astype(d_out.dtype, copy=False)


def global_grad_norm(grads):
    """L2 norm over all entries of all gradient arrays (accumulated in f64)."""
    total = 0.0
    for g in grads.values():
        g64 = g.astype(np.float64, copy=False)
        total += float(np.dot(g64.ravel(), g64.ravel()))
    return math.sqrt(total)


def clip_gradients(grads, max_norm):
    """Scale ``grads`` in place so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.  Below the threshold nothing changes.
    """
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for k in grads:
            grads[k] *= grads[k].dtype.type(scale)
    return norm


def decayed_lr(base_lr, epoch_index, decay=0.01):
    """Exponential schedule: ``base_lr * (1 - decay) ** epoch_index``.

    ``epoch_index`` counts completed epochs cumulatively, including across
    federation rounds.
    """
    if epoch_index < 0:
        raise ValueError(f"epoch_index must be >= 0, got {epoch_index}")
    return base_lr * (1.0 - decay) ** epoch_index


def check_layout(a, b, what="parameter sets"):
    """Raise unless the two dicts share names, order, and array shapes."""
    if list(a.keys()) != list(b.keys()):
        raise ShapeError(f"{what} name mismatch: {list(a)} vs {list(b)}")
    for k in a:
        if a[k].shape != b[k].shape:
            raise ShapeError(f"{what} shape mismatch for {k!r}: {a[k].shape} vs {b[k].shape}")


def weight_delta(new, base):
    """``new - base`` per array, subtracted in float64, rounded to base dtype.

    For float32 operands in any realistic exponent range the float64
    difference is exact, so ``apply_weight_delta(base, weight_delta(new,
    base))`` reproduces ``new`` whenever the per-element move is no larger
    than the destination value.
    """
    check_layout(new, base)
    out = {}
    for k in base:
        d = new[k].astype(np.float64) - base[k].astype(np.float64)
        out[k] = d.astype(base[k].dtype)
    return out


def apply_weight_delta(base, delta):
    """``base + delta`` per array, added in float64, rounded to base dtype.

    A finite sum beyond the base dtype's range rounds to infinity without a
    warning; callers reject the result with ``check_finite``.
    """
    check_layout(base, delta)
    out = {}
    for k in base:
        s = base[k].astype(np.float64) + delta[k].astype(np.float64)
        with np.errstate(over="ignore"):
            out[k] = s.astype(base[k].dtype)
    return out


def check_finite(arrays, context=""):
    """Raise NumericsError if any array holds a NaN or infinity."""
    for k, a in arrays.items():
        if not np.all(np.isfinite(a)):
            where = f" in {context}" if context else ""
            raise NumericsError(f"non-finite values in {k!r}{where}")
