"""Named weight collections, weight deltas, and FedAvg averaging.

Weights travel the wire as float32.  Delta arithmetic happens in float64 and
is rounded to float32 exactly once per operation, so
``apply_delta(g, WeightDelta(weight_delta(w.tensors, g.tensors)))`` reproduces
``w`` bitwise in the regimes training produces (see fedvib.nn.ops.weight_delta).
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..nn.ops import apply_weight_delta, check_layout


def _as_float32_tensors(tensors):
    out = {}
    for name, arr in tensors.items():
        if not isinstance(name, str) or not name:
            raise ConfigError(f"tensor names must be non-empty strings, got {name!r}")
        a = np.array(arr, dtype=np.float32, order="C", copy=True)
        if a.ndim < 1:
            a = a.reshape(1)
        out[name] = a
    return out


@dataclass
class ModelWeights:
    """Ordered name -> float32 array mapping; ``==`` compares bitwise."""

    tensors: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tensors = _as_float32_tensors(self.tensors)
        if not self.tensors:
            raise ConfigError("ModelWeights needs at least one tensor")

    def __eq__(self, other):
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return (list(self.tensors) == list(other.tensors)
                and all(np.array_equal(self.tensors[k], other.tensors[k])
                        for k in self.tensors))


@dataclass
class WeightDelta:
    """Elementwise weight difference against the global model of base_round."""

    tensors: dict = field(default_factory=dict)
    base_round: int = 0

    def __post_init__(self):
        self.tensors = _as_float32_tensors(self.tensors)
        if not self.tensors:
            raise ConfigError("WeightDelta needs at least one tensor")
        if self.base_round < 0:
            raise ConfigError(f"base_round must be >= 0, got {self.base_round}")

    def __eq__(self, other):
        if not isinstance(other, WeightDelta):
            return NotImplemented
        return (self.base_round == other.base_round
                and list(self.tensors) == list(other.tensors)
                and all(np.array_equal(self.tensors[k], other.tensors[k])
                        for k in self.tensors))


def apply_delta(base_global, delta):
    """base_global + delta per tensor (float64 add, one float32 round)."""
    return ModelWeights(apply_weight_delta(base_global.tensors, delta.tensors))


def fedavg(deltas):
    """Unweighted elementwise mean of the deltas, accumulated in float64.

    All deltas must share one layout.  A single delta averages to itself
    bitwise, and N identical copies average to the original bitwise (float32
    values are exact in float64, and small integer multiples stay exact).
    """
    if not deltas:
        raise ConfigError("fedavg needs at least one delta")
    first = deltas[0]
    for d in deltas[1:]:
        check_layout(first.tensors, d.tensors, "delta layouts")
    out = {}
    for name in first.tensors:
        stacked = np.stack([d.tensors[name].astype(np.float64) for d in deltas])
        out[name] = stacked.mean(axis=0).astype(np.float32)
    return WeightDelta(tensors=out, base_round=first.base_round)
