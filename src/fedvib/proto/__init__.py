"""Federated protocol: weight containers, wire codec, transports, nodes."""

from .aggregator import AggregationNode, RoundRecord, RoundState
from .node import NodeResult, NodeRoundStats, TrainingNode, TrainingNodeConfig
from .transport import (
    InProcessHub,
    SocketServer,
    connect_socket,
    connect_to,
    serve_sockets,
)
from .weights import ModelWeights, WeightDelta, apply_delta, fedavg
from .wire import (
    MAGIC,
    VERSION,
    DeltaSubmission,
    Error,
    GlobalModel,
    Register,
    decode_frame,
    encode_frame,
    take_frame,
    weights_payload_size,
)

__all__ = [
    "AggregationNode",
    "RoundRecord",
    "RoundState",
    "NodeResult",
    "NodeRoundStats",
    "TrainingNode",
    "TrainingNodeConfig",
    "InProcessHub",
    "SocketServer",
    "connect_socket",
    "connect_to",
    "serve_sockets",
    "ModelWeights",
    "WeightDelta",
    "apply_delta",
    "fedavg",
    "MAGIC",
    "VERSION",
    "DeltaSubmission",
    "Error",
    "GlobalModel",
    "Register",
    "decode_frame",
    "encode_frame",
    "take_frame",
    "weights_payload_size",
]
