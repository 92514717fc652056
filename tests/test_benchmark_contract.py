"""The names the benchmark in ``perfbench/`` needs from fedvib.

The benchmark wraps fedvib functions by module and attribute name when a run
is traced, and imports further names inside its functions.  A renamed or
deleted target would otherwise show only as a failed benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from fedvib.proto import Register

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_MODULES = ("metrics", "tracing", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """Make the benchmark's modules importable, and forget them afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


def test_benchmark_resolves_every_fedvib_name_it_uses(perfbench):
    from tracing import (  # noqa: F401
        Tracer, layer_metrics, node_rounds, self_time_table, traced)
    from workloads import WORKLOADS, Outcome, round_bytes, run  # noqa: F401

    with traced(Tracer()):  # wraps every target in tracing.TARGETS
        pass

    # imported inside the functions of perfbench/run.py and test_perfbench.py
    from fedvib.model import AutoencoderConfig, build_autoencoder  # noqa: F401
    from fedvib.nn import USE_NUMBA  # noqa: F401
    from fedvib.proto import (  # noqa: F401
        DeltaSubmission, GlobalModel, ModelWeights, WeightDelta, encode_frame,
        weights_payload_size)

    assert WeightDelta({"w": np.zeros(2, np.float32)}, base_round=2).base_round == 2


def test_traced_in_process_frame_is_counted_once_each_way(perfbench, hub):
    from tracing import Tracer, traced

    tracer = Tracer()
    with traced(tracer):
        client = hub.connect()
        server = hub.accept(timeout=5.0)
        frame_bytes = client.send(Register("a"))
        assert server.recv(timeout=5.0) == Register("a")
    spans = [(s.name, s.attrs["bytes"]) for s in tracer.spans
             if s.name.startswith("proto.transport.")]
    assert spans == [("proto.transport.send", frame_bytes),
                     ("proto.transport.recv", frame_bytes)]
