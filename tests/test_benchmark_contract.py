"""The names the benchmark in ``perfbench/`` needs from fedvib.

The benchmark wraps fedvib functions by module and attribute name when a run
is traced, and imports further names inside its functions.  A renamed or
deleted target would otherwise show only as a failed benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from fedvib import harness
from fedvib.data import SynthConfig
from fedvib.model import AutoencoderConfig
from fedvib.nn import TrainConfig
from fedvib.proto import ModelWeights, Register, RoundState, WeightDelta

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


def test_traced_round_state_spans_carry_their_round(perfbench):
    # tracing.py reads ``.round`` off the RoundState each wrapped call gets
    from tracing import Tracer, traced

    tracer = Tracer()
    with traced(tracer):
        state = RoundState(round=0, global_weights=ModelWeights({"w": np.ones(2)}),
                           expected_clients={"a", "b"})
        for cid in ("a", "b"):
            state.record(cid, WeightDelta({"w": np.full(2, 0.5)}))
        state.aggregate()
    spans = [(s.name, s.attrs) for s in tracer.spans
             if s.name.startswith("proto.aggregator.")]
    assert spans == [("proto.aggregator.round_state", {"round": 0}),
                     ("proto.aggregator.record", {"round": 0}),
                     ("proto.aggregator.record", {"round": 0}),
                     ("proto.aggregator.aggregate", {"round": 0})]


def test_run_federation_takes_window_schedules_as_callables():
    # perfbench/workloads.py passes the cold-start ramp as one lambda per node
    synth = SynthConfig(n_batches=20, batch_len=100, feature_count=1,
                        base_frequencies=(50.0,), base_amplitudes=(1.0,),
                        anomaly_indices=(19,))
    specs = [harness.DatasetSpec(id=f"node{i}", kind="synthetic", seed=i, synth=synth)
             for i in range(2)]
    acfg = AutoencoderConfig(feature_count=1, window_size=10, outer_layer_sizes=(4,),
                             encoding_size=2)
    config = harness.ExperimentConfig(
        scenario="cold_start", nodes=specs, autoencoder=acfg,
        train=TrainConfig(batch_size=32), rounds=2, seed=0, transport="in_process")
    setups = [harness.prepare_node(spec, acfg.window_size) for spec in specs]
    schedules = {s.node_id: (lambda r, n=len(s.train_windows):
                             harness.cold_start_windows(r + 1, n))
                 for s in setups}
    fed = harness.run_federation(setups, config, window_schedules=schedules)
    # 120 training windows per node cap round 1's 128
    assert [rec.windows_trained for rec in fed.records] == [
        {"node0": 64, "node1": 64}, {"node0": 120, "node1": 120}]
