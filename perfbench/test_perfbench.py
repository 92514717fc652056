"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest perfbench

The last test runs every workload briefly on seed 2, so the file takes about
two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from metrics import covered, self_time, tail  # noqa: E402
from tracing import Span, Tracer, node_rounds, self_times, traced  # noqa: E402
from workloads import WORKLOADS, round_bytes  # noqa: E402


# -- tail percentile ---------------------------------------------------------

def test_tail_keeps_at_least_ten_samples_beyond():
    for n in range(20, 3000, 7):
        values = list(range(n))
        value, pct, count = tail(values)
        assert count == n
        assert sum(v > value for v in values) >= 10
        # the next percentile up the ladder would leave fewer than ten
        higher = {50.0: 90.0, 90.0: 99.0, 99.0: 99.9, 99.9: 99.99}[pct]
        rank = -(-int(round(higher * 100)) * n // 10000)
        assert n - rank < 10


def test_tail_picks_the_highest_ladder_percentile():
    assert tail(range(100)) == (89, 90.0, 100)
    assert tail(range(1000)) == (989, 99.0, 1000)
    assert tail(range(20)) == (9, 50.0, 20)
    assert tail(list(reversed(range(200)))) == (179, 90.0, 200)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(range(19))


# -- bytes per round ---------------------------------------------------------

def test_round_bytes_matches_encoded_frames():
    import numpy as np
    from fedvib.model import AutoencoderConfig, build_autoencoder
    from fedvib.proto import (DeltaSubmission, GlobalModel, ModelWeights, WeightDelta,
                              encode_frame, weights_payload_size)

    acfg = AutoencoderConfig(feature_count=3, window_size=100, outer_layer_sizes=(4,),
                             encoding_size=2)
    tensors = build_autoencoder(acfg).weights_dict()
    clients = ["node0", "node1", "a-much-longer-client-id-é"]
    sent = sum(len(encode_frame(GlobalModel(round=3, weights=ModelWeights(tensors))))
               for _ in clients)
    received = sum(len(encode_frame(DeltaSubmission(
        client_id=cid, round=2, windows_trained=1024,
        delta=WeightDelta({k: np.zeros_like(v) for k, v in tensors.items()}, base_round=2))))
        for cid in clients)
    assert round_bytes(weights_payload_size(tensors), clients) == (sent, received)


# -- self time ---------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert covered(0.0, 10.0, [(-5, 1), (9, 20)]) == 2.0
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(2.0, 4.0, [(0, 10)]) == 2.0


def test_self_time_subtracts_children_once():
    assert self_time(0.0, 10.0, [(1, 3), (2, 5)]) == 6.0
    spans = [Span(1, None, "sample-0", "outer", None, 1, 0.0, 10.0),
             Span(2, 1, "sample-0", "child", None, 1, 1.0, 4.0),
             Span(3, 2, "sample-0", "grandchild", None, 1, 2.0, 3.0),
             Span(4, 1, "sample-0", "child", None, 1, 6.0, 7.0)]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_node_rounds_attribute_phases_between_global_models():
    role = "node:n0"

    def span(i, name, start, end, **attrs):
        return Span(i, None, "sample-0", name, role, 1, start, end, attrs)

    spans = [span(1, "proto.transport.recv", 0.0, 1.0, msg="GlobalModel", round=0),
             span(2, "model.train_epochs", 1.0, 5.0),
             span(3, "model.evaluate_loss", 4.0, 5.0),
             span(4, "proto.transport.send", 5.0, 5.5),
             span(5, "model.window_scores", 5.5, 6.5),
             span(6, "model.reconstruct", 5.5, 6.5, windows=96),
             span(7, "proto.transport.recv", 6.6, 9.0, msg="GlobalModel", round=1)]
    (r,) = node_rounds(spans)
    assert (r.node, r.round, r.wall, r.windows) == ("n0", 0, 8.0, 96)
    assert r.phases == pytest.approx({"train": 3.0, "val_loss": 1.0, "calibrate": 1.0,
                                      "send": 0.5, "wait": 2.4})
    assert r.coverage == pytest.approx(7.9 / 8.0)


# -- wrappers ----------------------------------------------------------------

def test_traced_wraps_direct_imports_and_restores_them():
    import fedvib.model
    import fedvib.proto.node
    import fedvib.proto.transport

    originals = (fedvib.model.train_epochs, fedvib.proto.node.train_epochs,
                 fedvib.proto.transport.encode_frame, fedvib.proto.transport.QueueEndpoint.send)
    tracer = Tracer()
    with traced(tracer):
        assert fedvib.proto.node.train_epochs is not originals[1]
        assert fedvib.proto.node.train_epochs is fedvib.model.train_epochs
        assert fedvib.proto.transport.encode_frame is not originals[2]
        assert "send" in vars(fedvib.proto.transport.QueueEndpoint)
    assert (fedvib.model.train_epochs, fedvib.proto.node.train_epochs,
            fedvib.proto.transport.encode_frame,
            fedvib.proto.transport.QueueEndpoint.send) == originals
    assert "send" not in vars(fedvib.proto.transport.QueueEndpoint)


# -- every output check passes on a second seed ------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
