"""Acceptance suite: one test per release criterion, each printing a single
PASS line with its measured values and pinned tolerances (run with -s to see
them; pytest's own PASSED/FAILED lines mirror them).

The last two criteria exercise the public bearing run-to-failure recordings
and skip unless FEDVIB_IMS_DIR points at an extracted copy (see
`fedvib fetch-ims`).
"""

import itertools
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradients, gradient_errors, sine_windows
from fedvib.data import IMS_FILENAME_RE, SynthConfig
from fedvib.errors import WireError
from fedvib.harness import (
    DatasetSpec,
    ExperimentConfig,
    run_cold_start,
    run_historical,
    run_knowledge_transfer,
    run_nodes,
)
from fedvib.harness.config import resolve_dataset
from fedvib.harness.experiments import score_batches
from fedvib.model import (
    AutoencoderConfig,
    build_autoencoder,
    mse_loss,
    train_epochs,
)
from fedvib.nn import TrainConfig
from fedvib.proto import (
    AggregationNode,
    GlobalModel,
    ModelWeights,
    TrainingNode,
    TrainingNodeConfig,
    WeightDelta,
    apply_delta,
    decode_frame,
    encode_frame,
    fedavg,
    weights_payload_size,
)

HEADER_SIZE = 14


# -- criterion 1: gradient oracle --------------------------------------------

def test_c1_gradient_oracle():
    """Analytic gradients match central finite differences on a
    window-8 / hidden-4 / feature-1 autoencoder (h=1e-4, rel < 1e-4)."""
    t0 = time.perf_counter()
    acfg = AutoencoderConfig(feature_count=1, window_size=8,
                             outer_layer_sizes=(8,), encoding_size=4)
    model = build_autoencoder(acfg, seed=3, dtype=np.float64)
    x = sine_windows(3, window_size=8, features=1, seed=5).astype(np.float64)

    def loss(m, xb):
        return mse_loss(xb, m.forward(xb)[0])

    recon, cache = model.forward(x)
    analytic = model.backward((2.0 / recon.size) * (recon - x), cache)
    numeric = fd_gradients(model, x, loss, h=1e-4)
    max_rel, max_abs = gradient_errors(analytic, numeric)
    elapsed = time.perf_counter() - t0

    assert max_rel < 1e-4, f"max relative gradient error {max_rel:.3e}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    print(f"C1 gradient oracle: PASS — max rel err {max_rel:.2e} (< 1e-4), "
          f"max abs err {max_abs:.2e}, {elapsed:.1f}s (< 30s)")


# -- criterion 2: single-client equivalence -----------------------------------

def test_c2_single_client_federation_equivalence():
    """A 1-client federation (5 rounds x 1 epoch) reproduces 5 epochs of
    local training bitwise."""
    t0 = time.perf_counter()
    acfg = AutoencoderConfig(feature_count=1, window_size=10,
                             outer_layer_sizes=(4,), encoding_size=2)
    tcfg = TrainConfig(batch_size=8)
    train_w = sine_windows(64, window_size=10, seed=11)
    val_w = sine_windows(16, window_size=10, seed=12)
    rounds = 5

    init = build_autoencoder(acfg, seed=42).weights_dict()
    agg = AggregationNode(ModelWeights(init), expected_clients=1, rounds=rounds,
                          registration_timeout_s=30.0, round_timeout_s=60.0)
    node = TrainingNode(
        TrainingNodeConfig(client_id="solo", autoencoder=acfg, train=tcfg,
                           rounds=rounds, epochs_per_round=1, seed=9,
                           persist_optimizer=True, recv_timeout_s=60.0),
        train_w, val_w)
    _, results = run_nodes(agg, [node], "in_process")
    federated = results["solo"].final_weights.tensors

    local = build_autoencoder(acfg, seed=42)
    train_epochs(local, train_w, tcfg, rounds, val_windows=val_w, seed=9)
    reference = local.weights_dict()
    elapsed = time.perf_counter() - t0

    assert set(federated) == set(reference)
    for name in reference:
        assert np.array_equal(federated[name], reference[name]), \
            f"{name} differs between federated and local training"
    assert elapsed < 60.0, f"equivalence check took {elapsed:.1f}s"
    print(f"C2 single-client equivalence: PASS — {len(reference)} tensors "
          f"bitwise identical after {rounds} rounds, {elapsed:.1f}s (< 60s)")


# -- criterion 3: FedAvg algebra ----------------------------------------------

def test_c3_fedavg_algebra_suite():
    """Identity, permutation invariance, opposite-delta cancellation, and
    global + mean(deltas) on a 3-parameter toy model — exact equality."""
    toy = ModelWeights({"w": np.array([1.0, 2.0], dtype=np.float32),
                        "b": np.array([-0.5], dtype=np.float32)})
    d1 = WeightDelta({"w": np.array([0.5, -1.0], dtype=np.float32),
                      "b": np.array([1.0], dtype=np.float32)})
    d2 = WeightDelta({"w": np.array([0.5, 1.0], dtype=np.float32),
                      "b": np.array([0.0], dtype=np.float32)})
    d3 = WeightDelta({"w": np.array([0.5, 0.0], dtype=np.float32),
                      "b": np.array([0.5], dtype=np.float32)})

    # identity
    solo = fedavg([d1])
    assert all(np.array_equal(solo.tensors[k], d1.tensors[k]) for k in d1.tensors)

    # permutation invariance
    reference = fedavg([d1, d2, d3])
    for perm in itertools.permutations([d1, d2, d3]):
        shuffled = fedavg(list(perm))
        assert all(np.array_equal(shuffled.tensors[k], reference.tensors[k])
                   for k in reference.tensors)

    # opposite deltas cancel
    neg = WeightDelta({k: -v for k, v in d1.tensors.items()})
    cancelled = apply_delta(toy, fedavg([d1, neg]))
    assert all(np.array_equal(cancelled.tensors[k], toy.tensors[k]) for k in toy.tensors)

    # global + mean(deltas) arithmetic
    updated = apply_delta(toy, reference)
    assert np.array_equal(updated.tensors["w"],
                          np.array([1.5, 2.0], dtype=np.float32))
    assert np.array_equal(updated.tensors["b"],
                          np.array([0.0], dtype=np.float32))
    print("C3 FedAvg algebra: PASS — identity, 6 permutations, cancellation, "
          "and mean arithmetic all exact")


# -- criterion 4: wire fidelity -----------------------------------------------

def _documented_block_size(tensors):
    """Independent recomputation of the weight-block size: u32 tensor count,
    then per tensor u16 name length + utf-8 name + u8 rank + u64 per dim +
    float32 values."""
    total = 4
    for name, arr in tensors.items():
        total += 2 + len(name.encode("utf-8")) + 1 + 8 * arr.ndim + 4 * arr.size
    return total


def _random_weight_set(rng, i):
    tensors = {}
    for j in range(int(rng.integers(1, 5))):
        rank = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(1, 6, size=rank))
        tensors[f"layer{i}_{j}.Wβ"] = rng.normal(size=dims).astype(np.float32)
    return tensors


def test_c4_wire_fidelity():
    """100 random weight sets round-trip bitwise; frame sizes match the
    documented formula; corrupted and truncated frames raise parse errors."""
    rng = np.random.default_rng(4242)
    for i in range(100):
        tensors = _random_weight_set(rng, i)
        msg = GlobalModel(round=i, weights=ModelWeights(tensors))
        frame = encode_frame(msg)
        expect = HEADER_SIZE + 8 + _documented_block_size(tensors)
        assert len(frame) == expect, f"set {i}: {len(frame)} != {expect}"
        assert weights_payload_size(msg.weights.tensors) == _documented_block_size(tensors)
        back = decode_frame(frame)
        assert back.round == i
        assert set(back.weights.tensors) == set(tensors)
        for k, v in tensors.items():
            got = back.weights.tensors[k]
            assert got.shape == v.shape and got.dtype == v.dtype
            assert np.array_equal(got, v)

    base = encode_frame(GlobalModel(round=1, weights=ModelWeights(
        {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})))
    corrupt_cases = 0
    for mutate in (
        lambda f: b"XXXX" + f[4:],                       # bad magic
        lambda f: f[:4] + bytes([99]) + f[5:],           # unknown version
        lambda f: f[:5] + bytes([77]) + f[6:],           # unknown message type
        lambda f: f[:6] + struct.pack("<Q", 1 << 50) + f[14:],  # absurd length
        lambda f: f + b"junk",                           # trailing bytes
    ):
        with pytest.raises(WireError):
            decode_frame(mutate(base))
        corrupt_cases += 1
    for cut in (0, 1, 4, 13, HEADER_SIZE, HEADER_SIZE + 3, len(base) // 2,
                len(base) - 1):
        with pytest.raises(WireError):
            decode_frame(base[:cut])
        corrupt_cases += 1
    print(f"C4 wire fidelity: PASS — 100 weight sets bitwise, sizes exact, "
          f"{corrupt_cases} corruptions rejected cleanly")


# -- criteria 5-7: the synthetic 5-node federation ----------------------------

RM_ANOMALIES = (150, 163, 177, 191)
RM_ACFG = AutoencoderConfig(feature_count=3, window_size=100,
                            outer_layer_sizes=(4,), encoding_size=2)


def _rm_spec(i, n_batches=200):
    anomalies = RM_ANOMALIES if n_batches == 200 else ()
    return DatasetSpec(id=f"rm{i}", kind="synthetic", seed=i,
                       synth=SynthConfig(n_batches=n_batches, batch_len=800,
                                         sampling_rate_hz=4000.0,
                                         feature_count=3,
                                         anomaly_indices=anomalies))


def _rm_config(n_batches=200, rounds=25):
    return ExperimentConfig(
        scenario="historical",
        nodes=[_rm_spec(i, n_batches) for i in range(1, 6)],
        autoencoder=RM_ACFG, train=TrainConfig(batch_size=64),
        rounds=rounds, epochs_per_round=1, delta=3.0, seed=0)


@pytest.fixture(scope="module")
def rm_runs():
    """One historical and one cold-start federation at evaluation scale,
    shared by criteria 5-7."""
    t0 = time.perf_counter()
    historical = run_historical(_rm_config())
    t_hist = time.perf_counter() - t0
    cold = run_cold_start(_rm_config())
    return {"historical": historical, "cold": cold, "t_hist": t_hist}


def test_c5_synthetic_detection(rm_runs):
    """5 nodes x 200 batches (800 samples, 4 anomalies at 2x), 25 rounds x
    1 epoch, delta=3, mean+delta*sigma -> per-node F1 >= 0.9 in < 10 min."""
    res = rm_runs["historical"]
    f1s = {node: m.f1 for node, m in res.detection.metrics.items()}
    assert len(f1s) == 5
    for node, f1 in sorted(f1s.items()):
        assert f1 >= 0.9, f"{node}: F1={f1:.3f} < 0.9"
    assert rm_runs["t_hist"] < 600.0, f"federation took {rm_runs['t_hist']:.0f}s"
    print(f"C5 synthetic detection: PASS — min F1 {min(f1s.values()):.3f} "
          f"(>= 0.9 on all 5 nodes), {rm_runs['t_hist']:.0f}s (< 600s)")


def test_c6_cold_start_schedule_and_quality(rm_runs):
    """windows_trained per round equals 64*r capped at availability, exactly;
    final detection within 5 F1 points of the historical run."""
    cold = rm_runs["cold"]
    hist = rm_runs["historical"]
    available = 128 * 8  # 128 training batches x 8 windows each
    expect = [min(64 * (r + 1), available) for r in range(25)]
    for node in (f"rm{i}" for i in range(1, 6)):
        got = [rec.windows_trained[node] for rec in cold.federation.records]
        assert got == expect, f"{node}: schedule {got[:4]}... != 64·r capped"
    assert expect[9] == 640 and min(64 * 100, available) == available
    worst_gap = 0.0
    for node, m in cold.detection.metrics.items():
        gap = abs(m.f1 - hist.detection.metrics[node].f1)
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.05, f"{node}: cold-start F1 off by {gap:.3f}"
    print(f"C6 cold-start: PASS — schedule 64·r capped at {available} exact "
          f"on 5 nodes, max F1 gap {worst_gap:.3f} (<= 0.05)")


def test_c7_network_reduction_and_constant_traffic(rm_runs):
    """>= 95% traffic reduction vs raw batches; per-round payloads exactly
    constant across rounds and across dataset sizes."""
    res = rm_runs["historical"]
    reduction = res.network.reduction_percent
    assert reduction >= 95.0, f"reduction {reduction:.2f}% < 95%"

    steady = {(r.bytes_sent, r.bytes_received) for r in res.federation.records[1:]}
    assert len(steady) == 1, f"round payloads vary: {sorted(steady)}"

    # dataset-size independence: same layout, half vs double the batches
    small = run_historical(_rm_config(n_batches=40, rounds=3))
    large = run_historical(_rm_config(n_batches=80, rounds=3))
    small_bytes = [(r.bytes_sent, r.bytes_received) for r in small.federation.records]
    large_bytes = [(r.bytes_sent, r.bytes_received) for r in large.federation.records]
    assert small_bytes == large_bytes
    print(f"C7 network reduction: PASS — {reduction:.2f}% (>= 95%), "
          f"steady-state round payload {next(iter(steady))} constant, "
          f"byte-identical across dataset sizes")


# -- criteria 8-9: public bearing data (optional download) --------------------

IMS_ROOT = os.environ.get("FEDVIB_IMS_DIR", "")


def _ims_test_dir(name, min_files):
    if not IMS_ROOT:
        return None
    root = Path(IMS_ROOT)
    if not root.is_dir():
        return None
    candidates = [root] if root.name == name else []
    candidates += [p for p in root.rglob(name) if p.is_dir()]
    for cand in candidates:
        n = sum(1 for f in cand.iterdir()
                if f.is_file() and IMS_FILENAME_RE.match(f.name))
        if n >= min_files:
            return cand
    return None


SET2_DIR = _ims_test_dir("2nd_test", 900)
SET1_DIR = _ims_test_dir("1st_test", 2000)
IMS_REASON = ("IMS recordings not found; fetch them with `fedvib fetch-ims` "
              "and point FEDVIB_IMS_DIR at the extracted directory")


def _set2_config():
    nodes = [DatasetSpec(id=f"b{b}", kind="ims", directory=str(SET2_DIR),
                         bearing=b, downsample=5)
             for b in range(1, 5)]
    return ExperimentConfig(
        scenario="historical", nodes=nodes,
        autoencoder=AutoencoderConfig(feature_count=1),
        train=TrainConfig(), rounds=25, epochs_per_round=1, delta=3.0, seed=0)


@pytest.mark.skipif(SET2_DIR is None, reason=IMS_REASON)
def test_c8_bearing_set2_reproduction():
    """4-node federation on the second run-to-failure test (downsample 5):
    the faulty first bearing trips the threshold within the final 15% of the
    984 batches; a healthy bearing stays under 2% alarms in the first half."""
    t0 = time.perf_counter()
    cfg = _set2_config()
    res = run_historical(cfg)
    fed = res.federation

    model = build_autoencoder(cfg.autoencoder, seed=cfg.seed)
    model.set_weights_dict(fed.global_weights.tensors)
    flags = {}
    for spec in cfg.nodes:
        dataset = resolve_dataset(spec)
        threshold = fed.node_results[spec.id].final_threshold
        verdicts = score_batches(model, dataset.batches, 0, threshold,
                                 cfg.autoencoder.window_size)
        flags[spec.id] = [v.verdict == "anomalous" for v in verdicts]

    n = len(flags["b1"])
    tail = int(np.ceil(0.15 * n))
    assert any(flags["b1"][-tail:]), "faulty bearing never tripped in final 15%"
    half = n // 2
    early_rate = sum(flags["b2"][:half]) / half
    assert early_rate <= 0.02, f"healthy bearing alarm rate {early_rate:.3f} > 2%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 7200.0, f"run took {elapsed:.0f}s"
    others = {b: sum(flags[b][:half]) / half for b in ("b3", "b4")}
    print(f"C8 bearing set2: PASS — faulty b1 trips in final 15%, healthy b2 "
          f"early alarms {early_rate:.3%} (<= 2%), others {others}, "
          f"{elapsed:.0f}s (< 2h)")


@pytest.mark.skipif(SET2_DIR is None or SET1_DIR is None, reason=IMS_REASON)
def test_c9_bearing_knowledge_transfer():
    """The set2-trained global model applied to set1 bearing 4 (no
    retraining, threshold from set1's first 10%) flags the degradation in
    the final 15% of set1."""
    cfg = _set2_config()
    cfg = ExperimentConfig(
        scenario="knowledge_transfer", nodes=cfg.nodes,
        autoencoder=cfg.autoencoder, train=cfg.train, rounds=cfg.rounds,
        epochs_per_round=cfg.epochs_per_round, delta=cfg.delta, seed=cfg.seed,
        transfer_target=DatasetSpec(id="set1-b4", kind="ims",
                                    directory=str(SET1_DIR), bearing=4,
                                    downsample=5))
    res = run_knowledge_transfer(cfg)
    verdicts = res.detection.verdicts["set1-b4"]
    n = len(verdicts)
    tail = int(np.ceil(0.15 * n))
    flagged = [v.verdict == "anomalous" for v in verdicts[-tail:]]
    assert any(flagged), "transferred model never tripped in set1's final 15%"
    print(f"C9 knowledge transfer: PASS — set2 model flags "
          f"{sum(flagged)}/{tail} of set1-b4's final 15% batches")
