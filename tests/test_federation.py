"""End-to-end federation tests over both transports, plus node/aggregator
edge cases driven through scripted endpoints."""

import threading

import numpy as np
import pytest

from fedvib.data import (
    SynthConfig,
    chronological_split,
    generate_synthetic,
    windows_for_batches,
)
from fedvib.errors import ProtocolError, RoundAbortError
from fedvib.model import (
    AutoencoderConfig,
    LstmAutoencoder,
    ThresholdModel,
    build_autoencoder,
    score_batches,
    train_epochs,
    window_scores,
)
from fedvib.nn import TrainConfig
from fedvib.proto import (
    Ack,
    AggregationNode,
    DeltaSubmission,
    Error,
    GlobalModel,
    InProcessHub,
    ModelWeights,
    Register,
    TrainingNode,
    TrainingNodeConfig,
    WeightDelta,
    connect_socket,
    serve_sockets,
)
from fedvib.proto.wire import ERR_DUPLICATE_ID, ERR_ROUND_ABORT

ACFG = AutoencoderConfig(feature_count=1, window_size=10, outer_layer_sizes=(4,),
                         encoding_size=2)
TCFG = TrainConfig(batch_size=8)
GLOBAL_SEED = 42


def global_init():
    return ModelWeights(build_autoencoder(ACFG, seed=GLOBAL_SEED).weights_dict())


def node_data(seed, n_batches=8, batch_len=60):
    cfg = SynthConfig(n_batches=n_batches, batch_len=batch_len, feature_count=1,
                      base_frequencies=(50.0,), base_amplitudes=(1.0,),
                      anomaly_indices=(n_batches - 1,))
    ds = generate_synthetic(cfg, seed=seed, source_id=f"node{seed}")
    train, val, test = chronological_split(ds)
    trw, _ = windows_for_batches(train, ACFG.window_size)
    vaw, _ = windows_for_batches(val, ACFG.window_size)
    return trw, vaw, test, len(train) + len(val)


def run_federation(seeds_by_id, rounds, epochs_per_round=1, persist=False,
                   n_batches=8, transport="hub"):
    """Run a complete in-process (or localhost-socket) federation; returns
    (aggregator, records, results_by_id, client_endpoints_by_id)."""
    agg = AggregationNode(global_init(), expected_clients=len(seeds_by_id),
                          rounds=rounds, registration_timeout_s=20.0,
                          round_timeout_s=120.0)
    if transport == "hub":
        listener = InProcessHub()
        def connect():
            return listener.connect()
    else:
        listener = serve_sockets()
        port = listener.port
        def connect():
            return connect_socket("127.0.0.1", port)

    results, endpoints, failures = {}, {}, []

    def worker(cid, seed):
        try:
            trw, vaw, test, offset = node_data(seed, n_batches=n_batches)
            node = TrainingNode(
                TrainingNodeConfig(client_id=cid, autoencoder=ACFG, train=TCFG,
                                   rounds=rounds, epochs_per_round=epochs_per_round,
                                   persist_optimizer=persist, seed=seed,
                                   recv_timeout_s=60.0),
                trw, vaw, test_batches=test, test_offset=offset)
            ep = connect()
            endpoints[cid] = ep
            results[cid] = node.run(ep)
        except Exception as e:  # surfaced after join
            failures.append((cid, e))

    threads = [threading.Thread(target=worker, args=(cid, seed))
               for cid, seed in seeds_by_id.items()]
    for t in threads:
        t.start()
    records = agg.run(listener)
    for t in threads:
        t.join(timeout=60.0)
    if failures:
        raise failures[0][1]
    return agg, records, results, endpoints


# -- full federations --------------------------------------------------------

def test_federation_reaches_bitwise_consensus():
    seeds = {"n1": 1, "n2": 2, "n3": 3, "n4": 4}
    agg, records, results, _ = run_federation(seeds, rounds=3)
    assert len(records) == 3
    for rec in records:
        assert rec.client_ids == sorted(seeds)
        assert set(rec.windows_trained) == set(seeds)
        assert rec.late_submissions == 0
    finals = [results[cid].final_weights for cid in sorted(seeds)]
    for w in finals[1:]:
        assert w == finals[0]
    assert ModelWeights(agg.global_weights.tensors) == finals[0]
    for cid in seeds:
        assert [s.round for s in results[cid].round_stats] == [0, 1, 2]
        assert results[cid].deltas_sent == 3
        assert not results[cid].untrained


def test_federation_training_actually_reduces_loss():
    seeds = {"a": 5, "b": 6}
    _, _, results, _ = run_federation(seeds, rounds=6)
    for res in results.values():
        losses = [s.train_loss for s in res.round_stats]
        assert losses[-1] < losses[0]


def test_round_traffic_constant_and_dataset_independent():
    seeds = {"n1": 1, "n2": 2}
    _, small, _, _ = run_federation(seeds, rounds=3, n_batches=8)
    _, large, _, _ = run_federation(seeds, rounds=3, n_batches=16)
    small_bytes = [(r.bytes_sent, r.bytes_received) for r in small]
    large_bytes = [(r.bytes_sent, r.bytes_received) for r in large]
    # identical per round despite twice the training data
    assert small_bytes == large_bytes
    # and constant after the setup round
    assert len(set(small_bytes[1:])) == 1


def test_byte_records_match_endpoint_totals_exactly():
    seeds = {"n1": 1, "n2": 2, "n3": 3}
    _, records, _, endpoints = run_federation(seeds, rounds=2)
    down = sum(r.bytes_sent for r in records)
    up = sum(r.bytes_received for r in records)
    assert down == sum(ep.bytes_received for ep in endpoints.values())
    assert up == sum(ep.bytes_sent for ep in endpoints.values())


def test_single_client_federation_equals_local_training():
    rounds = 5
    agg, records, results, _ = run_federation({"solo": 9}, rounds=rounds,
                                              persist=True)
    # reference: one uninterrupted local run from the same initial weights
    trw, vaw, _, _ = node_data(9)
    model = build_autoencoder(ACFG, seed=GLOBAL_SEED)
    train_epochs(model, trw, TCFG, rounds, val_windows=vaw, seed=9)
    assert results["solo"].final_weights == ModelWeights(model.weights_dict())
    assert ModelWeights(agg.global_weights.tensors) == results["solo"].final_weights


def test_socket_federation_matches_in_process():
    seeds = {"n1": 1, "n2": 2}
    _, hub_records, hub_results, _ = run_federation(seeds, rounds=2)
    _, sock_records, sock_results, eps = run_federation(seeds, rounds=2,
                                                        transport="socket")
    assert len(sock_records) == 2
    for cid in seeds:
        assert sock_results[cid].final_weights == hub_results[cid].final_weights
    assert [(r.bytes_sent, r.bytes_received) for r in sock_records] == \
           [(r.bytes_sent, r.bytes_received) for r in hub_records]
    down = sum(r.bytes_sent for r in sock_records)
    assert down == sum(ep.bytes_received for ep in eps.values())


def test_zero_round_federation_flags_untrained():
    agg, records, results, _ = run_federation({"solo": 3}, rounds=0)
    assert records == []
    res = results["solo"]
    assert res.untrained and res.deltas_sent == 0
    assert res.round_stats == []
    assert len(res.verdicts) > 0  # scored with the initial model, flagged


# -- scripted edge cases -----------------------------------------------------

def _zero_delta(weights, base_round):
    return WeightDelta({k: np.zeros_like(v) for k, v in weights.tensors.items()},
                       base_round=base_round)


def _start_aggregator(agg, listener):
    box = {}

    def runner():
        try:
            box["records"] = agg.run(listener)
        except Exception as e:
            box["error"] = e

    t = threading.Thread(target=runner)
    t.start()
    return t, box


def test_late_registrant_gets_current_model_and_joins_next_round():
    hub = InProcessHub()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)

    a, b = hub.connect(), hub.connect()
    a.send(Register("a"))
    b.send(Register("b"))
    gm_a = a.recv(timeout=5.0)
    gm_b = b.recv(timeout=5.0)
    assert gm_a.round == 0 and gm_b.round == 0

    # round 0 in flight: a submits, then c registers late
    a.send(DeltaSubmission("a", 0, _zero_delta(gm_a.weights, 0)))
    c = hub.connect()
    c.send(Register("c"))
    gm_c = c.recv(timeout=5.0)
    assert gm_c.round == 0  # current model, not a future one
    assert gm_c.weights == gm_a.weights
    # c trains on it and submits for the in-flight round: acknowledged, dropped
    c.send(DeltaSubmission("c", 0, _zero_delta(gm_c.weights, 0)))
    assert isinstance(c.recv(timeout=5.0), Ack)

    b.send(DeltaSubmission("b", 0, _zero_delta(gm_b.weights, 0)))
    # everyone registered receives round 1, including c
    nxt = {"a": a.recv(timeout=5.0), "b": b.recv(timeout=5.0),
           "c": c.recv(timeout=5.0)}
    assert all(isinstance(m, GlobalModel) and m.round == 1 for m in nxt.values())

    # round 1 expects all three
    for cid, ep in (("a", a), ("b", b), ("c", c)):
        ep.send(DeltaSubmission(cid, 1, _zero_delta(nxt[cid].weights, 1)))
    for ep in (a, b, c):
        assert ep.recv(timeout=5.0).round == 2
        ep.close()
    t.join(timeout=10.0)

    records = box["records"]
    assert records[0].client_ids == ["a", "b"]
    assert records[0].late_submissions == 1
    assert records[1].client_ids == ["a", "b", "c"]
    assert records[1].late_submissions == 0


def test_duplicate_client_id_rejected():
    hub = InProcessHub()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)

    a = hub.connect()
    a.send(Register("a"))
    gm = a.recv(timeout=5.0)

    imposter = hub.connect()
    imposter.send(Register("a"))
    err = imposter.recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_DUPLICATE_ID
    assert imposter.recv(timeout=5.0) is None  # connection closed

    b = hub.connect()
    b.send(Register("b"))
    gm_b = b.recv(timeout=5.0)
    a.send(DeltaSubmission("a", 0, _zero_delta(gm.weights, 0)))
    b.send(DeltaSubmission("b", 0, _zero_delta(gm_b.weights, 0)))
    assert a.recv(timeout=5.0).round == 1
    assert b.recv(timeout=5.0).round == 1
    a.close(), b.close()
    t.join(timeout=10.0)
    assert box["records"][0].client_ids == ["a", "b"]


def test_round_timeout_aborts_without_partial_aggregation():
    hub = InProcessHub()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=0.4)
    t, box = _start_aggregator(agg, hub)

    a, b = hub.connect(), hub.connect()
    a.send(Register("a"))
    b.send(Register("b"))
    gm = a.recv(timeout=5.0)
    b.recv(timeout=5.0)
    a.send(DeltaSubmission("a", 0, _zero_delta(gm.weights, 0)))
    # b stays silent; the round must abort, not aggregate a alone
    err = a.recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT
    assert "b" in err.text
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)
    assert agg.records == []  # no per-round record for an aborted round


def test_registration_timeout_aborts():
    hub = InProcessHub()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=0.3, round_timeout_s=5.0)
    t, box = _start_aggregator(agg, hub)
    a = hub.connect()
    a.send(Register("a"))
    a.recv(timeout=5.0)
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)
    assert "1 of 2" in str(box["error"])


def test_mid_round_disconnect_aborts():
    hub = InProcessHub()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    a, b = hub.connect(), hub.connect()
    a.send(Register("a"))
    b.send(Register("b"))
    gm = a.recv(timeout=5.0)
    b.recv(timeout=5.0)
    a.send(DeltaSubmission("a", 0, _zero_delta(gm.weights, 0)))
    b.close()  # b walks away before submitting
    err = a.recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)


def _abort_on_bad_delta(bad_delta):
    """b submits a good delta, a a bad one: every client must get an abort
    frame and the global model must stay as it was."""
    hub = InProcessHub()
    init = global_init()
    agg = AggregationNode(init, expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    a, b = hub.connect(), hub.connect()
    a.send(Register("a"))
    b.send(Register("b"))
    gm = a.recv(timeout=5.0)
    b.recv(timeout=5.0)
    b.send(DeltaSubmission("b", 0, _zero_delta(gm.weights, 0)))
    a.send(DeltaSubmission("a", 0, bad_delta(gm.weights)))
    for ep in (a, b):
        err = ep.recv(timeout=5.0)
        assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT, err
        assert "'a'" in err.text
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)
    assert agg.global_weights == init
    assert agg.records == []


def test_non_finite_delta_aborts_round():
    def nan_delta(weights):
        delta = _zero_delta(weights, 0)
        next(iter(delta.tensors.values())).flat[0] = np.nan
        return delta

    _abort_on_bad_delta(nan_delta)


def test_mismatched_delta_layout_aborts_round():
    def short_delta(weights):
        tensors = _zero_delta(weights, 0).tensors
        first = next(iter(tensors))
        tensors[first] = tensors[first][:-1]
        return WeightDelta(tensors, base_round=0)

    _abort_on_bad_delta(short_delta)


# -- scripted node behavior --------------------------------------------------

def _scripted_node(config, train_windows=None, val_windows=None):
    """Run a TrainingNode against a hand-driven server endpoint."""
    rng = np.random.default_rng(0)
    if train_windows is None:
        train_windows = rng.normal(size=(10, ACFG.window_size, 1)).astype(np.float32)
    if val_windows is None:
        val_windows = rng.normal(size=(4, ACFG.window_size, 1)).astype(np.float32)
    hub = InProcessHub()
    client = hub.connect()
    server = hub.accept(timeout=5.0)
    node = TrainingNode(config, train_windows, val_windows)
    box = {}

    def runner():
        try:
            box["result"] = node.run(client)
        except Exception as e:
            box["error"] = e

    t = threading.Thread(target=runner)
    t.start()
    return server, t, box


def _node_config(**kw):
    defaults = dict(client_id="n", autoencoder=ACFG, train=TCFG, rounds=1,
                    recv_timeout_s=5.0)
    defaults.update(kw)
    return TrainingNodeConfig(**defaults)


def test_node_raises_on_round_abort_error():
    server, t, box = _scripted_node(_node_config())
    assert isinstance(server.recv(timeout=5.0), Register)
    server.send(Error(code=ERR_ROUND_ABORT, text="round 0: no delta from ['m']"))
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)


def test_node_raises_on_rejection():
    server, t, box = _scripted_node(_node_config())
    server.recv(timeout=5.0)
    server.send(Error(code=ERR_DUPLICATE_ID, text="client id 'n' already registered"))
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), ProtocolError)
    assert not isinstance(box.get("error"), RoundAbortError)


def test_node_raises_when_closed_before_final_model():
    server, t, box = _scripted_node(_node_config())
    server.recv(timeout=5.0)
    server.send(GlobalModel(round=0, weights=global_init()))
    sub = server.recv(timeout=10.0)
    assert isinstance(sub, DeltaSubmission)
    server.close()
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), ProtocolError)


def test_node_window_schedule_limits_training_data():
    schedule = [4, 8, 12]
    cfg = _node_config(rounds=3, window_schedule=lambda r: schedule[r])
    server, t, box = _scripted_node(cfg)
    server.recv(timeout=5.0)
    weights = global_init()
    seen = []
    for r in range(3):
        server.send(GlobalModel(round=r, weights=weights))
        sub = server.recv(timeout=10.0)
        seen.append(sub.windows_trained)
    server.send(GlobalModel(round=3, weights=weights))
    t.join(timeout=10.0)
    assert "error" not in box
    # 10 windows available: the schedule caps at availability
    assert seen == [4, 8, 10]
    assert [s.windows_trained for s in box["result"].round_stats] == [4, 8, 10]


def test_node_round_scores_each_validation_window_once(monkeypatch):
    reconstructed = []
    original = LstmAutoencoder.reconstruct

    def counting(self, windows, chunk=256):
        reconstructed.append(len(windows))
        return original(self, windows, chunk=chunk)

    monkeypatch.setattr(LstmAutoencoder, "reconstruct", counting)
    rounds = 3
    val = np.random.default_rng(1).normal(size=(5, ACFG.window_size, 1)).astype(np.float32)
    server, t, box = _scripted_node(_node_config(rounds=rounds), val_windows=val)
    server.recv(timeout=5.0)
    weights = global_init()
    for r in range(rounds + 1):
        server.send(GlobalModel(round=r, weights=weights))
        if r < rounds:
            assert isinstance(server.recv(timeout=10.0), DeltaSubmission)
    t.join(timeout=10.0)
    assert "error" not in box
    # one validation pass per round, one more to calibrate the final model;
    # the scripted node has no test batches
    assert sum(reconstructed) == (rounds + 1) * len(val)
    stats = box["result"].round_stats
    assert all(np.isfinite(s.val_loss) for s in stats)


def test_node_verdicts_equal_batch_scorer_on_final_model():
    seeds = {"n1": 1, "n2": 2}
    _, _, results, _ = run_federation(seeds, rounds=2)
    for cid, seed in seeds.items():
        res = results[cid]
        _, vaw, test, offset = node_data(seed)
        model = build_autoencoder(ACFG)
        model.set_weights_dict(res.final_weights.tensors)
        assert res.final_threshold == ThresholdModel.calibrate(window_scores(model, vaw))
        expected = score_batches(model, test, offset, res.final_threshold,
                                 ACFG.window_size)
        assert res.verdicts == expected and len(expected) > 0
