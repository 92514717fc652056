"""End-to-end federation tests over both transports, plus node/aggregator
edge cases driven through scripted endpoints."""

import os
import struct
import threading
import time

import numpy as np
import pytest

from fedvib.data import (
    SynthConfig,
    chronological_split,
    generate_synthetic,
    windows_for_batches,
)
from fedvib.errors import (
    ConfigError,
    ProtocolError,
    RoundAbortError,
    ShapeError,
    TransportError,
)
from fedvib.harness import run_nodes
from fedvib.harness.config import TRANSPORTS
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
    ModelWeights,
    Register,
    TrainingNode,
    TrainingNodeConfig,
    WeightDelta,
    connect_socket,
    serve_sockets,
)
from fedvib.proto.wire import (
    ERR_DUPLICATE_ID,
    ERR_PROTOCOL,
    ERR_ROUND_ABORT,
    MAGIC,
    MSG_DELTA_SUBMISSION,
    VERSION,
)

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


def make_node(cid, seed, rounds, n_batches=8, node_cls=TrainingNode, **config):
    trw, vaw, test, offset = node_data(seed, n_batches=n_batches)
    return node_cls(
        TrainingNodeConfig(client_id=cid, autoencoder=ACFG, train=TCFG,
                           rounds=rounds, seed=seed, recv_timeout_s=60.0, **config),
        trw, vaw, test_batches=test, test_offset=offset)


def run_federation(seeds_by_id, rounds, epochs_per_round=1, persist=False,
                   n_batches=8, transport="in_process"):
    """Run a complete federation through the harness launcher; returns
    (aggregator, records, results_by_id)."""
    agg = AggregationNode(global_init(), expected_clients=len(seeds_by_id),
                          rounds=rounds, registration_timeout_s=20.0,
                          round_timeout_s=120.0)
    nodes = [make_node(cid, seed, rounds, n_batches=n_batches,
                       epochs_per_round=epochs_per_round, persist_optimizer=persist)
             for cid, seed in seeds_by_id.items()]
    records, results = run_nodes(agg, nodes, transport)
    return agg, records, results


# -- full federations --------------------------------------------------------

def test_federation_reaches_bitwise_consensus():
    seeds = {"n1": 1, "n2": 2, "n3": 3, "n4": 4}
    agg, records, results = run_federation(seeds, rounds=3)
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
        assert not results[cid].untrained


def test_federation_training_actually_reduces_loss():
    seeds = {"a": 5, "b": 6}
    _, _, results = run_federation(seeds, rounds=6)
    for res in results.values():
        losses = [s.train_loss for s in res.round_stats]
        assert losses[-1] < losses[0]


def test_round_traffic_constant_and_dataset_independent():
    seeds = {"n1": 1, "n2": 2}
    _, small, _ = run_federation(seeds, rounds=3, n_batches=8)
    _, large, _ = run_federation(seeds, rounds=3, n_batches=16)
    small_bytes = [(r.bytes_sent, r.bytes_received) for r in small]
    large_bytes = [(r.bytes_sent, r.bytes_received) for r in large]
    # identical per round despite twice the training data
    assert small_bytes == large_bytes
    # and constant after the setup round
    assert len(set(small_bytes[1:])) == 1


def test_byte_records_match_endpoint_totals_exactly():
    seeds = {"n1": 1, "n2": 2, "n3": 3}
    _, records, results = run_federation(seeds, rounds=2)
    down = sum(r.bytes_sent for r in records)
    up = sum(r.bytes_received for r in records)
    assert down == sum(res.bytes_received for res in results.values())
    assert up == sum(res.bytes_sent for res in results.values())


def test_single_client_federation_equals_local_training():
    rounds = 5
    agg, records, results = run_federation({"solo": 9}, rounds=rounds,
                                           persist=True)
    # reference: one uninterrupted local run from the same initial weights
    trw, vaw, _, _ = node_data(9)
    model = build_autoencoder(ACFG, seed=GLOBAL_SEED)
    train_epochs(model, trw, TCFG, rounds, val_windows=vaw, seed=9)
    assert results["solo"].final_weights == ModelWeights(model.weights_dict())
    assert ModelWeights(agg.global_weights.tensors) == results["solo"].final_weights


def test_socket_federation_matches_in_process():
    seeds = {"n1": 1, "n2": 2}
    _, hub_records, hub_results = run_federation(seeds, rounds=2)
    _, sock_records, sock_results = run_federation(seeds, rounds=2,
                                                   transport="sockets")
    assert len(sock_records) == 2
    for cid in seeds:
        assert sock_results[cid].final_weights == hub_results[cid].final_weights
    assert [(r.bytes_sent, r.bytes_received) for r in sock_records] == \
           [(r.bytes_sent, r.bytes_received) for r in hub_records]
    down = sum(r.bytes_sent for r in sock_records)
    assert down == sum(res.bytes_received for res in sock_results.values())


def test_zero_round_federation_flags_untrained():
    agg, records, results = run_federation({"solo": 3}, rounds=0)
    assert records == []
    res = results["solo"]
    assert res.untrained
    assert res.round_stats == []
    assert len(res.verdicts) > 0  # scored with the initial model, flagged


class _LingeringNode(TrainingNode):
    """Outlives its endpoint a little, so a launcher that does not wait for
    its workers returns while this one still runs."""

    def run(self, endpoint):
        try:
            return super().run(endpoint)
        finally:
            time.sleep(0.2)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("failing", [False, True], ids=["clean", "failing"])
def test_no_thread_outlives_the_launcher(transport, failing):
    before = set(threading.enumerate())
    fds_before = len(os.listdir("/proc/self/fd"))
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=20.0, round_timeout_s=60.0)
    # a window schedule of 0 makes n2's training raise in round 0
    schedule = (lambda r: 0) if failing else None
    nodes = [make_node("n1", 1, rounds=2, node_cls=_LingeringNode),
             make_node("n2", 2, rounds=2, node_cls=_LingeringNode,
                       window_schedule=schedule)]
    if failing:
        with pytest.raises(ShapeError, match="zero windows"):
            run_nodes(agg, nodes, transport)
    else:
        _, results = run_nodes(agg, nodes, transport)
        assert list(results) == ["n1", "n2"]
    assert set(threading.enumerate()) - before == set()
    assert len(os.listdir("/proc/self/fd")) == fds_before  # no endpoint left open


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


def test_late_registrant_gets_current_model_and_joins_next_round(hub):
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


def test_duplicate_client_id_rejected(hub):
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


def test_round_timeout_aborts_without_partial_aggregation(hub):
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


def test_registration_timeout_aborts(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=0.3, round_timeout_s=5.0)
    t, box = _start_aggregator(agg, hub)
    a = hub.connect()
    a.send(Register("a"))
    a.recv(timeout=5.0)
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)
    assert "1 of 2" in str(box["error"])


def test_mid_round_disconnect_aborts(hub):
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


def _abort_on_bad_delta(hub, bad_delta):
    """b submits a good delta, a a bad one: every client must get an abort
    frame and the global model must stay as it was."""
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


def test_non_finite_delta_aborts_round(hub):
    def nan_delta(weights):
        delta = _zero_delta(weights, 0)
        next(iter(delta.tensors.values())).flat[0] = np.nan
        return delta

    _abort_on_bad_delta(hub, nan_delta)


def test_mismatched_delta_layout_aborts_round(hub):
    def short_delta(weights):
        tensors = _zero_delta(weights, 0).tensors
        first = next(iter(tensors))
        tensors[first] = tensors[first][:-1]
        return WeightDelta(tensors, base_round=0)

    _abort_on_bad_delta(hub, short_delta)


# -- departures, re-registration and shutdown -------------------------------

def _until(condition, timeout=5.0):
    """Wait for the aggregator to reach a state the test must not race."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "aggregator never got there"
        time.sleep(0.01)


def _registered(agg):
    return sorted(agg._clients.values())


def _register_all(hub, ids):
    eps = {cid: hub.connect() for cid in ids}
    for cid, ep in eps.items():
        ep.send(Register(cid))
    return eps, {cid: ep.recv(timeout=5.0) for cid, ep in eps.items()}


def _submit_round(eps, models, r):
    """Every endpoint submits a zero delta for round r; returns the next models."""
    for cid, ep in eps.items():
        ep.send(DeltaSubmission(cid, r, _zero_delta(models[cid].weights, r)))
    nxt = {cid: ep.recv(timeout=5.0) for cid, ep in eps.items()}
    assert all(isinstance(m, GlobalModel) and m.round == r + 1 for m in nxt.values())
    return nxt


def test_late_joiner_that_leaves_is_not_expected_next_round(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])

    c = hub.connect()
    c.send(Register("c"))
    assert c.recv(timeout=5.0).round == 0  # joined during round 0
    c.close()
    _until(lambda: _registered(agg) == ["a", "b"])

    models = _submit_round(eps, models, 0)
    _submit_round(eps, models, 1)
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    assert [rec.client_ids for rec in box["records"]] == [["a", "b"], ["a", "b"]]


def test_second_register_on_a_connection_is_refused(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])

    eps["a"].send(Register("a2"))
    err = eps["a"].recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_PROTOCOL
    assert "'a'" in err.text
    assert _registered(agg) == ["a", "b"]
    # the acceptor plus one reader per connection
    assert sum(th.is_alive() for th in agg._threads) == 3

    models = _submit_round(eps, models, 0)
    _submit_round(eps, models, 1)
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    assert box["records"][1].client_ids == ["a", "b"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_global_model_is_never_broadcast(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=3,
                          registration_timeout_s=5.0, round_timeout_s=5.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])

    def submit_max(r):
        # finite deltas whose sum with the float32 global model overflows
        for cid, ep in eps.items():
            tensors = {k: np.full_like(v, np.finfo(np.float32).max)
                       for k, v in models[cid].weights.tensors.items()}
            ep.send(DeltaSubmission(cid, r, WeightDelta(tensors, base_round=r)))
        return {cid: ep.recv(timeout=5.0) for cid, ep in eps.items()}

    models = submit_max(0)
    for m in models.values():
        assert isinstance(m, GlobalModel) and m.round == 1
        assert all(np.isfinite(v).all() for v in m.weights.tensors.values())
    for err in submit_max(1).values():
        assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT, err
        assert "round 1" in err.text
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)
    assert len(agg.records) == 1


def test_registration_timeout_tells_registered_clients(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=0.3, round_timeout_s=5.0)
    t, box = _start_aggregator(agg, hub)
    eps, _ = _register_all(hub, ["a"])
    err = eps["a"].recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT
    assert "1 of 2" in err.text
    assert eps["a"].recv(timeout=5.0) is None
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)


def test_unregistered_socket_is_closed_when_run_returns():
    listener = serve_sockets()
    agg = AggregationNode(global_init(), expected_clients=1, rounds=0,
                          registration_timeout_s=30.0, round_timeout_s=5.0)
    t, box = _start_aggregator(agg, listener)
    silent = connect_socket("127.0.0.1", listener.port)
    a = connect_socket("127.0.0.1", listener.port)
    try:
        a.send(Register("a"))
        assert a.recv(timeout=5.0).round == 0
        assert a.recv(timeout=5.0) is None
        assert silent.recv(timeout=5.0) is None
        t.join(timeout=10.0)
        assert not t.is_alive() and box["records"] == []
    finally:
        silent.close()
        a.close()


def test_early_delta_of_a_departed_client_is_discarded(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    early, models = _register_all(hub, ["a"])
    # a races ahead into round 0 before anyone else registered, then leaves
    early["a"].send(DeltaSubmission("a", 0, _zero_delta(models["a"].weights, 0)))
    early["a"].close()
    _until(lambda: _registered(agg) == [])

    eps, models = _register_all(hub, ["b", "c"])
    _submit_round(eps, models, 0)
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    rec = box["records"][0]
    assert rec.client_ids == ["b", "c"] and rec.late_submissions == 0


def test_failed_send_drops_only_that_peer(hub):
    accepted = []

    class Listener:
        def accept(self, timeout=None):
            conn = hub.accept(timeout)
            accepted.append(conn)
            return conn

        def close(self):
            hub.close()

    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, Listener())
    eps, models = _register_all(hub, ["a", "b"])

    def unreachable(msg):
        raise TransportError("peer unreachable")

    accepted[1].send = unreachable  # the aggregator's side of b
    for cid, ep in eps.items():
        ep.send(DeltaSubmission(cid, 0, _zero_delta(models[cid].weights, 0)))
    model_a = eps["a"].recv(timeout=5.0)
    assert model_a.round == 1
    assert eps["b"].recv(timeout=5.0) is None  # dropped, not aborted
    del eps["b"]
    _submit_round(eps, {"a": model_a}, 1)
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    assert [rec.client_ids for rec in box["records"]] == [["a", "b"], ["a"]]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_oversized_frame_is_refused_before_its_payload(hub, transport):
    listener = hub if transport == "in_process" else serve_sockets()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, listener)
    if transport == "in_process":
        a, b = hub.connect(), hub.connect()
    else:
        a = connect_socket("127.0.0.1", listener.port)
        b = connect_socket("127.0.0.1", listener.port)
    try:
        for cid, ep in (("a", a), ("b", b)):
            ep.send(Register(cid))
            assert ep.recv(timeout=5.0).round == 0
        # a announces a 1 TiB delta and never sends it
        a._sock.sendall(MAGIC + struct.pack("<BBQ", VERSION, MSG_DELTA_SUBMISSION, 2**40))
        err = a.recv(timeout=5.0)
        assert isinstance(err, Error) and err.code == ERR_PROTOCOL
        assert "limit" in err.text
        assert a.recv(timeout=5.0) is None
        err = b.recv(timeout=5.0)
        assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT
        assert "'a'" in err.text
        t.join(timeout=10.0)
        assert isinstance(box.get("error"), RoundAbortError)
    finally:
        a.close()
        b.close()


def test_in_process_send_to_a_closed_peer_fails(hub):
    client = hub.connect()
    hub.accept(timeout=5.0).close()
    with pytest.raises(TransportError, match="send failed"):
        client.send(Register("a"))


def test_closing_the_hub_closes_unaccepted_connections(hub):
    client = hub.connect()
    hub.close()
    assert client.recv(timeout=5.0) is None
    with pytest.raises(TransportError, match="hub is closed"):
        hub.connect()


# -- scripted node behavior --------------------------------------------------

def _scripted_node(hub, config, train_windows=None, val_windows=None):
    """Run a TrainingNode against a hand-driven server endpoint."""
    rng = np.random.default_rng(0)
    if train_windows is None:
        train_windows = rng.normal(size=(10, ACFG.window_size, 1)).astype(np.float32)
    if val_windows is None:
        val_windows = rng.normal(size=(4, ACFG.window_size, 1)).astype(np.float32)
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


@pytest.mark.parametrize("field", ["threshold_mode", "score_mode"])
def test_node_config_rejects_unknown_modes(field):
    with pytest.raises(ConfigError, match=field):
        _node_config(**{field: "bogus"})


def test_node_raises_on_round_abort_error(hub):
    server, t, box = _scripted_node(hub, _node_config())
    assert isinstance(server.recv(timeout=5.0), Register)
    server.send(Error(code=ERR_ROUND_ABORT, text="round 0: no delta from ['m']"))
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), RoundAbortError)


def test_node_raises_on_rejection(hub):
    server, t, box = _scripted_node(hub, _node_config())
    server.recv(timeout=5.0)
    server.send(Error(code=ERR_DUPLICATE_ID, text="client id 'n' already registered"))
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), ProtocolError)
    assert not isinstance(box.get("error"), RoundAbortError)


def test_node_raises_when_closed_before_final_model(hub):
    server, t, box = _scripted_node(hub, _node_config())
    server.recv(timeout=5.0)
    server.send(GlobalModel(round=0, weights=global_init()))
    sub = server.recv(timeout=10.0)
    assert isinstance(sub, DeltaSubmission)
    server.close()
    t.join(timeout=10.0)
    assert isinstance(box.get("error"), ProtocolError)


def test_node_window_schedule_limits_training_data(hub):
    schedule = [4, 8, 12]
    cfg = _node_config(rounds=3, window_schedule=lambda r: schedule[r])
    server, t, box = _scripted_node(hub, cfg)
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


def test_node_round_scores_each_validation_window_once(hub, monkeypatch):
    reconstructed = []
    original = LstmAutoencoder.reconstruct

    def counting(self, windows):
        reconstructed.append(len(windows))
        return original(self, windows)

    monkeypatch.setattr(LstmAutoencoder, "reconstruct", counting)
    rounds = 3
    val = np.random.default_rng(1).normal(size=(5, ACFG.window_size, 1)).astype(np.float32)
    server, t, box = _scripted_node(hub, _node_config(rounds=rounds), val_windows=val)
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
    _, _, results = run_federation(seeds, rounds=2)
    for cid, seed in seeds.items():
        res = results[cid]
        _, vaw, test, offset = node_data(seed)
        model = build_autoencoder(ACFG)
        model.set_weights_dict(res.final_weights.tensors)
        assert res.final_threshold == ThresholdModel.calibrate(window_scores(model, vaw))
        expected = score_batches(model, test, offset, res.final_threshold,
                                 ACFG.window_size)
        assert res.verdicts == expected and len(expected) > 0
