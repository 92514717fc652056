"""End-to-end federation tests over both transports, plus node/aggregator
edge cases driven through scripted endpoints."""

import glob
import multiprocessing
import multiprocessing.resource_tracker
import os
import signal
import stat
import struct
import tempfile
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
    FedvibError,
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
    AggregationNode,
    DeltaSubmission,
    Error,
    GlobalModel,
    InProcessHub,
    ModelWeights,
    Register,
    RoundState,
    TrainingNode,
    TrainingNodeConfig,
    WeightDelta,
    connect_socket,
    serve_sockets,
)
from fedvib.proto.node import timed
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


def test_node_rounds_carry_their_phase_timers():
    _, _, results = run_federation({"n1": 1, "n2": 2}, rounds=2)
    for res in results.values():
        assert [s.round for s in res.round_stats] == [0, 1]
        for s in res.round_stats:
            assert list(s.phases) == ["wait", "train", "send", "score", "calibrate"]
            assert all(sec >= 0.0 for sec in s.phases.values())
            # everything but the wait for the model falls within the round
            assert s.phases["train"] + s.phases["send"] + s.phases["score"] \
                + s.phases["calibrate"] <= s.duration_s


def test_node_results_carry_their_process_resources():
    _, _, results = run_federation({"n1": 1, "n2": 2}, rounds=1)
    for res in results.values():
        assert res.peak_rss_bytes > 0
        assert res.cpu_s > 0.0


def test_timed_adds_up_each_phase_also_when_the_block_raises():
    seconds = {}
    with timed(seconds, "a"):
        time.sleep(0.01)
    with pytest.raises(ValueError):
        with timed(seconds, "a"):
            time.sleep(0.01)
            raise ValueError
    with timed(seconds, "b"):
        pass
    assert list(seconds) == ["a", "b"]
    assert 0.02 <= seconds["a"] < 1.0 and 0.0 <= seconds["b"] < seconds["a"]


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


class _SelfKillingNode(TrainingNode):
    """SIGKILLs its own process once round 1's global model arrives."""

    fail_round = 1

    def fail(self):
        os.kill(os.getpid(), signal.SIGKILL)

    def run(self, endpoint):
        recv = endpoint.recv

        def recv_then_fail(timeout=None):
            msg = recv(timeout)
            if isinstance(msg, GlobalModel) and msg.round == self.fail_round:
                self.fail()
            return msg

        endpoint.recv = recv_then_fail
        return super().run(endpoint)


class _LockError(Exception):
    """An exception that does not pickle: it holds a lock."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class _UnpicklableFailureNode(_SelfKillingNode):
    """Raises an exception that cannot be sent back, in round 0."""

    fail_round = 0

    def fail(self):
        raise _LockError()


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


class _DiesWhenUnpickled(TrainingNode):
    """Kills the process that unpickles it, before that process connects."""

    def __reduce__(self):
        return _die, ()


def _stamp(path):
    with open(path, "a") as f:
        f.write(f"{time.monotonic()}\n")


class _Stamp:
    """Appends the time at which it is unpickled to the file ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return _stamp, (self.path,)


class _StampedNode(TrainingNode):
    """Pickles a _Stamp of its ``stamps`` file ahead of its fields and 1 MiB
    of ballast: a process stamps the time it begins to unpickle the node, and
    the pickle outgrows a pipe's buffer, so its writer waits for the reader."""

    stamps = None

    def __getstate__(self):
        return {"stamp": _Stamp(self.stamps), **self.__dict__, "ballast": bytes(2**20)}


def _hub_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "fedvib-hub-*")))


class _Leftovers:
    """Threads, fds, node processes and hub directories a launch leaves.  The
    fd baseline is taken with multiprocessing's resource tracker, one helper
    per parent process that holds one fd, already running."""

    def __init__(self):
        multiprocessing.resource_tracker.ensure_running()
        self.threads = set(threading.enumerate())
        self.fds = len(os.listdir("/proc/self/fd"))
        self.dirs = _hub_dirs()

    def assert_none(self):
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) - self.threads == set()
        assert len(os.listdir("/proc/self/fd")) == self.fds  # no endpoint or pipe left open
        assert _hub_dirs() == self.dirs  # the hub removed its directory


def _launch_aggregator(rounds=2, clients=2):
    return AggregationNode(global_init(), expected_clients=clients, rounds=rounds,
                           registration_timeout_s=20.0, round_timeout_s=60.0)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("failing", [False, True], ids=["clean", "failing"])
def test_no_thread_outlives_the_launcher(transport, failing):
    leftovers = _Leftovers()
    agg = _launch_aggregator()
    # a window schedule of 0 makes n2's training raise in round 0
    schedule = (0, 0) if failing else None
    nodes = [make_node("n1", 1, rounds=2, node_cls=_LingeringNode),
             make_node("n2", 2, rounds=2, node_cls=_LingeringNode,
                       window_schedule=schedule)]
    if failing:
        # n1's send may fail after the abort; n2's own error still wins
        with pytest.raises(ShapeError, match="zero windows") as info:
            run_nodes(agg, nodes, transport)
        assert "train_epochs" in str(info.value.__cause__)  # the child's traceback
    else:
        _, results = run_nodes(agg, nodes, transport)
        assert list(results) == ["n1", "n2"]
    leftovers.assert_none()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_killed_node_process_fails_the_launch_within_seconds(transport):
    leftovers = _Leftovers()
    nodes = [make_node("n1", 1, rounds=3),
             make_node("n2", 2, rounds=3, node_cls=_SelfKillingNode)]
    started = time.monotonic()
    with pytest.raises(FedvibError, match=r"node 'n2'.*exit code -9"):
        run_nodes(_launch_aggregator(rounds=3), nodes, transport)
    assert time.monotonic() - started < 10.0  # not the 60 s round timeout
    leftovers.assert_none()


def test_an_exception_that_does_not_pickle_names_its_node():
    leftovers = _Leftovers()
    nodes = [make_node("n1", 1, rounds=2),
             make_node("n2", 2, rounds=2, node_cls=_UnpicklableFailureNode)]
    with pytest.raises(FedvibError, match=r"node 'n2'.*exit code 1"):
        run_nodes(_launch_aggregator(), nodes, "in_process")
    leftovers.assert_none()


def test_a_node_that_does_not_pickle_leaves_nothing_running(capfd):
    leftovers = _Leftovers()
    bad = make_node("n2", 2, rounds=2)
    bad.test_batches = (b for b in bad.test_batches)
    # both processes start, and n1's receives its node, before n2 fails to pickle
    with pytest.raises(TypeError, match="pickle"):
        run_nodes(_launch_aggregator(), [make_node("n1", 1, rounds=2), bad], "in_process")
    leftovers.assert_none()
    # n1's process outlives the launch and finds hub and pipe closed: it ends
    # quietly; run_nodes joined it, so everything it wrote is captured
    assert "Traceback" not in capfd.readouterr().err


def test_a_node_process_that_dies_before_registering_fails_the_launch_at_once():
    leftovers = _Leftovers()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=60.0, round_timeout_s=60.0)
    nodes = [make_node("n1", 1, rounds=2),
             make_node("n2", 2, rounds=2, node_cls=_DiesWhenUnpickled)]
    started = time.monotonic()
    with pytest.raises(FedvibError, match=r"node 'n2'.*exit code -9"):
        run_nodes(agg, nodes, "in_process")
    assert time.monotonic() - started < 10.0  # not the 60 s registration timeout
    leftovers.assert_none()


def test_a_node_process_that_dies_before_receiving_its_node_is_named(monkeypatch):
    leftovers = _Leftovers()
    start = multiprocessing.context.SpawnProcess.start
    started = []

    def start_and_kill_the_second(proc):
        start(proc)
        started.append(proc)
        if len(started) == 2:
            proc.kill()
            proc.join(5.0)

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start",
                        start_and_kill_the_second)
    nodes = [make_node("n1", 1, rounds=2), make_node("n2", 2, rounds=2)]
    with pytest.raises(FedvibError, match=r"node 'n2'.*exit code -9 before receiving"):
        run_nodes(_launch_aggregator(), nodes, "in_process")
    leftovers.assert_none()


def test_every_node_process_starts_before_any_unpickles_its_node(monkeypatch, tmp_path):
    start = multiprocessing.context.SpawnProcess.start
    started = []

    def timed_start(proc):
        start(proc)
        started.append(time.monotonic())

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", timed_start)
    nodes = [make_node(cid, seed, rounds=1, node_cls=_StampedNode)
             for cid, seed in (("n1", 1), ("n2", 2))]
    for node in nodes:
        node.stamps = str(tmp_path / "stamps")
    _, results = run_nodes(_launch_aggregator(rounds=1), nodes, "in_process")
    assert list(results) == ["n1", "n2"]
    unpickled = [float(t) for t in (tmp_path / "stamps").read_text().split()]
    assert len(started) == len(unpickled) == len(nodes)
    # a launcher that sends each node with its process's start would wait in
    # the first start() until that process had booted and read its node
    assert max(started) < min(unpickled)


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


def test_mid_round_registrant_gets_the_next_round_model_and_joins_it(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)

    a, b = hub.connect(), hub.connect()
    a.send(Register("a"))
    b.send(Register("b"))
    gm_a = a.recv(timeout=5.0)
    gm_b = b.recv(timeout=5.0)
    assert gm_a.round == 0 and gm_b.round == 0

    # round 0 in flight: a submits, then c registers
    a.send(DeltaSubmission("a", 0, _zero_delta(gm_a.weights, 0)))
    c = hub.connect()
    c.send(Register("c"))
    _until(lambda: _registered(agg) == ["a", "b", "c"])
    with pytest.raises(TransportError, match="timed out"):
        c.recv(timeout=0.2)  # round 0 is not c's round: no model for it

    b.send(DeltaSubmission("b", 0, _zero_delta(gm_b.weights, 0)))
    # everyone registered receives round 1, c with its first frame
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
    assert records[1].client_ids == ["a", "b", "c"]


def test_duplicate_client_id_rejected(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)

    a = hub.connect()
    a.send(Register("a"))

    imposter = hub.connect()
    imposter.send(Register("a"))
    err = imposter.recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_DUPLICATE_ID
    assert imposter.recv(timeout=5.0) is None  # connection closed

    b = hub.connect()
    b.send(Register("b"))
    gm = a.recv(timeout=5.0)
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


@pytest.mark.parametrize("leaves", ["closes", "sends_a_delta"])
def test_late_joiner_that_leaves_is_not_expected_next_round(hub, leaves):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])

    c = hub.connect()
    c.send(Register("c"))
    _until(lambda: _registered(agg) == ["a", "b", "c"])  # joined during round 0
    if leaves == "sends_a_delta":  # c takes no part in round 0, so owes it none
        c.send(DeltaSubmission("c", 0, _zero_delta(models["a"].weights, 0)))
        err = c.recv(timeout=5.0)
        assert isinstance(err, Error) and err.code == ERR_PROTOCOL, err
        assert "'c'" in err.text
        assert c.recv(timeout=5.0) is None
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
    before = set(threading.enumerate())
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])

    eps["a"].send(Register("a2"))
    err = eps["a"].recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_PROTOCOL
    assert "'a'" in err.text
    assert _registered(agg) == ["a", "b"]
    # run serves every connection from its own thread: it starts none
    assert set(threading.enumerate()) - before == {t}

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
    a = hub.connect()
    a.send(Register("a"))
    err = a.recv(timeout=5.0)  # a's first frame: no model before round 0
    assert isinstance(err, Error) and err.code == ERR_ROUND_ABORT
    assert "1 of 2" in err.text
    assert a.recv(timeout=5.0) is None
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


def test_pre_round_delta_is_refused(hub):
    init = global_init()
    agg = AggregationNode(init, expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    a = hub.connect()
    a.send(Register("a"))
    # while registration is still open, a sends round-0 deltas of ones
    ones = WeightDelta({k: np.ones_like(v) for k, v in init.tensors.items()},
                       base_round=0)
    for _ in range(3):
        try:
            a.send(DeltaSubmission("a", 0, ones))
        except TransportError:  # the aggregator already closed a
            break
    err = a.recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_PROTOCOL, err
    assert "'a'" in err.text
    assert a.recv(timeout=5.0) is None  # closed, even with a's deltas unread
    a.close()
    _until(lambda: _registered(agg) == [])
    assert t.is_alive() and "error" not in box

    eps, models = _register_all(hub, ["b", "c"])
    assert all(m.round == 0 and m.weights == init for m in models.values())
    _submit_round(eps, models, 0)
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    assert box["records"][0].client_ids == ["b", "c"]
    assert agg.global_weights == init  # none of a's deltas was averaged in


def test_duplicate_delta_ends_only_its_sender(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])

    delta = DeltaSubmission("a", 0, _zero_delta(models["a"].weights, 0),
                            windows_trained=7)
    eps["a"].send(delta)
    eps["a"].send(delta)
    err = eps["a"].recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_PROTOCOL, err
    assert "'a'" in err.text
    assert eps["a"].recv(timeout=5.0) is None
    del eps["a"]

    # round 0 completes with a's first delta; round 1 expects only b
    models = _submit_round(eps, models, 0)
    _submit_round(eps, models, 1)
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    assert [rec.client_ids for rec in box["records"]] == [["a", "b"], ["b"]]
    assert box["records"][0].windows_trained == {"a": 7, "b": 0}


def test_a_stale_delta_ends_nobodys_run(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])
    stale = DeltaSubmission("a", 0, _zero_delta(models["a"].weights, 0))
    models = _submit_round(eps, models, 0)

    eps["a"].send(stale)  # round 0's delta again, during round 1
    err = eps["a"].recv(timeout=5.0)
    assert isinstance(err, Error) and err.code == ERR_PROTOCOL, err
    assert "round 0" in err.text and "round 1" in err.text
    _submit_round(eps, models, 1)  # a kept its connection and its place
    t.join(timeout=10.0)
    assert not t.is_alive() and "error" not in box
    assert [rec.client_ids for rec in box["records"]] == [["a", "b"], ["a", "b"]]


def test_a_peer_that_does_not_read_cannot_stall_the_broadcast(hub):
    # the default widths make a ~600 KB model frame, more than the socket
    # buffers hold for a peer that never reads
    wide = AutoencoderConfig(feature_count=1, window_size=20)
    init = ModelWeights(build_autoencoder(wide, seed=GLOBAL_SEED).weights_dict())
    agg = AggregationNode(init, expected_clients=2, rounds=0,
                          registration_timeout_s=1.0, round_timeout_s=1.0)
    t, box = _start_aggregator(agg, hub)
    a, c = hub.connect(), hub.connect()
    a.send(Register("a"))
    c.send(Register("c"))
    assert a.recv(timeout=5.0).weights == init
    # c is dropped once the broadcast has taken the round timeout
    t.join(timeout=5.0)
    assert not t.is_alive() and box["records"] == []
    assert _registered(agg) == ["a"]
    assert a.recv(timeout=5.0) is None


def test_a_peer_that_floods_and_never_reads_is_dropped(hub):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])
    c = hub.connect()
    c.send(Register("c"))
    _until(lambda: _registered(agg) == ["a", "b", "c"])

    # each mis-addressed delta earns c an Error, until c's socket is full
    junk = DeltaSubmission("z", 0, WeightDelta({"w": np.zeros(16, np.float32)},
                                               base_round=0))

    def flood():
        try:
            while True:
                c.send(junk)
        except TransportError:  # the aggregator closed c
            pass

    flooder = threading.Thread(target=flood, daemon=True)
    flooder.start()
    _until(lambda: _registered(agg) == ["a", "b"])
    _submit_round(eps, models, 0)
    t.join(timeout=10.0)
    flooder.join(timeout=10.0)
    c.close()
    assert not t.is_alive() and "error" not in box
    assert not flooder.is_alive()
    assert box["records"][0].client_ids == ["a", "b"]


def test_a_flooding_peer_is_not_read_while_the_aggregator_is_busy(hub, monkeypatch):
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    flooder_conn = []
    gained = []
    aggregate = RoundState.aggregate

    def slow_aggregate(state):
        before = flooder_conn[0].bytes_received
        time.sleep(1.0)
        gained.append(flooder_conn[0].bytes_received - before)
        return aggregate(state)

    monkeypatch.setattr(RoundState, "aggregate", slow_aggregate)
    t, box = _start_aggregator(agg, hub)
    eps, models = _register_all(hub, ["a", "b"])
    c = hub.connect()
    c.send(Register("c"))
    _until(lambda: _registered(agg) == ["a", "b", "c"])
    flooder_conn.extend(conn for conn, cid in agg._clients.items() if cid == "c")

    # mis-addressed deltas: each one earns c an Error, c keeps its connection
    junk = DeltaSubmission("z", 0, WeightDelta({"w": np.zeros(4096, np.float32)},
                                               base_round=0))

    def flood():
        try:
            while True:
                c.send(junk)
        except TransportError:  # the aggregator closed c when run returned
            pass

    def drain():
        try:
            while c.recv() is not None:
                pass
        except TransportError:
            pass

    workers = [threading.Thread(target=fn, daemon=True) for fn in (flood, drain)]
    for w in workers:
        w.start()
    _submit_round(eps, models, 0)
    t.join(timeout=10.0)
    for w in workers:
        w.join(timeout=10.0)
    c.close()
    assert not t.is_alive() and "error" not in box
    assert not any(w.is_alive() for w in workers)
    # what the aggregator read from c while it aggregated: one read at most
    assert gained[0] <= (1 << 20) + flooder_conn[0].max_payload


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_half_sent_header_blocks_no_one(hub, transport):
    listener = hub if transport == "in_process" else serve_sockets()
    agg = AggregationNode(global_init(), expected_clients=2, rounds=1,
                          registration_timeout_s=30.0, round_timeout_s=30.0)
    t, box = _start_aggregator(agg, listener)

    def connect():
        if transport == "in_process":
            return hub.connect()
        return connect_socket("127.0.0.1", listener.port)

    stalled = connect()
    eps = {}
    try:
        stalled._sock.sendall(MAGIC + bytes([VERSION]))  # 5 of 14 header bytes
        started = time.monotonic()
        eps = {cid: connect() for cid in ("a", "b")}
        for cid, ep in eps.items():
            ep.send(Register(cid))
        models = {cid: ep.recv(timeout=5.0) for cid, ep in eps.items()}
        _submit_round(eps, models, 0)
        t.join(timeout=10.0)
        assert not t.is_alive() and "error" not in box
        assert time.monotonic() - started < 10.0
        assert box["records"][0].client_ids == ["a", "b"]
    finally:
        for ep in (stalled, *eps.values()):
            ep.close()


def test_failed_send_drops_only_that_peer(hub):
    accepted = []

    class Listener:
        def accept(self, timeout=None):
            conn = hub.accept(timeout)
            accepted.append(conn)
            return conn

        def close(self):
            hub.close()

        def fileno(self):
            return hub.fileno()

    agg = AggregationNode(global_init(), expected_clients=2, rounds=2,
                          registration_timeout_s=10.0, round_timeout_s=10.0)
    t, box = _start_aggregator(agg, Listener())
    eps, models = _register_all(hub, ["a", "b"])

    def unreachable(msg, timeout=None):
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
        a.send(Register("a"))
        b.send(Register("b"))
        assert a.recv(timeout=5.0).round == 0
        assert b.recv(timeout=5.0).round == 0
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


def test_two_hubs_can_be_open_at_once():
    hubs = [InProcessHub(), InProcessHub()]
    dirs = [os.path.dirname(h.address) for h in hubs]
    try:
        assert dirs[0] != dirs[1]
        assert all(stat.S_IMODE(os.stat(d).st_mode) == 0o700 for d in dirs)
        clients = [h.connect() for h in hubs]
        servers = [h.accept(timeout=5.0) for h in hubs]
        for i, client in enumerate(clients):
            client.send(Register(f"n{i}"))
        assert [s.recv(timeout=5.0) for s in servers] == [Register("n0"), Register("n1")]
        for ep in clients + servers:
            ep.close()
    finally:
        for h in hubs:
            h.close()
    assert not any(os.path.exists(d) for d in dirs)


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


def test_node_config_needs_a_window_cap_for_every_round():
    with pytest.raises(ConfigError, match="window_schedule needs 3"):
        _node_config(rounds=3, window_schedule=(4, 8))


def test_node_window_schedule_limits_training_data(hub):
    cfg = _node_config(rounds=3, window_schedule=(4, 8, 12))
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
