"""Protocol-layer tests: weight containers, FedAvg algebra, wire codec,
and round-state bookkeeping."""

import dataclasses
import socket
import struct

import numpy as np
import pytest

from fedvib.errors import ConfigError, ProtocolError, ShapeError, WireError
from fedvib.nn.ops import weight_delta
from fedvib.proto import (
    DeltaSubmission,
    Error,
    GlobalModel,
    ModelWeights,
    Register,
    RoundState,
    WeightDelta,
    apply_delta,
    decode_frame,
    encode_frame,
    fedavg,
    weights_payload_size,
)
from fedvib.proto.transport import SocketEndpoint
from fedvib.proto.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_NAME_LEN,
    MESSAGE_TYPES,
    MSG_DELTA_SUBMISSION,
    VERSION,
    max_payload_size,
    take_frame,
)


def _random_weights(rng, spec=(("a.W", (3, 2)), ("a.b", (4,)), ("out", (2, 2, 2)))):
    return ModelWeights({name: rng.normal(size=shape).astype(np.float32)
                         for name, shape in spec})


def compute_delta(local, base_global, base_round=0):
    """local - base_global as a WeightDelta, the way a training node builds it."""
    return WeightDelta(weight_delta(local.tensors, base_global.tensors),
                       base_round=base_round)


# -- containers --------------------------------------------------------------

def test_model_weights_coerce_copy_and_count():
    src = np.ones((2, 2), dtype=np.float64)
    w = ModelWeights({"x": src, "y": np.zeros(3, dtype=np.float32)})
    assert w.tensors["x"].dtype == np.float32
    assert sum(a.size for a in w.tensors.values()) == 7
    src[0, 0] = 99.0  # the container must own its arrays
    assert w.tensors["x"][0, 0] == 1.0


def test_model_weights_validation_and_equality():
    with pytest.raises(ConfigError):
        ModelWeights({})
    with pytest.raises(ConfigError):
        ModelWeights({"": np.ones(1, dtype=np.float32)})
    a = ModelWeights({"x": np.float32([1, 2])})
    b = ModelWeights({"x": np.float32([1, 2])})
    c = ModelWeights({"x": np.float32([1, 3])})
    assert a == b and a != c


def test_weight_delta_validation():
    with pytest.raises(ConfigError):
        WeightDelta({"x": np.float32([1.0])}, base_round=-1)
    d = WeightDelta({"x": np.float32([1.0])}, base_round=3)
    assert d.base_round == 3 and d.tensors["x"].size == 1


# -- delta arithmetic --------------------------------------------------------

def test_compute_delta_zero_and_ones():
    rng = np.random.default_rng(1)
    g = _random_weights(rng)
    zero = compute_delta(g, g)
    assert all(np.all(v == 0.0) for v in zero.tensors.values())
    # weights on a coarse binary lattice, where adding 1 is exact in float32
    lattice = ModelWeights({k: (rng.integers(-8, 9, size=v.shape) / 16.0)
                            for k, v in g.tensors.items()})
    plus_one = ModelWeights({k: v + np.float32(1.0)
                             for k, v in lattice.tensors.items()})
    ones = compute_delta(plus_one, lattice)
    assert all(np.all(v == 1.0) for v in ones.tensors.values())


def test_compute_apply_round_trip_bitwise():
    # moves bounded by a third of the destination magnitude: the regime
    # one training round produces, where the float32 round-trip is exact
    rng = np.random.default_rng(2)
    g = _random_weights(rng)
    local = ModelWeights({
        k: (v.astype(np.float64)
            * (1.0 + rng.uniform(-1 / 3, 1 / 3, size=v.shape))).astype(np.float32)
        for k, v in g.tensors.items()})
    d = compute_delta(local, g, base_round=7)
    assert d.base_round == 7
    back = apply_delta(g, d)
    assert back == local


def test_compute_delta_layout_mismatch():
    g = ModelWeights({"x": np.float32([1.0, 2.0])})
    with pytest.raises(ShapeError):
        compute_delta(ModelWeights({"y": np.float32([1.0, 2.0])}), g)
    with pytest.raises(ShapeError):
        compute_delta(ModelWeights({"x": np.float32([1.0])}), g)


# -- fedavg ------------------------------------------------------------------

def test_fedavg_single_delta_is_identity():
    rng = np.random.default_rng(3)
    d = WeightDelta(_random_weights(rng).tensors, base_round=2)
    avg = fedavg([d])
    assert avg == d


def test_fedavg_opposite_deltas_cancel():
    rng = np.random.default_rng(4)
    d = WeightDelta(_random_weights(rng).tensors)
    neg = WeightDelta({k: -v for k, v in d.tensors.items()})
    avg = fedavg([d, neg])
    assert all(np.all(v == 0.0) for v in avg.tensors.values())


def test_fedavg_three_scalars():
    deltas = [WeightDelta({"w": np.float32([x])}) for x in (0.3, 0.6, 0.9)]
    avg = fedavg(deltas)
    assert avg.tensors["w"][0] == np.float32(0.6)


def test_fedavg_n_copies_exact():
    rng = np.random.default_rng(5)
    d = WeightDelta(_random_weights(rng).tensors)
    for n in (2, 3, 5, 25):
        avg = fedavg([d] * n)
        assert avg == d


def test_fedavg_permutation_invariant_same_scale():
    # same-magnitude deltas sum exactly in float64, so any order agrees
    rng = np.random.default_rng(6)
    deltas = [WeightDelta({"w": rng.uniform(0.5, 1.5, size=40).astype(np.float32)})
              for _ in range(6)]
    ref = fedavg(deltas)
    for perm_seed in range(5):
        order = np.random.default_rng(perm_seed).permutation(len(deltas))
        assert fedavg([deltas[i] for i in order]) == ref


def test_fedavg_errors():
    with pytest.raises(ConfigError):
        fedavg([])
    a = WeightDelta({"x": np.float32([1.0])}, base_round=0)
    c = WeightDelta({"y": np.float32([1.0])}, base_round=0)
    with pytest.raises(ShapeError):
        fedavg([a, c])


# -- round state -------------------------------------------------------------

def _toy_state():
    g = ModelWeights({"w": np.float32([1.0, 2.0, -0.5])})
    return RoundState(round=0, global_weights=g, expected_clients={"a", "b"})


def test_round_state_three_parameter_toy_aggregation():
    state = _toy_state()
    state.record("a", WeightDelta({"w": np.float32([0.25, 0.5, 1.0])}))
    state.record("b", WeightDelta({"w": np.float32([0.75, -0.5, 0.0])}))
    new_global = state.aggregate()
    # means are exact binary fractions: (0.25+0.75)/2, (0.5-0.5)/2, (1+0)/2
    assert new_global.tensors["w"].tolist() == [1.5, 2.0, 0.0]


def test_round_state_single_client_adopts_local_weights():
    rng = np.random.default_rng(7)
    g = _random_weights(rng)
    local = ModelWeights({
        k: (v.astype(np.float64)
            * (1.0 + rng.uniform(-1 / 3, 1 / 3, size=v.shape))).astype(np.float32)
        for k, v in g.tensors.items()})
    state = RoundState(round=0, global_weights=g, expected_clients={"solo"})
    state.record("solo", compute_delta(local, g))
    assert state.aggregate() == local


def test_round_state_opposite_deltas_leave_global_unchanged():
    state = _toy_state()
    d = np.float32([0.1, -0.2, 0.3])
    state.record("a", WeightDelta({"w": d}))
    state.record("b", WeightDelta({"w": -d}))
    assert state.aggregate() == ModelWeights({"w": np.float32([1.0, 2.0, -0.5])})


def test_round_state_guards():
    # which delta a round takes is the aggregator's decision; the state
    # only tells it who still owes one, and keeps each delta's window count
    g = ModelWeights({"w": np.float32([1.0, 2.0, -0.5])})
    with pytest.raises(ProtocolError):
        RoundState(round=0, global_weights=g, expected_clients=set())
    state = _toy_state()
    assert state.owes("a") and state.owes("b") and not state.owes("stranger")
    assert state.missing == ["a", "b"] and not state.complete()
    state.record("a", WeightDelta({"w": np.float32([0, 0, 0])}), windows_trained=64)
    assert not state.owes("a") and state.owes("b") and state.missing == ["b"]
    state.record("b", WeightDelta({"w": np.float32([0, 0, 0])}), windows_trained=32)
    assert state.complete() and state.missing == []
    assert {cid: w for cid, (_, w) in state.received.items()} == {"a": 64, "b": 32}


@pytest.mark.parametrize("tensors", [
    {"w": np.float32([0.0, np.nan, 0.0])},
    {"w": np.float32([np.inf, 0.0, 0.0])},
    {"w": np.float32([0.0, 0.0])},
    {"v": np.float32([0.0, 0.0, 0.0])},
    {"w": np.float32([0.0, 0.0, 0.0]), "extra": np.float32([0.0])},
], ids=["nan", "inf", "shape", "name", "extra-tensor"])
def test_round_state_rejects_unusable_delta(tensors):
    state = _toy_state()
    with pytest.raises(ProtocolError, match="'a'"):
        state.record("a", WeightDelta(tensors))
    assert state.missing == ["a", "b"]


# -- wire codec --------------------------------------------------------------

def test_wire_round_trip_all_message_types():
    rng = np.random.default_rng(8)
    w = _random_weights(rng)
    delta = WeightDelta(_random_weights(rng).tensors, base_round=4)
    examples = {
        Register: Register(client_id="bearing-β2"),
        GlobalModel: GlobalModel(round=9, weights=w),
        DeltaSubmission: DeltaSubmission(client_id="n1", round=4, delta=delta,
                                         windows_trained=640),
        Error: Error(code=2, text="round 3: no delta from ['n2'] within 60s"),
    }
    for cls in MESSAGE_TYPES:  # a type without an example fails here
        msg = examples[cls]
        back = decode_frame(encode_frame(msg))
        assert back == msg
    ds = decode_frame(encode_frame(examples[DeltaSubmission]))
    assert ds.delta.base_round == 4 and ds.windows_trained == 640


def test_wire_retired_type_code_is_unknown():
    assert 4 not in MESSAGE_TYPES.values()
    with pytest.raises(WireError, match="unknown message type 4"):
        decode_frame(MAGIC + struct.pack("<BBQ", VERSION, 4, 0))


def test_wire_round_trip_many_random_weight_sets():
    rng = np.random.default_rng(9)
    for trial in range(100):
        n_tensors = int(rng.integers(1, 6))
        spec = []
        for t in range(n_tensors):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
            spec.append((f"t{trial}.{t}", shape))
        w = _random_weights(rng, spec=tuple(spec))
        back = decode_frame(encode_frame(GlobalModel(round=trial, weights=w)))
        assert back.weights == w


def test_wire_size_formula_exact():
    rng = np.random.default_rng(10)
    w = _random_weights(rng)
    manual = 4
    for name, arr in w.tensors.items():
        manual += 2 + len(name.encode("utf-8")) + 1 + 8 * arr.ndim + 4 * arr.size
    assert weights_payload_size(w.tensors) == manual
    frame = encode_frame(GlobalModel(round=0, weights=w))
    assert len(frame) == HEADER_SIZE + 8 + manual
    sub = encode_frame(DeltaSubmission(
        client_id="n1", round=0,
        delta=WeightDelta(w.tensors), windows_trained=5))
    assert len(sub) == HEADER_SIZE + 2 + len(b"n1") + 8 + 8 + manual


def test_wire_size_independent_of_values():
    rng = np.random.default_rng(11)
    a = encode_frame(GlobalModel(round=0, weights=_random_weights(rng)))
    b = encode_frame(GlobalModel(round=7, weights=_random_weights(rng)))
    assert len(a) == len(b)


def test_wire_truncation_every_prefix_errors():
    rng = np.random.default_rng(12)
    frame = encode_frame(GlobalModel(round=1, weights=_random_weights(
        rng, spec=(("w", (2, 3)), ("b", (3,))))))
    for cut in range(len(frame)):
        with pytest.raises(WireError):
            decode_frame(frame[:cut])


def test_wire_corruption_detected():
    rng = np.random.default_rng(13)
    frame = bytearray(encode_frame(GlobalModel(round=1, weights=_random_weights(rng))))

    bad_magic = bytes(frame)
    with pytest.raises(WireError) as err:
        decode_frame(b"XXXX" + bad_magic[4:])
    assert "magic" in str(err.value)

    with pytest.raises(WireError) as err:
        decode_frame(bytes(frame[:4]) + b"\x09" + bytes(frame[5:]))
    assert "version" in str(err.value)

    with pytest.raises(WireError) as err:
        decode_frame(bytes(frame[:5]) + b"\x63" + bytes(frame[6:]))
    assert "type" in str(err.value)

    with pytest.raises(WireError) as err:
        decode_frame(bytes(frame) + b"\x00")  # length field disagrees
    assert "length" in str(err.value)

    with pytest.raises(WireError) as err:
        decode_frame(MAGIC)
    assert err.value.offset is not None


def test_wire_duplicate_tensor_name_rejected():
    w = ModelWeights({"x": np.float32([1.0])})
    frame = bytearray(encode_frame(GlobalModel(round=0, weights=w)))
    # splice the single-tensor block in twice and fix the counters
    payload = bytes(frame[HEADER_SIZE:])
    block = payload[8 + 4:]  # after round and tensor count
    doubled = payload[:8] + (2).to_bytes(4, "little") + block + block
    header = MAGIC + bytes([1, 2]) + len(doubled).to_bytes(8, "little")
    with pytest.raises(WireError) as err:
        decode_frame(header + doubled)
    assert "duplicate" in str(err.value)


def test_wire_absurd_tensor_size_rejected():
    w = ModelWeights({"x": np.float32([1.0])})
    frame = bytearray(encode_frame(GlobalModel(round=0, weights=w)))
    # the tensor's single dim sits 8+4+2+1+1 bytes into the payload
    dim_at = HEADER_SIZE + 8 + 4 + 2 + 1 + 1
    frame[dim_at:dim_at + 8] = (1 << 40).to_bytes(8, "little")
    with pytest.raises(WireError) as err:
        decode_frame(bytes(frame))
    assert "claims" in str(err.value)
    assert err.value.offset is not None


def test_wire_empty_tensor_with_a_huge_dim_rejected():
    # zero values fit any payload, but numpy cannot shape (0, 2**63)
    w = ModelWeights({"x": np.zeros((0, 1), dtype=np.float32)})
    frame = bytearray(encode_frame(GlobalModel(round=0, weights=w)))
    dim_at = HEADER_SIZE + 8 + 4 + 2 + 1 + 1 + 8  # the tensor's second dim
    frame[dim_at:dim_at + 8] = (1 << 63).to_bytes(8, "little")
    with pytest.raises(WireError) as err:
        decode_frame(bytes(frame))
    assert "shape" in str(err.value)
    assert err.value.offset is not None


def test_wire_error_offsets_point_into_frame():
    rng = np.random.default_rng(14)
    frame = encode_frame(GlobalModel(round=1, weights=_random_weights(rng)))
    with pytest.raises(WireError) as err:
        decode_frame(frame[:HEADER_SIZE + 10] +
                     frame[HEADER_SIZE + 10:HEADER_SIZE + 11])
    assert err.value.offset is not None
    assert 0 <= err.value.offset <= len(frame)


def test_take_frame_from_stream():
    rng = np.random.default_rng(15)
    msgs = [Register(client_id="a"), GlobalModel(round=0, weights=_random_weights(rng)),
            Error(code=3, text="")]
    stream = b"".join(encode_frame(m) for m in msgs)
    for chunk in (1, 7, HEADER_SIZE, 100, len(stream)):
        buf, seen = bytearray(), []
        for at in range(0, len(stream), chunk):
            buf += stream[at:at + chunk]
            while (frame := take_frame(buf)) is not None:
                seen.append(decode_frame(frame))
        assert seen == msgs and not buf


def _endpoint_reading(data):
    """The receiving endpoint of a socket pair whose peer sent ``data`` and
    closed."""
    ours, theirs = socket.socketpair()
    theirs.sendall(data)
    theirs.close()
    return SocketEndpoint(ours)


def test_take_frame_partial_stream_errors():
    frame = encode_frame(Register(client_id="abc"))
    for partial in (frame[:7], frame[:-2]):  # mid-header, mid-payload
        buf = bytearray(partial)
        assert take_frame(buf) is None and buf == partial  # waits for the rest
        endpoint = _endpoint_reading(partial)
        with pytest.raises(WireError, match="closed mid-frame"):
            endpoint.recv(timeout=5.0)
        endpoint.close()
    endpoint = _endpoint_reading(frame)
    assert endpoint.recv(timeout=5.0) == Register(client_id="abc")
    assert endpoint.recv(timeout=5.0) is None  # clean close between frames
    endpoint.close()


def test_take_frame_bounds_payload_from_the_header():
    weights = _random_weights(np.random.default_rng(16))
    bound = max_payload_size(weights.tensors)

    # the largest legal frame, a delta under a maximal client id, fits exactly
    largest = encode_frame(DeltaSubmission(
        client_id="x" * MAX_NAME_LEN, round=0,
        delta=WeightDelta(weights.tensors, base_round=0)))
    assert len(largest) == HEADER_SIZE + bound
    assert take_frame(bytearray(largest), bound) == largest

    # refused from the header alone, before any payload byte has arrived
    header = MAGIC + struct.pack("<BBQ", VERSION, MSG_DELTA_SUBMISSION, 2**40)
    with pytest.raises(WireError, match="limit"):
        take_frame(bytearray(header), bound)
    with pytest.raises(WireError, match="magic"):
        take_frame(bytearray(b"XXXX" + header[4:]), bound)


# -- privacy schema ----------------------------------------------------------

def test_message_schema_carries_no_sample_fields():
    """No message variant has a field that could hold raw measurements:
    only identifiers, counters, weight containers, and error text."""
    allowed = {str, int, ModelWeights, WeightDelta}
    for cls in MESSAGE_TYPES:
        for f in dataclasses.fields(cls):
            assert f.type in {t.__name__ for t in allowed} or f.type in allowed, \
                f"{cls.__name__}.{f.name} has unexpected type {f.type!r}"
            assert f.name not in {"samples", "batch", "batches", "dataset",
                                  "windows", "data", "values"}
