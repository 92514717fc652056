"""Protocol-layer tests: weight containers, FedAvg algebra, wire codec,
and round-state bookkeeping."""

import dataclasses
import struct

import numpy as np
import pytest

from fedvib.errors import ConfigError, ProtocolError, ShapeError, WireError
from fedvib.proto import (
    Ack,
    DeltaSubmission,
    Error,
    GlobalModel,
    ModelWeights,
    Register,
    RoundState,
    WeightDelta,
    apply_delta,
    compute_delta,
    decode_frame,
    encode_frame,
    fedavg,
    weights_payload_size,
)
from fedvib.proto.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_NAME_LEN,
    MSG_DELTA_SUBMISSION,
    VERSION,
    max_payload_size,
    read_frame,
)


def _random_weights(rng, spec=(("a.W", (3, 2)), ("a.b", (4,)), ("out", (2, 2, 2)))):
    return ModelWeights({name: rng.normal(size=shape).astype(np.float32)
                         for name, shape in spec})


# -- containers --------------------------------------------------------------

def test_model_weights_coerce_copy_and_count():
    src = np.ones((2, 2), dtype=np.float64)
    w = ModelWeights({"x": src, "y": np.zeros(3, dtype=np.float32)})
    assert w.tensors["x"].dtype == np.float32
    assert w.parameter_count == 7
    src[0, 0] = 99.0  # the container must own its arrays
    assert w.tensors["x"][0, 0] == 1.0
    c = w.copy()
    c.tensors["y"][0] = 5.0
    assert w.tensors["y"][0] == 0.0


def test_model_weights_validation_and_equality():
    with pytest.raises(ConfigError):
        ModelWeights({})
    with pytest.raises(ConfigError):
        ModelWeights({"": np.ones(1, dtype=np.float32)})
    a = ModelWeights({"x": np.float32([1, 2])})
    b = ModelWeights({"x": np.float32([1, 2])})
    c = ModelWeights({"x": np.float32([1, 3])})
    assert a == b and a != c


def test_fingerprint_tracks_content():
    rng = np.random.default_rng(0)
    w = _random_weights(rng)
    same = ModelWeights({k: v.copy() for k, v in w.tensors.items()})
    assert w.fingerprint == same.fingerprint
    bumped = w.copy()
    bumped.tensors["a.b"][0] += np.float32(1e-6)
    assert w.fingerprint != bumped.fingerprint
    renamed = ModelWeights({("z" if k == "out" else k): v
                            for k, v in w.tensors.items()})
    assert w.fingerprint != renamed.fingerprint


def test_weight_delta_validation():
    with pytest.raises(ConfigError):
        WeightDelta({"x": np.float32([1.0])}, base_round=-1)
    d = WeightDelta({"x": np.float32([1.0])}, base_round=3)
    assert d.base_round == 3 and d.parameter_count == 1


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
    b = WeightDelta({"x": np.float32([1.0])}, base_round=1)
    with pytest.raises(ConfigError):
        fedavg([a, b])
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
    assert state.status == "aggregated"
    state.mark_distributed()
    assert state.status == "distributed"


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
    state = _toy_state()
    with pytest.raises(ProtocolError):
        state.aggregate()  # premature: nothing received
    with pytest.raises(ProtocolError):
        state.record("stranger", WeightDelta({"w": np.float32([0, 0, 0])}))
    state.record("a", WeightDelta({"w": np.float32([0, 0, 0])}))
    with pytest.raises(ProtocolError):
        state.record("a", WeightDelta({"w": np.float32([0, 0, 0])}))  # duplicate
    with pytest.raises(ProtocolError):
        state.record("b", WeightDelta({"w": np.float32([0, 0, 0])}, base_round=5))
    with pytest.raises(ProtocolError):
        state.mark_distributed()  # not aggregated yet
    state.record("b", WeightDelta({"w": np.float32([0, 0, 0])}))
    assert state.missing == []
    state.aggregate()
    with pytest.raises(ProtocolError):
        state.record("a", WeightDelta({"w": np.float32([0, 0, 0])}))
    with pytest.raises(ProtocolError):
        state.aggregate()  # forward-only


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
    messages = [
        Register(client_id="bearing-β2"),
        GlobalModel(round=9, weights=w),
        DeltaSubmission(client_id="n1", round=4, delta=delta, windows_trained=640),
        Ack(),
        Error(code=2, text="round 3: no delta from ['n2'] within 60s"),
    ]
    for msg in messages:
        back = decode_frame(encode_frame(msg))
        assert back == msg
    gm = decode_frame(encode_frame(GlobalModel(round=9, weights=w)))
    assert gm.weights.fingerprint == w.fingerprint
    ds = decode_frame(encode_frame(messages[2]))
    assert ds.delta.base_round == 4 and ds.windows_trained == 640


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
        assert back.weights.fingerprint == w.fingerprint


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


def test_wire_error_offsets_point_into_frame():
    rng = np.random.default_rng(14)
    frame = encode_frame(GlobalModel(round=1, weights=_random_weights(rng)))
    with pytest.raises(WireError) as err:
        decode_frame(frame[:HEADER_SIZE + 10] +
                     frame[HEADER_SIZE + 10:HEADER_SIZE + 11])
    assert err.value.offset is not None
    assert 0 <= err.value.offset <= len(frame)


def test_read_frame_from_stream():
    rng = np.random.default_rng(15)
    msgs = [Register(client_id="a"), GlobalModel(round=0, weights=_random_weights(rng)),
            Ack()]
    stream = b"".join(encode_frame(m) for m in msgs)
    pos = [0]

    def read(n):
        chunk = stream[pos[0]:pos[0] + n]
        pos[0] += len(chunk)
        return chunk

    seen = []
    while True:
        frame = read_frame(read)
        if frame is None:
            break
        seen.append(decode_frame(frame))
    assert seen == msgs


def test_read_frame_partial_stream_errors():
    frame = encode_frame(Register(client_id="abc"))

    def reader_of(data):
        pos = [0]

        def read(n):
            chunk = data[pos[0]:pos[0] + n]
            pos[0] += len(chunk)
            return chunk
        return read

    with pytest.raises(WireError):
        read_frame(reader_of(frame[:7]))   # mid-header
    with pytest.raises(WireError):
        read_frame(reader_of(frame[:-2]))  # mid-payload
    assert read_frame(reader_of(b"")) is None


def test_read_frame_bounds_payload_from_the_header():
    weights = _random_weights(np.random.default_rng(16))
    bound = max_payload_size(weights.tensors)
    requested = []

    def reader_of(data):
        pos = [0]

        def read(n):
            requested.append(n)
            chunk = data[pos[0]:pos[0] + n]
            pos[0] += len(chunk)
            return chunk
        return read

    # the largest legal frame, a delta under a maximal client id, fits exactly
    largest = encode_frame(DeltaSubmission(
        client_id="x" * MAX_NAME_LEN, round=0,
        delta=WeightDelta(weights.tensors, base_round=0)))
    assert len(largest) == HEADER_SIZE + bound
    assert read_frame(reader_of(largest), bound) == largest

    requested.clear()
    header = MAGIC + struct.pack("<BBQ", VERSION, MSG_DELTA_SUBMISSION, 2**40)
    with pytest.raises(WireError, match="limit"):
        read_frame(reader_of(header + b"\0" * 64), bound)
    assert max(requested) <= bound


# -- privacy schema ----------------------------------------------------------

def test_message_schema_carries_no_sample_fields():
    """No message variant has a field that could hold raw measurements:
    only identifiers, counters, weight containers, and error text."""
    allowed = {str, int, ModelWeights, WeightDelta}
    for cls in (Register, GlobalModel, DeltaSubmission, Ack, Error):
        for f in dataclasses.fields(cls):
            assert f.type in {t.__name__ for t in allowed} or f.type in allowed, \
                f"{cls.__name__}.{f.name} has unexpected type {f.type!r}"
            assert f.name not in {"samples", "batch", "batches", "dataset",
                                  "windows", "data", "values"}
