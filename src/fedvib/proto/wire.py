"""Binary wire codec for the federation protocol.

Frame layout (all integers little-endian)::

    magic "FVW1" (4 bytes) | version u8 | msg_type u8 | payload_len u64 | payload

Weight blocks inside payloads::

    tensor_count u32
    per tensor: name_len u16 | name utf-8 | rank u8 | dims u64 each | values f32

so a block costs ``4 + sum(2 + len(name) + 1 + 8*rank + 4*numel)`` bytes —
a constant for a fixed model layout, independent of any dataset.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import WireError
from .weights import ModelWeights, WeightDelta

MAGIC = b"FVW1"
VERSION = 1
HEADER_SIZE = 14  # magic + version + msg_type + payload_len

MSG_REGISTER = 1
MSG_GLOBAL_MODEL = 2
MSG_DELTA_SUBMISSION = 3
MSG_ERROR = 5  # 4 stays unassigned: an old peer's acknowledgement must not decode

# Error message codes
ERR_DUPLICATE_ID = 1
ERR_ROUND_ABORT = 2
ERR_PROTOCOL = 3

MAX_NAME_LEN = 0xFFFF
MAX_RANK = 0xFF


@dataclass(frozen=True)
class Register:
    client_id: str


@dataclass(frozen=True)
class GlobalModel:
    round: int
    weights: ModelWeights


@dataclass(frozen=True)
class DeltaSubmission:
    client_id: str
    round: int
    delta: WeightDelta
    windows_trained: int = 0


@dataclass(frozen=True)
class Error:
    code: int
    text: str


# The full message vocabulary: no variant has a field that could carry raw
# measurement samples; only weights/deltas, identifiers, and counters travel.
MESSAGE_TYPES = {
    Register: MSG_REGISTER,
    GlobalModel: MSG_GLOBAL_MODEL,
    DeltaSubmission: MSG_DELTA_SUBMISSION,
    Error: MSG_ERROR,
}


def weights_payload_size(tensors):
    """Exact byte size of a weight block for a name->array mapping."""
    total = 4
    for name, arr in tensors.items():
        total += 2 + len(name.encode("utf-8")) + 1 + 8 * arr.ndim + 4 * arr.size
    return total


def max_payload_size(tensors):
    """Largest legal payload for a model layout: a DeltaSubmission under the
    longest client id, which also bounds every other message type."""
    return 2 + MAX_NAME_LEN + 8 + 8 + weights_payload_size(tensors)


# -- encoding ----------------------------------------------------------------

def _encode_str(out, s):
    raw = s.encode("utf-8")
    if len(raw) > MAX_NAME_LEN:
        raise WireError(f"string too long for wire ({len(raw)} bytes)")
    out.append(struct.pack("<H", len(raw)))
    out.append(raw)


def _encode_weight_block(out, tensors):
    out.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        _encode_str(out, name)
        if arr.ndim > MAX_RANK:
            raise WireError(f"tensor {name!r} rank {arr.ndim} exceeds wire limit")
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def encode_frame(message):
    """Serialize one message dataclass into a complete wire frame."""
    msg_type = MESSAGE_TYPES.get(type(message))
    if msg_type is None:
        raise WireError(f"cannot encode object of type {type(message).__name__}")
    parts = []
    if msg_type == MSG_REGISTER:
        _encode_str(parts, message.client_id)
    elif msg_type == MSG_GLOBAL_MODEL:
        if message.round < 0:
            raise WireError(f"round must be >= 0, got {message.round}")
        parts.append(struct.pack("<Q", message.round))
        _encode_weight_block(parts, message.weights.tensors)
    elif msg_type == MSG_DELTA_SUBMISSION:
        if message.round < 0 or message.windows_trained < 0:
            raise WireError("round and windows_trained must be >= 0")
        _encode_str(parts, message.client_id)
        parts.append(struct.pack("<QQ", message.round, message.windows_trained))
        _encode_weight_block(parts, message.delta.tensors)
    elif msg_type == MSG_ERROR:
        parts.append(struct.pack("<H", message.code))
        _encode_str(parts, message.text)
    payload = b"".join(parts)
    header = MAGIC + struct.pack("<BBQ", VERSION, msg_type, len(payload))
    return header + payload


# -- decoding ----------------------------------------------------------------

@dataclass
class _Reader:
    """Bounds-checked cursor over a frame; offsets are absolute frame bytes.
    ``data`` is a memoryview, so each ``take`` slices without copying."""

    data: memoryview
    offset: int = 0
    base: int = 0  # added to offsets in error messages

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise WireError(f"truncated while reading {what} "
                            f"(needed {n} bytes, {len(self.data) - self.offset} left)",
                            offset=self.base + self.offset)
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u8(self, what):
        return self.take(1, what)[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def string(self, what):
        n = self.u16(f"{what} length")
        raw = self.take(n, what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise WireError(f"bad utf-8 in {what}: {e}",
                            offset=self.base + self.offset - n) from None


def _decode_weight_block(r, build):
    """Read one weight block and return ``build(tensors)``; a block the
    container refuses (no tensors, an empty name) is a WireError."""
    count = r.u32("tensor count")
    tensors = {}
    for i in range(count):
        name = r.string(f"tensor {i} name")
        if name in tensors:
            raise WireError(f"duplicate tensor name {name!r}", offset=r.base + r.offset)
        rank = r.u8(f"tensor {name!r} rank")
        if rank < 1:
            raise WireError(f"tensor {name!r} has rank 0", offset=r.base + r.offset)
        shape = struct.unpack(f"<{rank}Q", r.take(8 * rank, f"tensor {name!r} dims"))
        numel = 1
        for d in shape:
            numel *= d
        if 4 * numel > len(r.data) - r.offset:
            raise WireError(f"tensor {name!r} claims {numel} values but only "
                            f"{(len(r.data) - r.offset) // 4} fit in the payload",
                            offset=r.base + r.offset)
        raw = r.take(4 * numel, f"tensor {name!r} values")
        try:
            # a view into the frame; the container copies it to float32 once
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        except ValueError as e:  # an empty tensor with a dim numpy cannot hold
            raise WireError(f"tensor {name!r} has unusable shape {shape}: {e}",
                            offset=r.base + r.offset) from None
    try:
        return build(tensors)
    except Exception as e:
        raise WireError(f"invalid weight block: {e}", offset=r.base) from None


def decode_frame(data):
    """Parse one complete frame into a message dataclass.

    Raises WireError (with the byte offset of the problem) on any magic,
    version, type, length, or payload defect; never raises anything else on
    malformed input.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(f"frame shorter than the {HEADER_SIZE}-byte header",
                        offset=len(data))
    if data[:4] != MAGIC:
        raise WireError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    version, msg_type = data[4], data[5]
    if version != VERSION:
        raise WireError(f"unsupported version {version}, expected {VERSION}", offset=4)
    (payload_len,) = struct.unpack("<Q", data[6:14])
    if len(data) - HEADER_SIZE != payload_len:
        raise WireError(f"payload length field says {payload_len} bytes but "
                        f"{len(data) - HEADER_SIZE} are present", offset=6)
    r = _Reader(memoryview(data)[HEADER_SIZE:], base=HEADER_SIZE)

    if msg_type == MSG_REGISTER:
        msg = Register(client_id=r.string("client_id"))
    elif msg_type == MSG_GLOBAL_MODEL:
        rnd = r.u64("round")
        msg = GlobalModel(round=rnd, weights=_decode_weight_block(r, ModelWeights))
    elif msg_type == MSG_DELTA_SUBMISSION:
        client_id = r.string("client_id")
        rnd = r.u64("round")
        windows = r.u64("windows_trained")
        delta = _decode_weight_block(r, lambda t: WeightDelta(t, base_round=rnd))
        msg = DeltaSubmission(client_id=client_id, round=rnd, delta=delta,
                              windows_trained=windows)
    elif msg_type == MSG_ERROR:
        code = r.u16("error code")
        msg = Error(code=code, text=r.string("error text"))
    else:
        raise WireError(f"unknown message type {msg_type}", offset=5)

    if r.offset != len(r.data):
        raise WireError(f"{len(r.data) - r.offset} unread bytes after payload",
                        offset=r.base + r.offset)
    return msg


def take_frame(buf, max_payload=None):
    """Cut the first whole frame off the front of ``buf`` (a bytearray) and
    return its bytes, or None while it is incomplete.  A header with bad
    magic, or one announcing more than ``max_payload`` bytes, raises
    WireError as soon as it is in, before any of the payload is awaited."""
    if len(buf) < HEADER_SIZE:
        return None
    if buf[:4] != MAGIC:
        raise WireError(f"bad magic {bytes(buf[:4])!r}, expected {MAGIC!r}", offset=0)
    (payload_len,) = struct.unpack_from("<Q", buf, 6)
    if max_payload is not None and payload_len > max_payload:
        raise WireError(f"payload length {payload_len} exceeds the "
                        f"{max_payload}-byte limit", offset=6)
    size = HEADER_SIZE + payload_len
    if len(buf) < size:
        return None
    frame = bytes(buf[:size])
    del buf[:size]
    return frame
