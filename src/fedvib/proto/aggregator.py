"""Aggregation-node lifecycle: registration, synchronous rounds, FedAvg.

Structure: the thread in ``run`` serves every connection alone, through one
selector over the listener and every accepted endpoint.  It reads a
connection only once the socket is readable and the frames read before have
all been applied, with a read that does not wait; so a peer's frames that
it has not read stay in that peer's socket, held back by flow control, and a
peer that sends half a frame blocks no one.  The registry holds the clients
registered and still connected.

Round protocol: once the expected clients have registered, the coordinator
sends every registered client the round-0 global model.  Round r's
participants are the clients registered when it begins, each holding the
round-r model.  The coordinator collects one delta per participant,
averages them in sorted client id order, applies the mean to the global
model, and sends the round-r+1 model to every registered client.  So a
client only ever holds the model of a round it takes part in: one that
registers mid-round receives nothing until the broadcast ending that round,
and takes part from the next.  A delta from a client that owes none to the
round in flight (registration is still open, it joined mid-round, or it has
already submitted) is a protocol error: the client gets an ERR_PROTOCOL
Error frame and its connection closes.  A delta for another round from a
client that still owes this round's earns the Error too, but the client
keeps its connection for the delta it owes.  An Error to one client does
not wait: a client that cannot take it at once is not reading.  A
broadcast waits at most ``round_timeout_s`` in all.  A client whose
connection closes or breaks, or whose send fails or times out, leaves the
registry; one that does not read cannot read an Error either, so it only
gets the close.  The round aborts, with no partial aggregation, if a
participant leaves before submitting, a delta is missing at the timeout, a
delta's tensor names or shapes differ from the global model's or it holds a
non-finite value, or the new global model would hold one.  A run that
watches its clients' processes (``run``'s ``sentinels``) aborts as soon as
one of them ends, registered or not.  Every FedvibError leaving ``run``
first reaches each registered client as an ERR_ROUND_ABORT Error frame.
"""

import selectors
import time
from dataclasses import dataclass, field

from ..errors import (
    FedvibError,
    NumericsError,
    ProtocolError,
    RoundAbortError,
    ShapeError,
    TransportError,
    WireError,
)
from ..nn.ops import check_finite, check_layout
from .weights import apply_delta, fedavg
from .wire import (
    ERR_DUPLICATE_ID,
    ERR_PROTOCOL,
    ERR_ROUND_ABORT,
    DeltaSubmission,
    Error,
    GlobalModel,
    Register,
    max_payload_size,
)

# Default wait for one round's deltas; a node's default wait is 60 s longer
ROUND_TIMEOUT_S = 3600.0


@dataclass
class RoundState:
    """What one round collects: each participant's delta and window count.

    The aggregator records only a delta the round is owed; ``record``
    checks no more than that the delta fits the global model.
    """

    round: int
    global_weights: object  # ModelWeights
    expected_clients: frozenset
    received: dict = field(default_factory=dict)  # client id -> (delta, windows trained)

    def __post_init__(self):
        self.expected_clients = frozenset(self.expected_clients)
        if not self.expected_clients:
            raise ProtocolError("a round needs at least one expected client")

    def owes(self, client_id):
        return client_id in self.expected_clients and client_id not in self.received

    def record(self, client_id, delta, windows_trained=0):
        try:
            check_layout(self.global_weights.tensors, delta.tensors, "delta")
            check_finite(delta.tensors, context="delta")
        except (ShapeError, NumericsError) as e:
            raise RoundAbortError(f"round {self.round}: client {client_id!r} "
                                  f"sent an unusable delta: {e}") from None
        self.received[client_id] = (delta, windows_trained)

    @property
    def missing(self):
        return sorted(self.expected_clients - set(self.received))

    def complete(self):
        return set(self.received) == set(self.expected_clients)

    def aggregate(self):
        """FedAvg the collected deltas into the next global model."""
        ordered = [self.received[cid][0] for cid in sorted(self.received)]
        new_global = apply_delta(self.global_weights, fedavg(ordered))
        try:  # finite deltas can still overflow float32 when applied
            check_finite(new_global.tensors, context="the new global model")
        except NumericsError as e:
            raise RoundAbortError(f"round {self.round}: {e}") from None
        return new_global


@dataclass
class RoundRecord:
    """Transport-level accounting for one aggregation round.

    Byte counters cover everything on the aggregator's accepted endpoints
    since the previous record, so round 0 also includes session setup
    traffic (registrations and the round-0 global model); summing the
    records reproduces the endpoint totals exactly.
    """

    round: int
    client_ids: list
    windows_trained: dict
    bytes_sent: int
    bytes_received: int
    duration_s: float


class AggregationNode:
    """Synchronous-barrier FedAvg coordinator."""

    def __init__(self, global_weights, expected_clients, rounds,
                 registration_timeout_s=60.0, round_timeout_s=ROUND_TIMEOUT_S):
        if expected_clients < 1:
            raise ProtocolError("need at least one expected client")
        if rounds < 0:
            raise ProtocolError(f"rounds must be >= 0, got {rounds}")
        self.global_weights = global_weights
        self.expected_clients = expected_clients
        self.rounds = rounds
        self.registration_timeout_s = registration_timeout_s
        self.round_timeout_s = round_timeout_s
        self.records = []
        self._clients = {}       # endpoint -> client id, registered and connected
        self._endpoints = []     # every accepted endpoint, for bytes and shutdown
        self._sent_base = 0      # bytes already attributed to earlier records
        self._recv_base = 0
        self._sel = None         # selector over the listener and open endpoints

    # -- plumbing ------------------------------------------------------------

    def _accept(self, listener, state):
        try:
            conn = listener.accept(timeout=0)
        except TransportError:  # the connection went away before its accept
            return
        if conn is not None:  # None: the listener closed
            conn.max_payload = max_payload_size(self.global_weights.tensors)
            self._endpoints.append(conn)
            self._sel.register(conn, selectors.EVENT_READ, self._read)

    def _read(self, conn, state):
        """Read ``conn`` once and apply every message that read completed."""
        try:
            conn.read(timeout=0)
            while not conn.closed and conn.ready():
                self._handle(conn, conn.recv(), state)
        except WireError as e:
            self._reject(conn, state, ERR_PROTOCOL, str(e))
        except TransportError as e:
            self._drop(conn, state, e)

    def _ended(self, sentinel, state):
        raise FedvibError(f"a client process ended while {len(self._clients)} of "
                          f"{self.expected_clients} clients were registered")

    def _send(self, conn, msg, state, timeout_s=0.0):
        try:
            conn.send(msg, timeout=timeout_s)
        except TransportError as e:
            self._drop(conn, state, e)

    def _broadcast(self, msg):
        deadline = time.monotonic() + self.round_timeout_s
        for conn, _ in sorted(self._clients.items(), key=lambda item: item[1]):
            self._send(conn, msg, None, max(0.0, deadline - time.monotonic()))

    def _reject(self, conn, state, code, text):
        self._send(conn, Error(code=code, text=text), state)
        self._drop(conn, state, text)

    def _drop(self, conn, state, reason):
        """Close a connection and forget its client; abort if it owes a delta."""
        if not conn.closed:
            self._sel.unregister(conn)
            conn.close()
        cid = self._clients.pop(conn, None)
        if state is not None and state.owes(cid):
            raise RoundAbortError(f"round {state.round}: client {cid!r} "
                                  f"disconnected before submitting ({reason})")

    def _shutdown(self, listener):
        self._sel.close()
        listener.close()
        for conn in self._endpoints:
            conn.close()

    # -- events --------------------------------------------------------------

    def _serve(self, state, done, timeout_s, waiting_for):
        """Apply messages until ``done()``; abort once ``timeout_s`` passes."""
        deadline = time.monotonic() + timeout_s
        while not done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RoundAbortError(f"{waiting_for()} within {timeout_s}s")
            for key, _ in self._sel.select(remaining):
                if done():  # the rest stays readable for the next phase
                    break
                key.data(key.fileobj, state)

    def _handle(self, conn, msg, state):
        """Apply one message, None for a close; ``state`` is the round in
        flight, or None while clients register."""
        cid = self._clients.get(conn)
        if msg is None:
            self._drop(conn, state, "connection closed")
        elif cid is None and not isinstance(msg, Register):
            self._reject(conn, state, ERR_PROTOCOL,
                         f"expected Register, got {type(msg).__name__}")
        elif cid is None and msg.client_id in self._clients.values():
            self._reject(conn, state, ERR_DUPLICATE_ID,
                         f"client id {msg.client_id!r} already registered")
        elif cid is None:  # takes part from the next round that begins
            self._clients[conn] = msg.client_id
        elif not isinstance(msg, DeltaSubmission):
            self._send(conn, Error(code=ERR_PROTOCOL,
                                   text=f"unexpected {type(msg).__name__} on the "
                                        f"connection registered as {cid!r}"), state)
        elif msg.client_id != cid:
            self._send(conn, Error(code=ERR_PROTOCOL,
                                   text=f"submission claims {msg.client_id!r} "
                                        f"but the connection registered {cid!r}"), state)
        elif state is None or not state.owes(cid):
            self._reject(conn, state, ERR_PROTOCOL,
                         f"delta from {cid!r}, which owes none to a round in flight")
        elif msg.round != state.round:
            self._send(conn, Error(code=ERR_PROTOCOL,
                                   text=f"delta for round {msg.round} from {cid!r} "
                                        f"during round {state.round}"), state)
        else:
            state.record(cid, msg.delta, msg.windows_trained)

    # -- lifecycle -----------------------------------------------------------

    def run(self, listener, sentinels=()):
        """Serve one full federation; returns the per-round records.

        ``sentinels`` are file descriptors that become readable when a
        client's process ends, such as ``Process.sentinel``; the federation
        aborts as soon as one does.  This catches a client that dies before
        it registers, which no connection of its own would show.
        """
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ, self._accept)
        for sentinel in sentinels:
            self._sel.register(sentinel, selectors.EVENT_READ, self._ended)
        try:
            self._serve(None, lambda: len(self._clients) >= self.expected_clients,
                        self.registration_timeout_s,
                        lambda: (f"only {len(self._clients)} of "
                                 f"{self.expected_clients} clients registered"))
            self._broadcast(GlobalModel(round=0, weights=self.global_weights))
            for r in range(self.rounds):
                self._run_round(r)
            return self.records
        except FedvibError as e:
            self._broadcast(Error(code=ERR_ROUND_ABORT, text=str(e)))
            raise
        finally:
            self._shutdown(listener)

    def _run_round(self, r):
        t0 = time.monotonic()
        sent0, recv0 = self._sent_base, self._recv_base
        state = RoundState(round=r, global_weights=self.global_weights,
                           expected_clients=frozenset(self._clients.values()))
        self._serve(state, state.complete, self.round_timeout_s,
                    lambda: f"round {r}: no delta from {state.missing}")
        self.global_weights = state.aggregate()
        self._broadcast(GlobalModel(round=r + 1, weights=self.global_weights))

        sent1 = sum(c.bytes_sent for c in self._endpoints)
        recv1 = sum(c.bytes_received for c in self._endpoints)
        self._sent_base, self._recv_base = sent1, recv1
        self.records.append(RoundRecord(
            round=r,
            client_ids=sorted(state.expected_clients),
            windows_trained={cid: w for cid, (_, w) in state.received.items()},
            bytes_sent=sent1 - sent0,
            bytes_received=recv1 - recv0,
            duration_s=time.monotonic() - t0))
