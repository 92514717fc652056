"""Aggregation-node lifecycle: registration, synchronous rounds, FedAvg.

Structure: an acceptor thread and one reader thread per accepted connection
feed one inbox of events; the coordinator (the thread in ``run``) alone
applies them, through ``_handle``, so it is the only writer of state and
endpoints.  The registry holds the clients registered and still connected.

Round protocol: round r begins with every registered client holding the
round-r global model.  The coordinator collects one delta per participant
(the clients registered when the round began), averages them in sorted
client id order, applies the mean to the global model, and sends the
round-r+1 model to every registered client.  A client registering mid-round
gets the current model at once and takes part from the next round; its
delta for the in-flight round is acknowledged and discarded.  A client
whose connection closes, breaks or fails a send leaves the registry.  The
round aborts, with no partial aggregation, if a participant leaves before
submitting, a delta is missing at the timeout, a delta's tensor names or
shapes differ from the global model's or it holds a non-finite value, or the
new global model would hold one.  Every FedvibError leaving ``run`` first
reaches each registered client as an ERR_ROUND_ABORT Error frame.
"""

import queue
import threading
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
    Ack,
    DeltaSubmission,
    Error,
    GlobalModel,
    Register,
    max_payload_size,
)


@dataclass
class RoundState:
    """Per-round barrier bookkeeping with forward-only status transitions."""

    round: int
    global_weights: object  # ModelWeights
    expected_clients: frozenset
    received: dict = field(default_factory=dict)
    status: str = "collecting"

    def __post_init__(self):
        self.expected_clients = frozenset(self.expected_clients)
        if not self.expected_clients:
            raise ProtocolError("a round needs at least one expected client")

    def record(self, client_id, delta):
        if self.status != "collecting":
            raise ProtocolError(f"round {self.round} is {self.status}, "
                                "not accepting deltas")
        if client_id not in self.expected_clients:
            raise ProtocolError(f"client {client_id!r} is not part of round {self.round}")
        if client_id in self.received:
            raise ProtocolError(f"client {client_id!r} already submitted "
                                f"for round {self.round}")
        if delta.base_round != self.round:
            raise ProtocolError(f"delta base_round {delta.base_round} != "
                                f"round {self.round}")
        try:
            check_layout(self.global_weights.tensors, delta.tensors, "delta")
            check_finite(delta.tensors, context="delta")
        except (ShapeError, NumericsError) as e:
            raise ProtocolError(f"client {client_id!r} sent an unusable "
                                f"delta: {e}") from None
        self.received[client_id] = delta

    @property
    def missing(self):
        return sorted(self.expected_clients - set(self.received))

    def complete(self):
        return set(self.received) == set(self.expected_clients)

    def aggregate(self):
        """FedAvg the collected deltas into the next global model."""
        if self.status != "collecting":
            raise ProtocolError(f"cannot aggregate a round in status {self.status!r}")
        if not self.complete():
            raise ProtocolError(f"round {self.round} incomplete: "
                                f"missing {self.missing}")
        ordered = [self.received[cid] for cid in sorted(self.received)]
        new_global = apply_delta(self.global_weights, fedavg(ordered))
        try:  # finite deltas can still overflow float32 when applied
            check_finite(new_global.tensors, context="the new global model")
        except NumericsError as e:
            raise RoundAbortError(f"round {self.round}: {e}") from None
        self.status = "aggregated"
        return new_global

    def mark_distributed(self):
        if self.status != "aggregated":
            raise ProtocolError(f"cannot distribute from status {self.status!r}")
        self.status = "distributed"


@dataclass
class RoundRecord:
    """Transport-level accounting for one aggregation round.

    Byte counters cover everything on the aggregator's accepted endpoints
    since the previous record, so round 0 also includes session setup
    traffic (registrations and the initial global model); summing the
    records reproduces the endpoint totals exactly.
    """

    round: int
    client_ids: list
    windows_trained: dict
    bytes_sent: int
    bytes_received: int
    duration_s: float
    late_submissions: int = 0


class AggregationNode:
    """Synchronous-barrier FedAvg coordinator."""

    def __init__(self, global_weights, expected_clients, rounds,
                 registration_timeout_s=60.0, round_timeout_s=600.0):
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
        self.current_round = 0
        self._clients = {}       # endpoint -> client id, registered and connected
        self._endpoints = []     # every accepted endpoint, for bytes and shutdown
        self._parked = []        # round-0 delta events sent before registration ended
        self._windows = {}       # client id -> windows trained, this round
        self._late = 0           # submissions outside this round's participants
        self._sent_base = 0      # bytes already attributed to earlier records
        self._recv_base = 0
        self._threads = []
        self._inbox = queue.Queue()
        self._stop = threading.Event()

    # -- plumbing ------------------------------------------------------------

    def _spawn(self, fn, *args):
        t = threading.Thread(target=fn, args=args, daemon=True)
        t.start()
        self._threads.append(t)

    def _acceptor(self, listener):
        while not self._stop.is_set():
            try:
                conn = listener.accept(timeout=0.1)
            except TransportError:
                continue
            if conn is None:
                return
            self._inbox.put(("connect", conn, None))

    def _reader(self, conn):
        """Forward one connection's messages, then ``closed`` with any error."""
        error = None
        try:
            while (msg := conn.recv(timeout=None)) is not None:
                self._inbox.put(("msg", conn, msg))
        except (TransportError, WireError) as e:
            error = e
        self._inbox.put(("closed", conn, error))

    def _send(self, conn, msg, state):
        try:
            conn.send(msg)
        except TransportError as e:
            self._drop(conn, state, e)

    def _broadcast(self, msg):
        for conn, _ in sorted(self._clients.items(), key=lambda item: item[1]):
            self._send(conn, msg, None)

    def _reject(self, conn, state, code, text):
        self._send(conn, Error(code=code, text=text), state)
        self._drop(conn, state, text)

    def _drop(self, conn, state, reason):
        """Close a connection and forget its client; abort if it owes a delta."""
        conn.close()
        cid = self._clients.pop(conn, None)
        self._parked = [ev for ev in self._parked if ev[1] is not conn]
        if (state is not None and cid in state.expected_clients
                and cid not in state.received):
            raise RoundAbortError(f"round {state.round}: client {cid!r} "
                                  f"disconnected before submitting ({reason})")

    def _shutdown(self, listener):
        self._stop.set()
        listener.close()
        self._threads[0].join(timeout=5.0)  # the acceptor: no connect after this
        while not self._inbox.empty():  # connections accepted, never handled
            kind, conn, _ = self._inbox.get_nowait()
            if kind == "connect":
                self._endpoints.append(conn)
        for conn in self._endpoints:
            conn.close()
        for t in self._threads:
            t.join(timeout=5.0)

    # -- events --------------------------------------------------------------

    def _serve(self, state, done, timeout_s, waiting_for):
        """Apply events until ``done()``; abort once ``timeout_s`` passes."""
        deadline = time.monotonic() + timeout_s
        while not done():
            try:
                event = self._inbox.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RoundAbortError(f"{waiting_for()} within {timeout_s}s") from None
            self._handle(event, state)

    def _handle(self, event, state):
        """Apply one event; ``state`` is the round in flight, or None while
        clients register."""
        kind, conn, msg = event
        cid = self._clients.get(conn)
        if kind == "connect":
            conn.max_payload = max_payload_size(self.global_weights.tensors)
            self._endpoints.append(conn)
            self._spawn(self._reader, conn)
        elif kind == "closed" and isinstance(msg, WireError):
            self._reject(conn, state, ERR_PROTOCOL, str(msg))
        elif kind == "closed":
            self._drop(conn, state, msg or "connection closed")
        elif cid is None and not isinstance(msg, Register):
            self._reject(conn, state, ERR_PROTOCOL,
                         f"expected Register, got {type(msg).__name__}")
        elif cid is None and msg.client_id in self._clients.values():
            self._reject(conn, state, ERR_DUPLICATE_ID,
                         f"client id {msg.client_id!r} already registered")
        elif cid is None:  # takes part from the next round
            self._clients[conn] = msg.client_id
            self._send(conn, GlobalModel(round=self.current_round,
                                         weights=self.global_weights), state)
        elif not isinstance(msg, DeltaSubmission):
            self._send(conn, Error(code=ERR_PROTOCOL,
                                   text=f"unexpected {type(msg).__name__} on the "
                                        f"connection registered as {cid!r}"), state)
        elif msg.client_id != cid:
            self._send(conn, Error(code=ERR_PROTOCOL,
                                   text=f"submission claims {msg.client_id!r} "
                                        f"but the connection registered {cid!r}"), state)
        elif state is None:  # raced ahead into round 0 before the last registration
            self._parked.append(event)
        elif cid not in state.expected_clients:  # joined mid-round
            self._late += 1
            self._send(conn, Ack(), state)
        else:
            try:
                state.record(cid, msg.delta)
            except ProtocolError as e:
                raise RoundAbortError(f"round {state.round}: {e}") from None
            self._windows[cid] = msg.windows_trained

    # -- lifecycle -----------------------------------------------------------

    def run(self, listener):
        """Serve one full federation; returns the per-round records."""
        self._spawn(self._acceptor, listener)
        try:
            self._serve(None, lambda: len(self._clients) >= self.expected_clients,
                        self.registration_timeout_s,
                        lambda: (f"only {len(self._clients)} of "
                                 f"{self.expected_clients} clients registered"))
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
        self._windows, self._late = {}, 0
        parked, self._parked = self._parked, []
        for event in parked:
            self._handle(event, state)
        self._serve(state, state.complete, self.round_timeout_s,
                    lambda: f"round {r}: no delta from {state.missing}")

        # Snapshot received bytes now, while every participant is blocked
        # awaiting the next model: once the broadcast unblocks a fast client
        # its round r+1 delta could hit a reader thread before we stamp the
        # record, smearing its bytes into this round.
        recv1 = sum(c.bytes_received for c in self._endpoints)

        self.global_weights = state.aggregate()
        self.current_round = r + 1
        self._broadcast(GlobalModel(round=self.current_round,
                                    weights=self.global_weights))
        state.mark_distributed()

        sent1 = sum(c.bytes_sent for c in self._endpoints)
        self._sent_base, self._recv_base = sent1, recv1
        self.records.append(RoundRecord(
            round=r,
            client_ids=sorted(state.expected_clients),
            windows_trained=self._windows,
            bytes_sent=sent1 - sent0,
            bytes_received=recv1 - recv0,
            duration_s=time.monotonic() - t0,
            late_submissions=self._late))
