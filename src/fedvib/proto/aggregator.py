"""Aggregation-node lifecycle: registration, synchronous rounds, FedAvg.

Structure: one acceptor thread and one reader thread per connection feed a
single inbox queue; the coordinator (the ``run`` loop) is the only thread
that mutates round state or writes to endpoints, so rounds are serialized
through one writer.

Round protocol: round r begins with every registered client holding the
round-r global model.  The coordinator collects one delta per expected
client (a synchronous barrier), averages them with the client ids in sorted
order, applies the mean to the global model, and distributes the round-r+1
model to every registered client.  Clients registering mid-round receive the
current global model immediately and are expected from the next round on; a
delta they submit for the in-flight round is acknowledged and discarded.
A missing delta at the timeout, or a delta whose tensor names or shapes
differ from the global model's or that holds a non-finite value, aborts the
round (no partial aggregation): every client gets an Error frame and
RoundAbortError is raised.
"""

import queue
import threading
import time
from dataclasses import dataclass, field

from ..errors import (
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
)

ROUND_STATUSES = ("collecting", "aggregated", "distributed")


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
        self._clients = {}       # client_id -> endpoint
        self._conn_ids = {}      # id(conn) -> client_id
        self._sent_base = 0      # bytes already attributed to earlier records
        self._recv_base = 0
        self._threads = []
        self._inbox = queue.Queue()
        self._deferred = []      # events parked during registration, replayed first
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
        while True:
            try:
                msg = conn.recv(timeout=None)
            except (TransportError, WireError) as e:
                self._inbox.put(("broken", conn, e))
                return
            if msg is None:
                self._inbox.put(("closed", conn, None))
                return
            self._inbox.put(("msg", conn, msg))

    def _next_event(self, deadline):
        if self._deferred:
            return self._deferred.pop(0)
        try:
            return self._inbox.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            return None

    def _handle_register(self, conn, msg):
        """Returns the client id if accepted, None if rejected."""
        if msg.client_id in self._clients:
            conn.send(Error(code=ERR_DUPLICATE_ID,
                            text=f"client id {msg.client_id!r} already registered"))
            conn.close()
            return None
        self._clients[msg.client_id] = conn
        self._conn_ids[id(conn)] = msg.client_id
        conn.send(GlobalModel(round=self.current_round,
                              weights=self.global_weights))
        self._spawn(self._reader, conn)
        return msg.client_id

    def _broadcast_error(self, code, text):
        for cid in sorted(self._clients):
            try:
                self._clients[cid].send(Error(code=code, text=text))
            except TransportError:
                pass

    def _bytes_totals(self):
        sent = sum(c.bytes_sent for c in self._clients.values())
        received = sum(c.bytes_received for c in self._clients.values())
        return sent, received

    def _shutdown(self, listener):
        self._stop.set()
        if listener is not None:
            listener.close()
        for conn in self._clients.values():
            conn.close()
        for t in self._threads:
            t.join(timeout=5.0)

    # -- lifecycle -----------------------------------------------------------

    def run(self, listener):
        """Serve one full federation; returns the per-round records."""
        self._spawn(self._acceptor, listener)
        try:
            self._registration_phase()
            for r in range(self.rounds):
                self._run_round(r)
            return self.records
        finally:
            self._shutdown(listener)

    def _registration_phase(self):
        deadline = time.monotonic() + self.registration_timeout_s
        deferred = []
        while len(self._clients) < self.expected_clients:
            try:
                ev = self._inbox.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RoundAbortError(
                    f"only {len(self._clients)} of {self.expected_clients} "
                    f"clients registered within {self.registration_timeout_s}s"
                ) from None
            kind, conn, payload = ev
            if id(conn) in self._conn_ids and kind != "connect":
                # an already-registered client got its model and raced ahead
                # into round 0; park the event for the round loop
                deferred.append(ev)
            elif kind == "connect":
                self._spawn(self._first_message_reader, conn)
            elif kind == "msg" and isinstance(payload, Register):
                self._handle_register(conn, payload)
            elif kind == "msg":
                conn.send(Error(code=ERR_PROTOCOL,
                                text=f"expected Register, got {type(payload).__name__}"))
                conn.close()
            # closed/broken before registration: nothing to clean up
        self._deferred.extend(deferred)

    def _first_message_reader(self, conn):
        """Read exactly one message from a fresh connection (its Register)."""
        try:
            msg = conn.recv(timeout=self.registration_timeout_s)
        except (TransportError, WireError) as e:
            self._inbox.put(("broken", conn, e))
            return
        if msg is None:
            self._inbox.put(("closed", conn, None))
            return
        self._inbox.put(("msg", conn, msg))

    def _run_round(self, r):
        t0 = time.monotonic()
        sent0, recv0 = self._sent_base, self._recv_base
        participants = frozenset(self._clients)
        state = RoundState(round=r, global_weights=self.global_weights,
                           expected_clients=participants)
        windows_trained = {}
        late = 0
        deadline = time.monotonic() + self.round_timeout_s

        while not state.complete():
            ev = self._next_event(deadline)
            if ev is None:
                diagnostic = (f"round {r}: no delta from {state.missing} "
                              f"within {self.round_timeout_s}s")
                self._broadcast_error(ERR_ROUND_ABORT, diagnostic)
                raise RoundAbortError(diagnostic)
            kind, conn, payload = ev
            if kind == "connect":
                self._spawn(self._first_message_reader, conn)
            elif kind in ("closed", "broken"):
                cid = self._conn_ids.get(id(conn))
                if cid in participants and cid not in state.received:
                    diagnostic = (f"round {r}: client {cid!r} disconnected "
                                  f"before submitting ({payload})")
                    self._broadcast_error(ERR_ROUND_ABORT, diagnostic)
                    raise RoundAbortError(diagnostic)
            elif kind == "msg" and isinstance(payload, Register):
                self._handle_register(conn, payload)  # joins next round
            elif kind == "msg" and isinstance(payload, DeltaSubmission):
                cid = self._conn_ids.get(id(conn))
                if payload.client_id != cid:
                    conn.send(Error(code=ERR_PROTOCOL,
                                    text=f"submission claims {payload.client_id!r} "
                                         f"but the connection registered {cid!r}"))
                    continue
                if cid not in participants:
                    late += 1
                    conn.send(Ack())
                    continue
                try:
                    state.record(cid, payload.delta)
                    windows_trained[cid] = payload.windows_trained
                except ProtocolError as e:
                    diagnostic = f"round {r}: {e}"
                    self._broadcast_error(ERR_ROUND_ABORT, diagnostic)
                    raise RoundAbortError(diagnostic) from None
            elif kind == "msg":
                conn.send(Error(code=ERR_PROTOCOL,
                                text=f"unexpected {type(payload).__name__} mid-round"))

        # Snapshot received bytes now, while every participant is blocked
        # awaiting the next model: once the broadcast unblocks a fast client
        # its round r+1 delta could hit a reader thread before we stamp the
        # record, smearing its bytes into this round.
        _, recv1 = self._bytes_totals()

        self.global_weights = state.aggregate()
        self.current_round = r + 1
        for cid in sorted(self._clients):
            self._clients[cid].send(GlobalModel(round=self.current_round,
                                                weights=self.global_weights))
        state.mark_distributed()

        sent1, _ = self._bytes_totals()
        self._sent_base, self._recv_base = sent1, recv1
        self.records.append(RoundRecord(
            round=r,
            client_ids=sorted(participants),
            windows_trained=windows_trained,
            bytes_sent=sent1 - sent0,
            bytes_received=recv1 - recv0,
            duration_s=time.monotonic() - t0,
            late_submissions=late))
