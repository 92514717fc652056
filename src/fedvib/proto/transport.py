"""Transports: in-process queues for simulation, stream sockets for deployment.

Both sides of either transport expose the same endpoint interface:

* ``send(message) -> int`` — encode one message, deliver the frame, return
  its byte length (also added to ``bytes_sent``).
* ``recv(timeout=None) -> message | None`` — next decoded message; ``None``
  once the peer has closed; TransportError on timeout.
* ``close()`` — idempotent.

Byte counters measure real encoded frames, so traffic accounting is the
same whether a federation runs in one process or across machines.
"""

import queue
import socket
import threading
import time

from ..errors import TransportError
from .wire import HEADER_SIZE, decode_frame, encode_frame, read_frame

_CLOSE = object()


class _CountingEndpoint:
    max_payload = None  # socket recv bound; owners set wire.max_payload_size

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, message):
        frame = encode_frame(message)
        self._deliver(frame)
        self.bytes_sent += len(frame)
        return len(frame)

    def recv(self, timeout=None):
        frame = self._collect(timeout)
        if frame is None:
            return None
        self.bytes_received += len(frame)
        return decode_frame(frame)


class QueueEndpoint(_CountingEndpoint):
    """One side of an in-process connection; frames travel over queues."""

    def __init__(self, outbox, inbox):
        super().__init__()
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False

    def _deliver(self, frame):
        if self._closed:
            raise TransportError("endpoint is closed")
        self._outbox.put(frame)

    def _collect(self, timeout):
        if self._closed:
            return None
        try:
            frame = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"receive timed out after {timeout}s") from None
        if frame is _CLOSE:
            self._inbox.put(_CLOSE)  # keep further recv() calls returning None
            return None
        return frame

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSE)  # peer's recv() drains to None
            self._inbox.put(_CLOSE)   # our own blocked recv() unblocks too


class InProcessHub:
    """Rendezvous point connecting client endpoints to an accept loop."""

    def __init__(self):
        self._pending = queue.Queue()
        self._closed = False

    def connect(self):
        """Create a connected endpoint pair; returns the client side."""
        if self._closed:
            raise TransportError("hub is closed")
        c2s, s2c = queue.Queue(), queue.Queue()
        client = QueueEndpoint(outbox=c2s, inbox=s2c)
        server = QueueEndpoint(outbox=s2c, inbox=c2s)
        self._pending.put(server)
        return client

    def accept(self, timeout=None):
        """Server side: next freshly connected endpoint."""
        try:
            conn = self._pending.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"accept timed out after {timeout}s") from None
        if conn is _CLOSE:
            self._pending.put(_CLOSE)
            return None
        return conn

    def close(self):
        self._closed = True
        self._pending.put(_CLOSE)


# -- stream sockets ----------------------------------------------------------

class SocketEndpoint(_CountingEndpoint):
    """Length-framed messages over a connected stream socket."""

    def __init__(self, sock):
        super().__init__()
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    def _read_exact(self, n):
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout:
                raise TransportError("receive timed out") from None
            except OSError as e:
                raise TransportError(f"socket receive failed: {e}") from None
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _deliver(self, frame):
        with self._send_lock:
            try:
                self._sock.sendall(frame)
            except OSError as e:
                raise TransportError(f"socket send failed: {e}") from None

    def _collect(self, timeout):
        try:
            self._sock.settimeout(timeout)
        except OSError:
            return None  # closed underneath us
        return read_frame(self._read_exact, self.max_payload)

    def close(self):
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class SocketServer:
    """Listening socket that yields SocketEndpoints from accept()."""

    def __init__(self, host, port, backlog=16):
        self._sock = socket.create_server((host, port), backlog=backlog)
        self.host, self.port = self._sock.getsockname()[:2]

    def accept(self, timeout=None):
        try:
            self._sock.settimeout(timeout)
            conn, _addr = self._sock.accept()
        except socket.timeout:
            raise TransportError(f"accept timed out after {timeout}s") from None
        except OSError:
            return None  # listener closed
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(None)
        return SocketEndpoint(conn)

    def close(self):
        self._sock.close()


def serve_sockets(host="127.0.0.1", port=0):
    """Open a listening server; port 0 picks a free ephemeral port."""
    return SocketServer(host, port)


def connect_socket(host, port, retries=5, backoff_s=0.2):
    """Connect with bounded retry and exponential backoff."""
    delay = backoff_s
    last = None
    for attempt in range(retries + 1):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            return SocketEndpoint(sock)
        except OSError as e:
            last = e
            if attempt < retries:
                time.sleep(delay)
                delay *= 2.0
    raise TransportError(f"could not reach {host}:{port} "
                         f"after {retries + 1} attempts: {last}")


__all__ = ["InProcessHub", "QueueEndpoint", "SocketEndpoint", "SocketServer",
           "connect_socket", "serve_sockets", "HEADER_SIZE"]
