"""Transports: length-framed messages over stream sockets, paired inside one
process for simulation or over TCP for deployment.

Every endpoint is a :class:`SocketEndpoint`:

* ``send(message) -> int`` — encode one message, write the frame, return
  its byte length (also added to ``bytes_sent``); TransportError once the
  peer has closed.
* ``recv(timeout=None) -> message | None`` — next decoded message; ``None``
  once the peer has closed; TransportError on timeout.  A header announcing
  more than ``max_payload`` bytes raises WireError before any payload is read.
* ``close()`` — idempotent.

Only the rendezvous differs: :class:`InProcessHub` queues the server ends of
``socket.socketpair()`` connections for an accept loop, :class:`SocketServer`
accepts TCP connections.  So both transports share the frame bound, the
failure handling and the byte counters, and traffic accounting is the same
whether a federation runs in one process or across machines.
"""

import queue
import socket
import threading
import time

from ..errors import TransportError
from .wire import HEADER_SIZE, decode_frame, encode_frame, read_frame

_CLOSE = object()


class SocketEndpoint:
    """Length-framed messages over a connected stream socket."""

    max_payload = None  # recv bound; owners set wire.max_payload_size

    def __init__(self, sock):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

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

    def send(self, message):
        frame = encode_frame(message)
        with self._send_lock:
            try:
                self._sock.sendall(frame)
            except OSError as e:
                raise TransportError(f"socket send failed: {e}") from None
        self.bytes_sent += len(frame)
        return len(frame)

    def recv(self, timeout=None):
        try:
            self._sock.settimeout(timeout)
        except OSError:
            return None  # closed underneath us
        frame = read_frame(self._read_exact, self.max_payload)
        if frame is None:
            return None
        self.bytes_received += len(frame)
        return decode_frame(frame)

    def close(self):
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class QueueEndpoint(SocketEndpoint):
    """Defines nothing: a name kept only because perfbench/tracing.py wraps
    ``QueueEndpoint.send``/``recv``.  It goes with the outside-in tracer
    (ROADMAP item 2).  Nothing in fedvib creates one."""


class InProcessHub:
    """Rendezvous point handing the server ends of socket pairs to an
    accept loop."""

    def __init__(self):
        self._pending = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False

    def connect(self):
        """Create a connected socket pair; returns the client side."""
        with self._lock:
            if self._closed:
                raise TransportError("hub is closed")
            client, server = socket.socketpair()
            self._pending.put(SocketEndpoint(server))
        return SocketEndpoint(client)

    def accept(self, timeout=None):
        """Server side: next freshly connected endpoint; None once closed."""
        try:
            conn = self._pending.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"accept timed out after {timeout}s") from None
        if conn is _CLOSE:
            self._pending.put(_CLOSE)
            return None
        return conn

    def close(self):
        """Refuse further connects and close every server end not accepted."""
        with self._lock:
            self._closed = True
            while True:
                try:
                    conn = self._pending.get_nowait()
                except queue.Empty:
                    break
                if conn is not _CLOSE:
                    conn.close()
            self._pending.put(_CLOSE)


# -- TCP ---------------------------------------------------------------------

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
