"""Transports: length-framed messages over stream sockets, paired inside one
process for simulation or over TCP for deployment.

Every endpoint is a :class:`SocketEndpoint`:

* ``send(message) -> int`` — encode one message, write the frame, blocking
  until it is written, and return its byte length (also added to
  ``bytes_sent``); TransportError once the peer has closed.
* ``recv(timeout=None) -> message | None`` — next decoded message; ``None``
  once the peer has closed, a reset included; TransportError on timeout.
* ``read(timeout)`` — one socket read into the receive buffer; ``ready()``
  then says whether ``recv`` would return without waiting.  A selecting
  server reads with timeout 0, so a peer that sends half a frame cannot
  block it.  A header announcing more than ``max_payload`` bytes raises
  WireError before any payload is awaited; so does a close mid-frame.
* ``fileno()``, and ``close()`` — idempotent; ``closed`` once it ran.

Only the rendezvous differs: :class:`InProcessHub` hands the server ends of
``socket.socketpair()`` connections to ``accept``, :class:`SocketServer`
accepts TCP connections; the ``fileno()`` of each is readable while a
connection waits.  So both transports share the frame bound, the failure
handling and the byte counters, and traffic accounting is the same whether a
federation runs in one process or across machines.
"""

import socket
import threading
import time

from ..errors import TransportError, WireError
from .wire import HEADER_SIZE, decode_frame, encode_frame, take_frame


class SocketEndpoint:
    """Length-framed messages over a connected stream socket."""

    max_payload = None  # recv bound; owners set wire.max_payload_size

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray()  # bytes read and not yet cut into a frame
        self._frame = None       # the next whole frame, cut off by ready()
        self._eof = False
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def fileno(self):
        return self._sock.fileno()

    def read(self, timeout):
        """One socket read into the receive buffer, waiting at most ``timeout``."""
        try:
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(1 << 20)
        except (socket.timeout, BlockingIOError):
            raise TransportError("receive timed out") from None
        except ConnectionResetError:  # the peer closed before reading it all
            chunk = b""
        except OSError as e:
            raise TransportError(f"socket receive failed: {e}") from None
        self._buf += chunk
        self._eof = not chunk

    def ready(self):
        """True when ``recv`` returns without waiting: a whole frame is
        buffered, or the peer has closed."""
        if self._frame is None:
            self._frame = take_frame(self._buf, self.max_payload)
        return self._frame is not None or self._eof

    def send(self, message):
        frame = encode_frame(message)
        try:
            self._sock.settimeout(None)  # whatever mode the last read left
            self._sock.sendall(frame)
        except OSError as e:
            raise TransportError(f"socket send failed: {e}") from None
        self.bytes_sent += len(frame)
        return len(frame)

    def recv(self, timeout=None):
        while not self.ready():
            self.read(timeout)
        frame, self._frame = self._frame, None
        if frame is None:
            if self._buf:
                raise WireError("connection closed mid-frame", offset=len(self._buf))
            return None
        self.bytes_received += len(frame)
        return decode_frame(frame)

    def close(self):
        if not self.closed:
            self.closed = True
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
    """Rendezvous point handing the server ends of socket pairs to
    ``accept``.  Its doorbell holds one byte per end not yet accepted, so
    ``fileno()`` is readable while one waits, and at EOF once closed."""

    def __init__(self):
        self._pending = []
        self._lock = threading.Lock()
        self._bell, self._ring = socket.socketpair()
        self._closed = False

    def fileno(self):
        return self._bell.fileno()

    def connect(self):
        """Create a connected socket pair; returns the client side."""
        with self._lock:
            if self._closed:
                raise TransportError("hub is closed")
            client, server = socket.socketpair()
            self._pending.append(SocketEndpoint(server))
            self._ring.send(b"\0")
        return SocketEndpoint(client)

    def accept(self, timeout=None):
        """Server side: next freshly connected endpoint; None once closed."""
        try:
            self._bell.settimeout(timeout)
            self._bell.recv(1)
        except (socket.timeout, BlockingIOError):
            raise TransportError(f"accept timed out after {timeout}s") from None
        except OSError:
            return None  # the doorbell closed with the hub
        with self._lock:
            return None if self._closed else self._pending.pop(0)

    def close(self):
        """Refuse further connects and close every server end not accepted."""
        with self._lock:
            self._closed = True
            for conn in self._pending:
                conn.close()
            self._pending.clear()
            self._ring.close()
            self._bell.close()


# -- TCP ---------------------------------------------------------------------

class SocketServer:
    """Listening socket that yields SocketEndpoints from accept()."""

    def __init__(self, host, port, backlog=16):
        self._sock = socket.create_server((host, port), backlog=backlog)
        self.host, self.port = self._sock.getsockname()[:2]

    def fileno(self):
        return self._sock.fileno()

    def accept(self, timeout=None):
        try:
            self._sock.settimeout(timeout)
            conn, _addr = self._sock.accept()
        except (socket.timeout, BlockingIOError):
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
