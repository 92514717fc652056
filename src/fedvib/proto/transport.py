"""Transports: length-framed messages over stream sockets, over a Unix
socket for a federation simulated on one machine or over TCP for
deployment.

Every endpoint is a :class:`SocketEndpoint`:

* ``send(message, timeout=None) -> int`` — encode one message and write the
  frame, waiting at most ``timeout`` seconds in all (None: until written);
  returns its byte length (also added to ``bytes_sent``).  TransportError
  once the peer has closed, or on timeout, after which the stream may end
  mid-frame and the endpoint is only fit to close.
* ``recv(timeout=None) -> message | None`` — next decoded message; ``None``
  once the peer has closed, a reset included; TransportError on timeout.
* ``read(timeout)`` — one socket read into the receive buffer; ``ready()``
  then says whether ``recv`` would return without waiting.  A selecting
  server reads with timeout 0, so a peer that sends half a frame cannot
  block it.  A header announcing more than ``max_payload`` bytes raises
  WireError before any payload is awaited; so does a close mid-frame.
* ``fileno()``, and ``close()`` — idempotent; ``closed`` once it ran.

Every listener is a :class:`SocketServer`: ``accept`` yields endpoints,
``connect`` opens the client side of one, and ``fileno()`` is readable while
a connection waits.  Its ``address`` is plain data, so another process can
reach it with ``connect_to(address)``.  Only the address family differs:
:class:`InProcessHub` listens on a Unix socket in a private temporary
directory, ``serve_sockets`` on TCP.  So both transports share the frame
bound, the failure handling and the byte counters, and traffic accounting is
the same whether a federation runs on one machine or across machines.
"""

import os
import shutil
import socket
import tempfile
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

    def send(self, message, timeout=None):
        frame = encode_frame(message)
        try:
            self._sock.settimeout(timeout)
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


class SocketServer:
    """Listening TCP socket that yields SocketEndpoints from accept();
    :class:`InProcessHub` is the same server on a Unix socket."""

    def __init__(self, host, port, backlog=16):
        self._sock = socket.create_server((host, port), backlog=backlog)
        self.host, self.port = self._sock.getsockname()[:2]
        self.address = (self.host, self.port)

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
        if conn.family != socket.AF_UNIX:  # Nagle's algorithm is TCP's alone
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(None)
        return SocketEndpoint(conn)

    def connect(self):
        return connect_to(self.address)

    def close(self):
        """Close the listener; connections not yet accepted are reset."""
        self._sock.close()


class InProcessHub(SocketServer):
    """A SocketServer on a Unix socket in a private temporary directory (mode
    0700), so only this user can reach it.  ``address`` is the socket's path;
    ``close`` removes the directory, after which ``connect`` fails."""

    def __init__(self):
        self._dir = tempfile.mkdtemp(prefix="fedvib-hub-")
        self.address = os.path.join(self._dir, "hub")
        try:
            self._sock = socket.create_server(self.address, family=socket.AF_UNIX)
        except OSError:
            shutil.rmtree(self._dir, ignore_errors=True)
            raise

    def close(self):
        super().close()
        shutil.rmtree(self._dir, ignore_errors=True)


def serve_sockets(host="127.0.0.1", port=0):
    """Open a listening server; port 0 picks a free ephemeral port."""
    return SocketServer(host, port)


def connect_to(address):
    """Connect to a listener's ``address``: an :class:`InProcessHub`'s socket
    path, or a TCP ``(host, port)``."""
    if isinstance(address, tuple):
        return connect_socket(*address)
    sock = socket.socket(socket.AF_UNIX)
    try:
        sock.connect(address)
    except OSError as e:  # no retry: a closed hub's path does not come back
        sock.close()
        raise TransportError(f"hub is closed or unreachable: {e}") from None
    return SocketEndpoint(sock)


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
           "connect_socket", "connect_to", "serve_sockets", "HEADER_SIZE"]
