"""The socket front end: many tenant sessions, one deterministic engine.

Threading model: one thread.  The ``serve-loop`` thread runs a stdlib
:mod:`selectors` loop that owns every socket and the
:class:`~.engine.ServeEngine`, so the allocator, scheduler and admission
ledgers are touched by exactly one thread — the simulator never sees
concurrency it cannot replay.  The loop

* accepts connections and reads each session's bytes into that
  session's buffer, splitting out complete lines;
* answers hello and malformed input inline (a protocol-error reply,
  counted) and appends every well-formed request to one pending list;
* runs the pending list as one episode (:meth:`ServeServer._run_batch`)
  once it holds ``batch_max`` requests, or once ``batch_window``
  seconds pass with no socket activity.

A batch is answered in arrival order after its episode; ``stats`` and
``bye`` are answered after the batch they arrived with, so every session
gets its replies in request order.  A session is closed after its
``bye`` is answered, at EOF, on a line longer than
:data:`~.protocol.MAX_LINE`, or when a reply fails to send within
:data:`SEND_TIMEOUT` — a peer that stops reading cannot wedge the loop.
Batch composition depends on arrival timing (it is a real open system),
but *within* any batch the outcome is the engine's deterministic
contract.

:meth:`ServeServer.stop` sets a flag, wakes the loop through a
socketpair and joins it; the loop's ``finally`` closes every socket.
``port=0`` binds an ephemeral port; :meth:`ServeServer.start` returns
the bound address.  The server is a context manager::

    with ServeServer(engine) as (host, port):
        ...clients connect...
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import Optional, Tuple

from . import protocol
from .engine import ServeEngine, ServeRequest
from .protocol import OP_BYE, OP_FREE, OP_MALLOC, OP_STATS, ProtocolError

#: seconds one reply may take to send before its session is dropped
SEND_TIMEOUT = 1.0

_RECV_BYTES = 1 << 16


class _Session:
    """One connected client: socket, declared tenant, unsplit bytes."""

    __slots__ = ("conn", "tenant", "buf", "open")

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.tenant: Optional[int] = None
        self.buf = b""
        self.open = True


class ServeServer:
    """Newline-framed-JSON allocator service over TCP."""

    def __init__(self, engine: ServeEngine, host: str = "127.0.0.1",
                 port: int = 0, batch_window: float = 0.005,
                 batch_max: int = 64):
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1 (got {batch_max})")
        if batch_window <= 0:
            raise ValueError(
                f"batch_window must be > 0 seconds (got {batch_window})")
        self.engine = engine
        self.batch_window = batch_window
        self.batch_max = batch_max
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._sel: Optional[selectors.BaseSelector] = None
        self._wake: Optional[socket.socket] = None  # stop()'s end
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        #: malformed messages received across all sessions (the CI
        #: smoke gate: any nonzero count fails the run)
        self.protocol_errors = 0
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server already started")
        lst = socket.create_server((self._host, self._port))
        lst.setblocking(False)
        wake_r, self._wake = socket.socketpair()
        self._sel = selectors.DefaultSelector()
        self._sel.register(lst, selectors.EVENT_READ)
        self._sel.register(wake_r, selectors.EVENT_READ)
        self._listener = lst
        self.address = lst.getsockname()[:2]
        self._thread = threading.Thread(target=self._loop, name="serve-loop",
                                        daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop = True
        try:
            self._wake.send(b"\0")
        except OSError:
            pass  # the loop has already exited
        self._thread.join()
        self._wake.close()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the loop (sole owner of every socket and of the engine)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        sel = self._sel
        pending: list = []  # (session, request) in arrival order
        try:
            while not self._stop:
                events = sel.select(self.batch_window if pending else None)
                for key, _ in events:
                    if key.data is not None:
                        self._read(key.data, pending)
                    elif key.fileobj is self._listener:
                        self._accept()
                    # else the wake socket: the loop test sees _stop
                # full batches run at once; a partial one after a quiet
                # batch_window
                ready = len(pending)
                if events:
                    ready -= ready % self.batch_max
                for i in range(0, ready, self.batch_max):
                    self._run_batch(pending[i:i + self.batch_max])
                del pending[:ready]
        finally:
            for sess, _ in pending:
                self._drop(sess)  # those unregistered at their bye too
            for key in list(sel.get_map().values()):
                key.fileobj.close()
            sel.close()

    def _accept(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return  # the peer gave up before we got to it
        conn.settimeout(SEND_TIMEOUT)
        self._sel.register(conn, selectors.EVENT_READ, _Session(conn))

    def _read(self, sess: _Session, pending: list) -> None:
        try:
            data = sess.conn.recv(_RECV_BYTES)
        except OSError:
            data = b""
        if not data:  # EOF or reset: replies still owed go nowhere
            self._drop(sess)
            return
        *lines, sess.buf = (sess.buf + data).split(b"\n")
        for raw in lines:
            if not sess.open:
                return  # a reply to it failed
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                self._protocol_error(sess, f"not valid UTF-8: {e}")
                continue
            if not line:
                continue
            try:
                msg = protocol.decode_line(line)
                if sess.tenant is None:
                    sess.tenant = protocol.parse_hello(msg).tenant
                    self._send(sess, protocol.hello_reply(
                        self.engine.backend_name,
                        self.engine.admission.quota_bytes,
                        self.batch_max,
                    ))
                    continue
                req = protocol.parse_request(msg)
            except ProtocolError as e:
                self._protocol_error(sess, str(e))
                continue
            pending.append((sess, req))
            if req.op == OP_BYE:
                # read nothing more; _run_batch closes it after the reply
                self._sel.unregister(sess.conn)
                return
        if len(sess.buf) > protocol.MAX_LINE:
            self._protocol_error(
                sess, f"line exceeds {protocol.MAX_LINE} bytes")
            self._drop(sess)

    def _send(self, sess: _Session, msg: dict) -> None:
        if not sess.open:
            return
        try:
            sess.conn.sendall(protocol.encode(msg))
        except OSError:  # peer gone, or not reading for SEND_TIMEOUT
            self._drop(sess)

    def _protocol_error(self, sess: _Session, detail: str) -> None:
        self.protocol_errors += 1
        self._send(sess, protocol.protocol_error_reply(detail))

    def _drop(self, sess: _Session) -> None:
        if not sess.open:
            return
        sess.open = False
        try:
            self._sel.unregister(sess.conn)
        except KeyError:
            pass  # already unregistered at its bye
        sess.conn.close()

    def _run_batch(self, entries) -> None:
        """Run one batch of ``(session, request)`` pairs as one episode
        and answer every entry in order; ``stats`` sees the episode."""
        batch = [ServeRequest(sess.tenant, req.op, size=req.size,
                              addr=req.addr)
                 for sess, req in entries if req.op in (OP_MALLOC, OP_FREE)]
        outcomes = iter(self.engine.submit(batch) if batch else ())
        snap = None
        for sess, req in entries:
            if req.op == OP_STATS:
                if snap is None:
                    snap = self.engine.snapshot()
                    snap.update({"ok": True, "op": OP_STATS})
                self._send(sess, snap)
            elif req.op == OP_BYE:
                self._send(sess, protocol.bye_reply())
                self._drop(sess)
            else:
                out = next(outcomes)
                if out.ok:
                    self._send(sess, protocol.request_reply(
                        req.req, ok=True,
                        addr=out.addr if req.op == OP_MALLOC else None,
                        latency=out.latency, episode=out.episode,
                    ))
                else:
                    self._send(sess, protocol.request_reply(
                        req.req, ok=False, cause=out.cause))
