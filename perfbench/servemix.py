"""serve_mix: open-loop request load over loopback TCP, plus its checks.

The server runs in a child process (``serve_child.py``).  This process
is the load generator: one sender thread (the caller's) and one reply
reader thread share two connections, one per tenant of a 2-tenant
``multi_tenant_zipf`` trace.

Send schedule: each phase has its own balanced trace, sent in trace
order at a fixed offered rate; request ``k`` of a phase is *due* at
``t0 + k / rate``.  Latency runs from due time to reply arrival, so a
stall also charges the requests queued behind it.  A free is sent only
once its malloc's reply has arrived: when its slot comes earlier, the
reader thread sends it on that reply, and it is due from then (the
client cannot free an address it has not been handed; the malloc's own
latency already counts the wait).  A free whose malloc failed is
skipped and counted.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: engine pool: the allocator's own default heap (pool_order=10, 4 MB)
POOL = 4 << 20
#: the deterministic feed: trace length and batch size
FEED_EVENTS = 8000
FEED_BATCH = 64
#: offered rates (requests/s): under 10 % and about 25 % of the service's
#: capacity with this generator (5.5-6 k req/s on a 2-CPU x86 container);
#: higher rates overload whenever a shared host slows down
RATE_LOW = 500.0
RATE_HIGH = 1500.0
#: share of ``--seconds`` each phase is scheduled to last
PHASE_SHARE = (("low", RATE_LOW, 0.15), ("high", RATE_HIGH, 0.5))
#: the high phase's p99 is the median of the p99s of this many
#: consecutive slices of its replies (2250 each at 30 s)
P99_WINDOWS = 10
#: share of ``--seconds`` the deterministic feed is repeated for
FEED_SHARE = 0.15
TENANTS = 2
#: a request not answered ``ok`` within this limit counts as failed
LATENCY_LIMIT_S = 0.5
#: a run whose sender ran later than this (p99) is invalid
LATE_BOUND_MS = 50.0
#: longest wait for outstanding replies once a phase is sent
DRAIN_TIMEOUT_S = 30.0
#: fields every ledger (client, server, direct replay) carries
LEDGER_FIELDS = ("n_malloc", "n_malloc_failed", "n_free", "n_free_skipped",
                 "bytes_requested", "bytes_served")


def phase_traces(seed: int, seconds: float):
    """``[(phase, rate, trace)]``: one balanced trace per phase, sized to
    the phase's scheduled length at its offered rate."""
    from repro.workloads import families

    out = []
    for i, (phase, rate, share) in enumerate(PHASE_SHARE):
        n = max(200, int(rate * share * seconds))
        # the generator emits one event per step plus the final drain of
        # at most max_live allocations per tenant
        trace = families.generate("multi_tenant_zipf", seed * 7919 + i,
                                  tenants=TENANTS, events=n - 12 * TENANTS)
        out.append((phase, rate, trace))
    return out


def feed_trace_for(seed: int):
    """The fixed-length trace the deterministic feed serves (same family
    and tenants as the phases, independent of ``--seconds``)."""
    from repro.workloads import families

    return families.generate("multi_tenant_zipf", seed * 7919 + 99,
                             tenants=TENANTS,
                             events=FEED_EVENTS - 12 * TENANTS)


def combined_trace(traces):
    """The phase traces back to back as one valid trace (ids and times
    shifted) — what a direct replay must reconcile with."""
    from repro.workloads.trace import Trace, TraceEvent

    events: List = []
    id_base = time_base = 0
    for _phase, _rate, tr in traces:
        for e in tr.events:
            events.append(TraceEvent(e.op, e.id + id_base, e.tenant,
                                     e.time + time_base, e.size))
        id_base += max(e.id for e in tr.events) + 1
        time_base = events[-1].time + 1
    return Trace("serve_mix", traces[0][2].seed, TENANTS, {}, events)


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class ServerChild:
    """The ``serve_child.py`` process: started ready, stopped by request."""

    def __init__(self, seed: int, trace: bool, spans_out: Optional[Path]):
        root = HERE.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, str(HERE / "serve_child.py"),
               "--seed", str(seed), "--trace", str(int(trace))]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=str(root), env=env)
        line = self.proc.stdout.readline()
        try:
            ready = json.loads(line)
            host, port = ready["ready"]
            #: the child's start-up: raw seconds, reference seconds
            self.start_s: Tuple[float, float] = tuple(ready["start_s"])
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise RuntimeError(
                f"server child not ready (code {self.proc.returncode}, "
                f"said {line!r})") from None
        self.address: Tuple[str, int] = (host, port)

    def stop(self, timeout: float = 60.0) -> dict:
        """Ask the child to run ``ServeServer.stop()``; its report."""
        out, _ = self.proc.communicate("stop\n", timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server child failed with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        """Last resort on an error path, after which the run fails."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    phase: str
    rate: float
    sent: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failed: int = 0          # not ok, or ok after the latency limit
    #: from the first request's due time to the phase's last reply
    duration_s: float = 0.0


class _Conn:
    def __init__(self, sock: socket.socket, tenant: int):
        self.sock = sock
        self.tenant = tenant
        self.buf = b""
        self.next_req = 0
        self.wlock = threading.Lock()
        #: req id -> (op, due, trace event id, size, phase result)
        self.pending: Dict[int, tuple] = {}

    def send(self, data: bytes) -> None:
        with self.wlock:
            self.sock.sendall(data)


class LoadGen:
    """Two connections, one sender (the caller) and one reader thread."""

    def __init__(self, address: Tuple[str, int]):
        from repro.serve import protocol
        from repro.workloads.replay import TenantStats

        self.protocol = protocol
        #: client-side ledgers, in the replayer's vocabulary
        self.ledgers = {t: TenantStats() for t in range(TENANTS)}
        self.protocol_errors = 0
        self.conns: List[_Conn] = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        #: trace event id -> address | None (pending) | -1 (failed)
        self._malloc_state: Dict[int, Optional[int]] = {}
        #: trace event id -> (conn, due, phase) of a free waiting on it
        self._deferred: Dict[int, tuple] = {}
        self._control: List[dict] = []
        self._error: Optional[BaseException] = None
        for t in range(TENANTS):
            sock = socket.create_connection(address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conns.append(_Conn(sock, t))
        self._reader = threading.Thread(target=self._read_loop,
                                        name="loadgen-reader", daemon=True)

    # -- session control ------------------------------------------------
    def hello(self) -> None:
        """Open both sessions (synchronously, before the reader starts)."""
        p = self.protocol
        for c in self.conns:
            c.sock.sendall(p.encode({"op": p.OP_HELLO, "proto": p.PROTOCOL,
                                     "tenant": c.tenant}))
        for c in self.conns:
            reply = self._read_line_blocking(c)
            if not reply.get("ok"):
                raise RuntimeError(f"hello rejected: {reply}")
        self._reader.start()

    def _read_line_blocking(self, c: _Conn) -> dict:
        while b"\n" not in c.buf:
            chunk = c.sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed during hello")
            c.buf += chunk
        line, c.buf = c.buf.split(b"\n", 1)
        return json.loads(line)

    def control(self, msg: dict, conn: int = 0,
                timeout: float = DRAIN_TIMEOUT_S) -> dict:
        """Send a request without ``req`` (stats, bye); await its reply."""
        with self._lock:
            n = len(self._control)
        self.conns[conn].send(self.protocol.encode(msg))
        deadline = time.monotonic() + timeout
        with self._idle:
            while len(self._control) <= n:
                left = deadline - time.monotonic()
                if left <= 0 or self._error is not None:
                    raise RuntimeError(f"no reply to {msg['op']}")
                self._idle.wait(left)
            return self._control[n]

    def close(self) -> None:
        """Shut both connections down (the reader sees EOF and exits),
        then close them once the reader is gone."""
        for c in self.conns:
            try:
                c.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._reader.join(timeout=10)
        for c in self.conns:
            c.sock.close()
        if self._reader.is_alive():
            raise RuntimeError("load generator reader did not exit")

    # -- sending ---------------------------------------------------------
    def _issue(self, c: _Conn, op: str, due: float, eid: int, size: int,
               addr: int, res: PhaseResult) -> None:
        p = self.protocol
        with self._lock:
            req = c.next_req
            c.next_req += 1
            c.pending[req] = (op, due, eid, size, res)
            self._outstanding += 1
        msg = ({"op": p.OP_MALLOC, "req": req, "size": size}
               if op == p.OP_MALLOC else
               {"op": p.OP_FREE, "req": req, "addr": addr})
        c.send(p.encode(msg))

    def run_phase(self, phase: str, rate: float, trace) -> PhaseResult:
        """Send ``trace`` open-loop at ``rate``; wait for every reply."""
        from repro.workloads.trace import OP_MALLOC

        res = PhaseResult(phase, rate)
        p = self.protocol
        interval = 1.0 / rate
        t0 = time.perf_counter() + 0.01
        for k, e in enumerate(trace.events):
            due = t0 + k * interval
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                now = time.perf_counter()
            res.late_ms.append(max(0.0, now - due) * 1e3)
            c = self.conns[e.tenant]
            led = self.ledgers[e.tenant]
            res.sent += 1
            if e.op == OP_MALLOC:
                with self._lock:
                    led.n_malloc += 1
                    led.bytes_requested += e.size
                    self._malloc_state[e.id] = None
                self._issue(c, p.OP_MALLOC, due, e.id, e.size, 0, res)
                continue
            with self._lock:
                state = self._malloc_state[e.id]
                if state is None:
                    self._deferred[e.id] = (c, due, res)
                    continue
                del self._malloc_state[e.id]
                if state < 0:
                    led.n_free_skipped += 1
                    continue
            self._issue(c, p.OP_FREE, due, e.id, 0, state, res)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        with self._idle:
            while self._outstanding or self._deferred:
                left = deadline - time.monotonic()
                if left <= 0 or self._error is not None:
                    raise RuntimeError(
                        f"phase {phase}: {self._outstanding} replies missing"
                        f" after {DRAIN_TIMEOUT_S}s ({self._error})")
                self._idle.wait(left)
            if self._malloc_state:
                raise RuntimeError(
                    f"phase {phase}: {len(self._malloc_state)} mallocs "
                    "never freed (the phase trace is balanced)")
        res.duration_s = time.perf_counter() - t0
        return res

    # -- the reply reader ------------------------------------------------
    def _read_loop(self) -> None:
        sel = selectors.DefaultSelector()
        for c in self.conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        open_conns = len(self.conns)
        try:
            while open_conns:
                for key, _ in sel.select():
                    c = key.data
                    try:
                        chunk = c.sock.recv(65536)
                    except OSError:
                        chunk = b""
                    if not chunk:
                        sel.unregister(c.sock)
                        open_conns -= 1
                        continue
                    now = time.perf_counter()
                    c.buf += chunk
                    *lines, c.buf = c.buf.split(b"\n")
                    for line in lines:
                        if line.strip():
                            self._on_reply(c, json.loads(line), now)
        except BaseException as exc:  # surfaced by run_phase / control
            with self._idle:
                self._error = exc
                self._idle.notify_all()
        finally:
            sel.close()

    def _on_reply(self, c: _Conn, reply: dict, now: float) -> None:
        p = self.protocol
        if reply.get("error") == "protocol":
            with self._idle:
                self.protocol_errors += 1
                self._idle.notify_all()
            return
        req = reply.get("req")
        if req is None:
            with self._idle:
                self._control.append(reply)
                self._idle.notify_all()
            return
        send_free = None
        with self._idle:
            op, due, eid, size, res = c.pending.pop(req)
            latency = now - due
            ok = bool(reply.get("ok"))
            res.latencies_ms.append(latency * 1e3)
            if not ok or latency > LATENCY_LIMIT_S:
                res.failed += 1
            led = self.ledgers[c.tenant]
            if op == p.OP_MALLOC:
                if ok:
                    led.bytes_served += size
                    state = reply["addr"]
                else:
                    led.n_malloc_failed += 1
                    state = -1
                waiting = self._deferred.pop(eid, None)
                if waiting is None:
                    self._malloc_state[eid] = state
                elif state < 0:
                    del self._malloc_state[eid]
                    led.n_free_skipped += 1
                else:
                    del self._malloc_state[eid]
                    send_free = (waiting, state)
            elif ok:
                led.n_free += 1
            self._outstanding -= 1
            self._idle.notify_all()
        if send_free is not None:
            # the client learns the address only now: the free falls due
            # at the later of its slot and this reply
            (fc, fdue, fres), addr = send_free
            self._issue(fc, p.OP_FREE, max(fdue, now), eid, 0, addr, fres)


# ----------------------------------------------------------------------
# reconciliation
# ----------------------------------------------------------------------
def reconcile(ledgers: Dict[int, object], snapshot: dict,
              replay_tenants: dict) -> List[str]:
    """Client ledgers vs the server's ``stats`` snapshot and vs a direct
    replay of the same trace; one line per mismatch.  The server never
    sees a skipped free, so its snapshot has no ``n_free_skipped``."""
    problems = []
    server = snapshot.get("tenants", {})
    for t, led in sorted(ledgers.items()):
        srv = server.get(str(t))
        ref = replay_tenants.get(t)
        if srv is None or ref is None:
            problems.append(f"tenant {t}: missing from server or replay")
            continue
        for f in LEDGER_FIELDS:
            got = getattr(led, f)
            if got != getattr(ref, f):
                problems.append(f"tenant {t} {f}: client {got} != "
                                f"replay {getattr(ref, f)}")
            if f in srv and got != srv[f]:
                problems.append(f"tenant {t} {f}: client {got} != "
                                f"server {srv[f]}")
    return problems
