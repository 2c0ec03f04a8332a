"""The socket front end, end to end over real TCP on loopback.

The acceptance bar: at least eight concurrent tenant clients against one
live server, zero protocol errors, every reply well-formed and causally
consistent; plus the failure channels — an over-quota tenant is rejected
deterministically, and malformed frames land on the protocol-error
channel without disturbing well-formed sessions.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time

from repro.serve import protocol
from repro.serve.engine import ServeEngine
from repro.serve.protocol import Request
from repro.serve.server import ServeServer, _Session


class _Client:
    """A tiny synchronous test client (one request in flight at a time)."""

    def __init__(self, host, port, tenant):
        self.conn = socket.create_connection((host, port))
        self.reader = self.conn.makefile("r", encoding="utf-8", newline="\n")
        self._req = 0
        self.hello = self._rpc({"op": "hello", "proto": protocol.PROTOCOL,
                                "tenant": tenant})

    def _rpc(self, msg):
        self.conn.sendall(protocol.encode(msg))
        return json.loads(self.reader.readline())

    def request(self, op, **fields):
        msg = {"op": op, "req": self._req, **fields}
        self._req += 1
        return self._rpc(msg)

    def raw(self, line: str):
        self.conn.sendall(line.encode() + b"\n")
        return json.loads(self.reader.readline())

    def close(self):
        try:
            self._rpc({"op": "bye"})
        finally:
            self.conn.close()


def _connect(host, port):
    conn = socket.create_connection((host, port))
    conn.settimeout(5.0)  # a missing reply fails the test, not hangs it
    return conn


def _read_until_eof(conn):
    """Every reply the server sends until it closes the session."""
    with conn, conn.makefile("r", encoding="utf-8", newline="\n") as r:
        return [json.loads(line) for line in r]


def _server(**engine_kw):
    engine_kw.setdefault("backend", "ours")
    engine_kw.setdefault("pool", 4 << 20)
    engine_kw.setdefault("seed", 0)
    return ServeServer(ServeEngine(**engine_kw), batch_window=0.002,
                       batch_max=32)


def _stop_timed(srv, before):
    """Stop ``srv``; return (seconds taken, its serve-* threads still
    alive afterwards)."""
    t0 = time.perf_counter()
    srv.stop()
    took = time.perf_counter() - t0
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.name.startswith("serve-")]
    return took, leaked


class TestLifecycle:
    def test_idle_stop_is_prompt_and_leaks_no_thread(self):
        before = set(threading.enumerate())
        srv = _server()
        srv.start()
        took, leaked = _stop_timed(srv, before)
        assert took < 0.5
        assert leaked == []

    def test_stop_after_a_session_is_prompt_and_leaks_no_thread(self):
        before = set(threading.enumerate())
        srv = _server()
        host, port = srv.start()
        c = _Client(host, port, tenant=0)
        assert c.request("malloc", size=64)["ok"]
        c.close()
        took, leaked = _stop_timed(srv, before)
        assert took < 0.5
        assert leaked == []


    def test_finished_sessions_are_forgotten(self):
        """Each hello/bye session leaves nothing behind: one loop thread,
        and a selector holding only the listener and the wake socket."""
        before = set(threading.enumerate())
        srv = _server()
        host, port = srv.start()
        for tenant in range(5):
            c = _Client(host, port, tenant=tenant)
            assert c.hello["ok"]
            c.close()
        deadline = time.monotonic() + 5.0
        while len(srv._sel.get_map()) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(srv._sel.get_map()) == 2
        assert [t.name for t in threading.enumerate()
                if t not in before] == ["serve-loop"]
        took, leaked = _stop_timed(srv, before)
        assert took < 0.5
        assert leaked == []

    def test_pipelined_bye_is_answered_after_the_requests_before_it(self):
        srv = _server()
        with srv as (host, port):
            conn = _connect(host, port)
            conn.sendall(b"".join(protocol.encode(m) for m in (
                {"op": "hello", "proto": protocol.PROTOCOL, "tenant": 0},
                {"op": "malloc", "req": 0, "size": 64},
                {"op": "malloc", "req": 1, "size": 64},
                {"op": "bye"},
            )))
            replies = _read_until_eof(conn)
        assert [r.get("op", r.get("req")) for r in replies] == [
            "hello", 0, 1, "bye"]
        assert all(r["ok"] for r in replies)
        assert replies[1]["addr"] != replies[2]["addr"]
        assert srv.engine.live_allocations == 2
        assert srv.protocol_errors == 0


class TestSingleSession:
    def test_hello_reports_backend_and_quota(self):
        srv = _server(quota_bytes=1 << 16)
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            assert c.hello["ok"] and c.hello["proto"] == protocol.PROTOCOL
            assert c.hello["backend"].startswith("ours")
            assert c.hello["quota"] == 1 << 16
            c.close()
        assert srv.protocol_errors == 0

    def test_malloc_free_roundtrip(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=1)
            m = c.request("malloc", size=256)
            assert m["ok"] and m["addr"] > 0 and m["latency"] > 0
            f = c.request("free", addr=m["addr"])
            assert f["ok"] and "addr" not in f
            c.close()
        assert srv.engine.live_allocations == 0
        assert srv.protocol_errors == 0

    def test_stats_reflect_own_requests(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=2)
            c.request("malloc", size=64)
            s = c.request("stats")
            assert s["ok"] and s["op"] == "stats"
            assert s["tenants"]["2"]["n_malloc"] == 1
            assert s["live_allocations"] == 1
            c.close()

    def test_over_quota_tenant_deterministically_rejected(self):
        # Same request stream, two fresh servers: identical rejections.
        for _ in range(2):
            srv = _server(quota_bytes=512)
            with srv as (host, port):
                c = _Client(host, port, tenant=0)
                first = c.request("malloc", size=400)
                second = c.request("malloc", size=400)
                assert first["ok"]
                assert not second["ok"] and second["cause"] == "quota"
                # freeing makes room again — the ledger is live state
                c.request("free", addr=first["addr"])
                third = c.request("malloc", size=400)
                assert third["ok"]
                c.close()
            assert srv.protocol_errors == 0


class TestProtocolErrorChannel:
    def test_malformed_json_is_counted_and_answered(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            r = c.raw("{not json")
            assert r["error"] == "protocol" and not r["ok"]
            # the session survives: well-formed traffic still works
            m = c.request("malloc", size=64)
            assert m["ok"]
            c.close()
        assert srv.protocol_errors == 1

    def test_request_before_hello_rejected(self):
        srv = _server()
        with srv as (host, port):
            conn = socket.create_connection((host, port))
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            conn.sendall(protocol.encode({"op": "malloc", "req": 0,
                                          "size": 64}))
            r = json.loads(reader.readline())
            assert r["error"] == "protocol"
            conn.close()
        assert srv.protocol_errors == 1

    def test_unknown_op_rejected_in_session(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            r = c.request("realloc")
            assert r["error"] == "protocol" and "unknown op" in r["detail"]
            c.close()
        assert srv.protocol_errors == 1

    def test_non_utf8_line_is_counted_and_answered(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            c.conn.settimeout(5.0)
            c.conn.sendall(b"\xff\xfe\n" + protocol.encode(
                {"op": "malloc", "req": 0, "size": 64}))
            r = json.loads(c.reader.readline())
            assert r["error"] == "protocol" and "UTF-8" in r["detail"]
            m = json.loads(c.reader.readline())
            assert m["ok"] and m["req"] == 0
            c.close()
        assert srv.protocol_errors == 1

    def test_overlong_partial_line_is_answered_and_closes_the_session(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            c.conn.settimeout(5.0)
            c.conn.sendall(b"x" * (protocol.MAX_LINE + 1))
            replies = [json.loads(line) for line in c.reader]
            c.conn.close()
        assert len(replies) == 1
        assert replies[0]["error"] == "protocol"
        assert str(protocol.MAX_LINE) in replies[0]["detail"]
        assert srv.protocol_errors == 1


class _StuckSocket(socket.socket):
    """A session socket whose peer has stopped reading."""

    def sendall(self, data, flags=0):
        raise socket.timeout("timed out")


class TestSendTimeout:
    def test_a_session_whose_send_times_out_is_dropped(self):
        srv = _server()
        srv._sel = selectors.DefaultSelector()
        pairs = [socket.socketpair() for _ in range(2)]
        try:
            stuck = _Session(_StuckSocket(fileno=pairs[0][0].detach()))
            ok = _Session(pairs[1][0])
            for sess in (stuck, ok):
                sess.tenant = 0
                srv._sel.register(sess.conn, selectors.EVENT_READ, sess)
            srv._run_batch([(stuck, Request("stats")),
                            (ok, Request("stats"))])
            assert not stuck.open and stuck.conn.fileno() == -1
            assert ok.open
            assert set(k.data for k in srv._sel.get_map().values()) == {ok}
            pairs[1][1].settimeout(5.0)
            reply = json.loads(pairs[1][1].makefile("r").readline())
            assert reply["ok"] and reply["op"] == "stats"
        finally:
            srv._sel.close()
            for a, b in pairs:
                a.close()
                b.close()


class TestConcurrentTenants:
    N_TENANTS = 9  # the acceptance bar is >= 8
    OPS_EACH = 12

    def test_many_concurrent_sessions_zero_protocol_errors(self):
        srv = _server()
        errors = []

        def tenant_session(host, port, tenant):
            try:
                c = _Client(host, port, tenant)
                assert c.hello["ok"]
                addrs = []
                for i in range(self.OPS_EACH):
                    m = c.request("malloc", size=64 + 32 * tenant)
                    assert m["ok"], m
                    addrs.append(m["addr"])
                for a in addrs:
                    f = c.request("free", addr=a)
                    assert f["ok"], f
                c.close()
            except BaseException as e:  # surfaced after the join
                errors.append((tenant, e))

        with srv as (host, port):
            threads = [
                threading.Thread(target=tenant_session,
                                 args=(host, port, t), daemon=True)
                for t in range(self.N_TENANTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "a tenant session hung"
        assert errors == []
        assert srv.protocol_errors == 0
        totals = srv.engine.totals()
        assert totals.n_malloc == self.N_TENANTS * self.OPS_EACH
        assert totals.n_malloc_failed == 0
        assert totals.n_free == self.N_TENANTS * self.OPS_EACH
        assert srv.engine.live_allocations == 0
        # every tenant got its own ledger, and they never bled together
        assert len(srv.engine.stats) == self.N_TENANTS
        for t in range(self.N_TENANTS):
            st = srv.engine.stats[t]
            assert st.bytes_requested == self.OPS_EACH * (64 + 32 * t)
            assert st.bytes_served == st.bytes_requested
