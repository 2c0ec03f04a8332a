"""``python -m repro serve bench``: the CI serve-smoke gate."""

from __future__ import annotations

import threading

from repro.serve import cli
from repro.serve.server import ServeServer

_ARGS = ["bench", "--events", "40", "--tenants", "2", "--pool", "4194304"]


def test_bench_passes_and_reports_no_leaked_thread(capsys):
    assert cli.main(_ARGS) == 0
    out = capsys.readouterr().out
    assert "0 leaked threads" in out


def test_bench_reconciles_when_the_backend_returns_null(capsys):
    """A 256 KiB pool fails a dozen or more mallocs however the requests
    batch: the client skips their frees, which the server never sees,
    and the ledgers must still agree."""
    args = ["bench", "--events", "40", "--tenants", "2", "--pool", "262144"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "'null':" in out
    assert "MISMATCH" not in out


def test_bench_fails_on_a_serve_thread_alive_after_stop(monkeypatch, capsys):
    release = threading.Event()
    stop = ServeServer.stop

    def leaky_stop(self):
        stop(self)
        threading.Thread(target=release.wait, name="serve-stuck",
                         daemon=True).start()

    monkeypatch.setattr(ServeServer, "stop", leaky_stop)
    try:
        assert cli.main(_ARGS) == 1
    finally:
        release.set()
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "alive after stop: serve-stuck" in out
