"""Server half of the serve_mix workload, run as a child process.

Starts a :class:`repro.serve.server.ServeServer` over a fresh
``ServeEngine`` on an ephemeral loopback port and prints one JSON line
``{"ready": [host, port], "start_s": [raw, reference]}``: the seconds
from importing the service to a listening server, raw and at the
reference host's speed (calibrated here, on this process's CPU).  It then waits for a line on stdin, calls
``ServeServer.stop()`` (timed: teardown is reported, never hidden) and
prints one JSON line with the teardown figures, the engine snapshot,
per-run scheduler deltas and, with ``--trace 1``, the stage timings
from span wrappers around the protocol functions, the batcher and
``ServeEngine.submit``.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/serve_child.py --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

from calib import calib_pass, to_ref
from layers import Patches, RunCounter, SpanRecorder, percentile
from servemix import POOL


class StageTimer:
    """Per-request stage timings from wrappers around public entry points.

    * parse: ``protocol.decode_line`` + ``protocol.parse_request``;
    * queue wait: parse end to the start of the batch that carries the
      request (``ServeServer._run_batch``, the batcher's per-batch call);
    * episode: ``ServeEngine.submit``;
    * reply: from ``submit`` returning to the encode of the request's
      reply, which the session writes straight after.
    """

    def __init__(self, spans: SpanRecorder) -> None:
        self.spans = spans
        self.parse_us: list = []
        self.encode_us: list = []
        self.queue_wait_ms: list = []
        self.reply_ms: list = []
        self._parsed: dict = {}      # id(request) -> (request, parse end)
        # decode_line and parse_request run back to back on one session
        # thread: the decode start waits thread-locally for the parse
        self._decode_start = threading.local()
        self._submit_end = threading.local()
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        from repro.serve import protocol
        from repro.serve.engine import ServeEngine
        from repro.serve.server import ServeServer
        from repro.sim.scheduler import Scheduler

        timer = self
        spans = self.spans
        decode, parse, encode = (protocol.decode_line, protocol.parse_request,
                                 protocol.encode)

        def decode_line(line):
            timer._decode_start.t = time.perf_counter()
            return spans.call("protocol.decode_line", decode, line)

        def parse_request(msg):
            req = spans.call("protocol.parse_request", parse, msg)
            end = time.perf_counter()
            start = getattr(timer._decode_start, "t", None)
            timer._decode_start.t = None
            with timer._lock:
                timer._parsed[id(req)] = (req, end)
                if start is not None:
                    timer.parse_us.append((end - start) * 1e6)
            return req

        def encode_msg(msg):
            t = time.perf_counter()
            data = spans.call("protocol.encode", encode, msg)
            end = time.perf_counter()
            with timer._lock:
                timer.encode_us.append((end - t) * 1e6)
            submit_end = getattr(timer._submit_end, "t", None)
            if submit_end is not None and "req" in msg:
                timer.reply_ms.append((end - submit_end) * 1e3)
            return data

        run_batch = ServeServer._run_batch

        def batch(server, entries):
            start = time.perf_counter()
            with timer._lock:
                for _sess, req in entries:
                    got = timer._parsed.pop(id(req), None)
                    if got is not None:
                        timer.queue_wait_ms.append((start - got[1]) * 1e3)
            timer._submit_end.t = None
            try:
                return spans.call("ServeServer._run_batch", run_batch,
                                  server, entries)
            finally:
                timer._submit_end.t = None

        submit = ServeEngine.submit

        def submit_batch(engine, reqs):
            out = spans.call("ServeEngine.submit", submit, engine, reqs)
            timer._submit_end.t = time.perf_counter()
            return out

        patches.set(protocol, "decode_line", decode_line)
        patches.set(protocol, "parse_request", parse_request)
        patches.set(protocol, "encode", encode_msg)
        patches.set(ServeServer, "_run_batch", batch)
        patches.set(ServeEngine, "submit", submit_batch)
        spans.wrap(patches, Scheduler, "run", "Scheduler.run")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None,
                    help="write the child's spans here (traced runs)")
    args = ap.parse_args()

    before = calib_pass()
    t = time.perf_counter()
    from repro.serve.engine import ServeEngine
    from repro.serve.server import ServeServer

    patches = Patches()
    counter = RunCounter()
    counter.install(patches)
    spans = SpanRecorder()
    timer = StageTimer(spans)
    if args.trace:
        timer.install(patches)
    engine = ServeEngine(backend="ours", pool=POOL, seed=args.seed)
    server = ServeServer(engine)
    host, port = server.start()
    start_s = time.perf_counter() - t
    print(json.dumps({"ready": [host, port], "start_s": [
        start_s, to_ref(start_s, before, calib_pass())]}), flush=True)

    sys.stdin.readline()  # the parent's stop request (or EOF)
    t = time.perf_counter()
    server.stop()
    stop_s = time.perf_counter() - t
    left = [th.name for th in threading.enumerate()
            if th.name.startswith("serve-") and th.is_alive()]
    patches.restore()

    submit_ms = [d * 1e3 for d in spans.durations("ServeEngine.submit")]
    episodes = engine.episodes
    out = {
        "stop_s": stop_s,
        "threads_after_stop": len(left),
        "protocol_errors": server.protocol_errors,
        "snapshot": engine.snapshot(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "stages": {
            "parse_us_p50": percentile(timer.parse_us, 50),
            "encode_us_p50": percentile(timer.encode_us, 50),
            "queue_wait_ms_p50": percentile(timer.queue_wait_ms, 50),
            "queue_wait_ms_p99": percentile(timer.queue_wait_ms, 99),
            "reply_ms_p50": percentile(timer.reply_ms, 50),
            "episode_ms_p50": percentile(submit_ms, 50),
            "episode_ms_p99": percentile(submit_ms, 99),
            "batch_mean": engine.requests / episodes if episodes else 0.0,
            "events_per_episode": counter.events / episodes
            if episodes else 0.0,
        },
    }
    if args.trace and args.spans_out:
        spans.dump(Path(args.spans_out), {"process": "serve-child"})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
