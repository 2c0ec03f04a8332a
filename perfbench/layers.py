"""Outside-in instrumentation for the benchmark.

Nothing here edits the program under test; every layer is measured
from the benchmark's own files:

* :class:`RunCounter` wraps ``Scheduler.run`` and turns the scheduler's
  *cumulative* ``SimReport.events`` / ``.cycles`` into per-run deltas
  (a reused scheduler keeps counting across ``run()`` calls, so summing
  raw reports over-counts).  It is cheap enough to stay on in untimed
  and timed passes alike.
* :class:`SpanRecorder` wraps public entry points and records one span
  per call: name, start, end, parent.  Spans stay in memory and are
  written out once, at the end of a traced run.
* :func:`profile_layers` reduces a cProfile pass to self time
  (``tottime``) and call counts grouped by ``repro`` module path.
* :class:`TieCounter` wraps the scheduler module's heap pops in a
  separate counting pass to measure how often consecutive events share
  a virtual timestamp.
* :class:`RefClock` times calls between passes of a fixed calibration
  kernel and scales them to the reference host's speed, so that host
  drift does not read as a change in the program's cost.
"""

from __future__ import annotations

import cProfile
import heapq
import itertools
import json
import pstats
import statistics
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from calib import calib_pass, to_ref

#: layer name -> path fragments (relative to the ``repro`` package)
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.scheduler", ("sim/scheduler.py", "sim/engine_batch.py")),
    ("sim.device", ("sim/memory.py", "sim/ops.py", "sim/device.py",
                    "sim/cost_model.py")),
    ("sync", ("sync/",)),
    ("core", ("core/",)),
    ("baselines", ("baselines/", "backends/")),
    ("bench", ("bench/",)),
    ("workloads", ("workloads/",)),
    ("serve", ("serve/",)),
)

_HEAP_OPS = ("<built-in method _heapq.heappop>",
             "<built-in method _heapq.heappush>",
             "<built-in method _heapq.heappushpop>")
_GEN_SEND = "<method 'send' of 'generator' objects>"


def layer_of(filename: str) -> str:
    """Layer name for a profiled code object's file (``interp`` for C
    builtins, ``other`` for stdlib and the benchmark itself)."""
    if filename == "~" or filename.startswith("<"):
        return "interp"
    norm = filename.replace("\\", "/")
    cut = norm.rfind("/repro/")
    if cut < 0:
        return "other"
    rel = norm[cut + len("/repro/"):]
    for name, frags in LAYERS:
        if any(rel.startswith(f) for f in frags):
            return name
    return "other"


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      -(-int(pct * len(ordered)) // 100) - 1))
    return ordered[rank]


def windowed_percentile(values: Sequence[float], pct: float,
                        windows: int) -> float:
    """Median over ``windows`` consecutive slices of ``values`` of each
    slice's percentile: a stall of the shared host moves one slice's
    figure, not the run's."""
    n = len(values)
    return statistics.median(
        percentile(values[i * n // windows:(i + 1) * n // windows], pct)
        for i in range(windows))


# ----------------------------------------------------------------------
# patching helper
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ----------------------------------------------------------------------
# per-run scheduler deltas
# ----------------------------------------------------------------------
class RunCounter:
    """Per-``run()`` event and cycle deltas of every scheduler.

    ``SimReport.events`` and ``.cycles`` are cumulative over a reused
    scheduler's lifetime, so each report is diffed against the last one
    the same scheduler produced.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.cycles = 0
        #: (events, cycles) delta of every run, in call order
        self.deltas: List[Tuple[int, int]] = []
        #: (events, cycles) as each SimReport gave them (cumulative)
        self.reported: List[Tuple[int, int]] = []
        self._last: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        from repro.sim.scheduler import Scheduler

        orig = Scheduler.run
        counter = self

        def run(sched, *args, **kwargs):
            report = orig(sched, *args, **kwargs)
            counter.record(sched, report)
            return report

        patches.set(Scheduler, "run", run)

    def record(self, sched, report) -> Tuple[int, int]:
        with self._lock:
            prev_events, prev_cycles = self._last.get(sched, (0, 0))
            delta = (report.events - prev_events, report.cycles - prev_cycles)
            self._last[sched] = (report.events, report.cycles)
            self.runs += 1
            self.events += delta[0]
            self.cycles += delta[1]
            self.deltas.append(delta)
            self.reported.append((report.events, report.cycles))
        return delta

    def reset(self) -> None:
        with self._lock:
            self.runs = self.events = self.cycles = 0
            self.deltas.clear()
            self.reported.clear()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans ``(id, name, start, end, parent, thread)``.

    Parents come from a per-thread stack, so a span opened inside
    another wrapped call on the same thread is its child.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident()))

    def wrap(self, patches: Patches, owner: object, attr: str,
             name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        fn = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            return rec.call(name, fn, *args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", attr)
        patches.set(owner, attr, wrapper)

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        child_time: Dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            own = (end - start) - child_time.get(sid, 0.0)
            out[name] = out.get(name, 0.0) + own
        return out

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write every span plus per-name self time as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
            "spans": [[sid, name, round(a - t0, 9), round(b - t0, 9),
                       parent, thread]
                      for sid, name, a, b, parent, thread in self.spans],
            "self_s": {k: round(v, 9)
                       for k, v in sorted(self.self_times().items())},
        }
        if extra:
            doc.update(extra)
        path.write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# cProfile grouping
# ----------------------------------------------------------------------
def profile_call(fn: Callable[[], object]) -> Tuple[object, pstats.Stats]:
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, pstats.Stats(prof)


def profile_layers(stats: pstats.Stats) -> dict:
    """Self time, call counts and interpreter counters per layer."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    heap_ops = 0
    gen_sends = 0
    total = 0.0
    for (filename, _line, name), (_cc, nc, tt, _ct, callers) in \
            stats.stats.items():
        layer = layer_of(filename)
        self_s[layer] = self_s.get(layer, 0.0) + tt
        calls[layer] = calls.get(layer, 0) + nc
        total += tt
        if filename == "~":
            if name in _HEAP_OPS:
                heap_ops += sum(c[1] for f, c in callers.items()
                                if layer_of(f[0]) == "sim.scheduler")
            elif name == _GEN_SEND:
                gen_sends += nc
    return {"self_s": self_s, "calls": calls, "total_s": total,
            "heap_ops": heap_ops, "gen_sends": gen_sends}


# ----------------------------------------------------------------------
# same-timestamp ties
# ----------------------------------------------------------------------
class TieCounter:
    """Counts popped events whose virtual time equals the previous one.

    Wraps the ``heappop`` / ``heappushpop`` names the scheduler module
    resolves at the start of each ``run()``.  An event delivered without
    a heap call (the fast loop's deferred entry on an otherwise empty
    heap) is not seen; that only happens when one thread is live.
    """

    def __init__(self) -> None:
        self.popped = 0
        self.ties = 0
        self._last = None

    def install(self, patches: Patches) -> None:
        from repro.sim import scheduler as sched_mod

        def seen(entry):
            t = entry[0]
            if t == self._last:
                self.ties += 1
            self._last = t
            self.popped += 1
            return entry

        pop, pushpop = heapq.heappop, heapq.heappushpop
        patches.set(sched_mod, "heappop", lambda h: seen(pop(h)))
        patches.set(sched_mod, "heappushpop",
                    lambda h, item: seen(pushpop(h, item)))

    @property
    def share(self) -> float:
        return self.ties / self.popped if self.popped else 0.0


# ----------------------------------------------------------------------
# host calibration
# ----------------------------------------------------------------------
class RefClock:
    """Host time scaled to the reference host's speed.

    The speed of a shared host drifts by up to 2x over seconds, for code
    and calibration kernel alike.  A *stretch* of measured host time
    lies between two calibration passes and is scaled by ``CALIB_REF_S``
    over their mean, so a measurement follows the program's cost rather
    than the host's current speed.  :meth:`call` makes one call a
    stretch; :meth:`open` and :meth:`close` bracket several short calls.
    Consecutive stretches share the pass between them; :meth:`reset`
    drops it after a pause (a collection, a check).  With
    ``scaled=False`` it runs no passes and reports raw time twice (for
    profiled passes, whose profile the passes would dilute).
    """

    def __init__(self, scaled: bool = True) -> None:
        self.scaled = scaled
        self._before: Optional[float] = None
        #: every calibration pass, in seconds
        self.passes: List[float] = []

    def reset(self) -> None:
        self._before = None

    def _pass(self) -> float:
        s = calib_pass()
        self.passes.append(s)
        return s

    def open(self) -> None:
        """Take the pass that opens a stretch, unless one is fresh."""
        if self.scaled and self._before is None:
            self._before = self._pass()

    def close(self, raw: float) -> float:
        """Take the pass that closes a stretch of ``raw`` host seconds;
        those seconds at reference speed."""
        if not self.scaled:
            return raw
        after = self._pass()
        ref = to_ref(raw, self._before, after)
        self._before = after
        return ref

    def call(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """``(fn(), raw host seconds, reference seconds)``."""
        self.open()
        t = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t
        return result, raw, self.close(raw)

    @property
    def calib_ms(self) -> float:
        """Median calibration pass of the run, in ms (host drift)."""
        return statistics.median(self.passes) * 1e3 if self.passes else 0.0
