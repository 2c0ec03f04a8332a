#!/usr/bin/env python3
"""The repository benchmark: three workloads behind one command.

Run from the repository root::

    python3 perfbench/run.py --workload alloc_storm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that reports the per-layer metrics
(cProfile self time grouped by module path, span wrappers around public
entry points) and writes its spans under ``.perfbench_out/``.  Both
check the program's outputs; on any mismatch the result says
``"correct": false`` and the exit code is 1.  ``--record-reference``
rewrites ``reference.json`` from a run at the default seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file for what each workload and metric means.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
#: each set-up step is repeated this often and its median taken
SETUP_REPS = 7
#: host seconds of serve episodes scaled together between two passes
FEED_STRETCH_S = 0.02
WORKLOADS = ("alloc_storm", "cohort_sync", "serve_mix")

#: (name, unit) reported with tracing off, for every workload
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("sim_events_per_s", "1/s"),
    ("virtual_cycles", "cycles"), ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"), ("p99_ms", "ms"), ("goodput_rps", "1/s"),
)
#: (name, unit) reported by the traced run, for every workload; a layer
#: the workload never enters reads 0
PER_LAYER = (
    ("sim.scheduler.self_share", "share"), ("sim.scheduler.ns_per_event", "ns"),
    ("sim.scheduler.events", "count"), ("sim.scheduler.runs", "count"),
    ("sim.scheduler.heap_ops_per_event", "count"),
    ("sim.scheduler.tie_share", "share"),
    ("sim.device.self_share", "share"), ("sim.device.calls_per_event", "count"),
    ("sync.self_share", "share"), ("sync.calls_per_event", "count"),
    ("core.self_share", "share"), ("core.calls_per_event", "count"),
    ("core.mallocs", "count"), ("core.null_rate", "share"),
    ("baselines.self_share", "share"), ("bench.self_share", "share"),
    ("workloads.self_share", "share"),
    ("interp.builtin_share", "share"), ("interp.gen_resumes_per_event", "count"),
    ("serve.protocol.parse_us_p50", "us"), ("serve.protocol.encode_us_p50", "us"),
    ("serve.admission.decline_rate", "share"),
    ("serve.engine.episodes", "count"), ("serve.engine.batch_mean", "count"),
    ("serve.engine.episode_ms_p50", "ms"), ("serve.engine.episode_ms_p99", "ms"),
    ("serve.engine.events_per_episode", "count"),
    ("serve.server.queue_wait_ms_p50", "ms"),
    ("serve.server.queue_wait_ms_p99", "ms"),
    ("serve.server.reply_ms_p50", "ms"), ("serve.server.stop_s", "s"),
    ("serve.server.threads_after_stop", "count"),
    ("loadgen.late_ms_p99", "ms"), ("loadgen.samples.low", "count"),
    ("loadgen.samples.high", "count"), ("loadgen.p50_ms.low", "ms"),
    ("loadgen.p99_ms.low", "ms"),
    ("fail_rate", "share"), ("host.trace_overhead", "ratio"),
    ("host.calib_ms", "ms"), ("host.wall_raw_s", "s"),
    ("host.setup_raw_s", "s"),
)
_LAYER_SHARES = ("sim.scheduler", "sim.device", "sync", "core", "baselines",
                 "bench", "workloads")
#: the program modules each workload imports before its first operation
IMPORTS = {
    "alloc_storm": ("repro.backends", "repro.bench.fig7",
                    "repro.bench.shootout"),
    "cohort_sync": ("repro.bench.fig6", "repro.bench.lockstep"),
    "serve_mix": ("repro.serve.bench", "repro.serve.engine",
                  "repro.serve.server", "repro.workloads"),
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: extra human-readable lines (sample counts, calibration, ...)
    notes: List[str] = field(default_factory=list)
    #: why the measurement is invalid (no result is reported)
    invalid: Optional[str] = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Setup(NamedTuple):
    """Set-up time: raw host seconds and seconds at reference speed."""

    raw: float
    ref: float

    def __add__(self, other):
        return Setup(self.raw + other.raw, self.ref + other.ref)


def median_setup(samples: List[Setup]) -> Setup:
    return Setup(statistics.median(s.raw for s in samples),
                 statistics.median(s.ref for s in samples))


def import_seconds(workload: str, reps: int = SETUP_REPS) -> Setup:
    """Median seconds a fresh interpreter takes to import the program
    modules ``workload`` uses (this process pays the same once).

    The child calibrates itself: it may run on the other CPU, whose
    speed this process's passes do not see."""
    code = ("import time; from calib import calib_pass, to_ref; "
            "before = calib_pass(); t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in IMPORTS[workload])
            + "; took = time.perf_counter() - t; "
            "print(took, to_ref(took, before, calib_pass()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        samples.append(Setup(*map(float, proc.stdout.split())))
    return median_setup(samples)


def check_reference(workload: str, signature, out: Outcome) -> None:
    """Compare a default-seed signature with ``reference.json``."""
    ref = (json.loads(REFERENCE.read_text()).get(workload)
           if REFERENCE.is_file() else None)
    if ref is None:
        out.problems.append(f"no reference recorded for {workload}")
        return
    got = json.loads(json.dumps(signature))
    if got != ref["signature"]:
        want = {json.dumps(x, sort_keys=True) for x in ref["signature"]}
        diff = [x for x in got if json.dumps(x, sort_keys=True) not in want]
        out.problems.append(
            f"virtual outputs at seed {DEFAULT_SEED} differ from "
            f"reference.json: {json.dumps(diff)[:400]}")


def layer_metrics(prof: dict, events: int, base_wall: float) -> dict:
    """Per-layer shares and rates from one grouped cProfile pass."""
    total = prof["total_s"] or 1.0
    share = {k: prof["self_s"].get(k, 0.0) / total for k in _LAYER_SHARES}
    ev = events or 1
    m = {f"{k}.self_share": v for k, v in share.items()}
    m.update({
        "sim.scheduler.ns_per_event":
            share["sim.scheduler"] * base_wall / ev * 1e9,
        "sim.scheduler.heap_ops_per_event": prof["heap_ops"] / ev,
        "sim.device.calls_per_event":
            prof["calls"].get("sim.device", 0) / ev,
        "sync.calls_per_event": prof["calls"].get("sync", 0) / ev,
        "core.calls_per_event": prof["calls"].get("core", 0) / ev,
        "interp.builtin_share": prof["self_s"].get("interp", 0.0) / total,
        "interp.gen_resumes_per_event": prof["gen_sends"] / ev,
    })
    return m


# ----------------------------------------------------------------------
# the simulated workloads
# ----------------------------------------------------------------------
@dataclass
class Unit:
    wall: float
    #: ``wall`` at reference host speed, and each job's latency so scaled
    ref_wall: float
    job_ms: List[float]
    signature: list
    events: int
    cycles: int
    ops: int
    failed: int
    core_mallocs: int
    core_nulls: int
    runs: int


def run_unit(jobs, counter, clock) -> Unit:
    """Every job once, in order; the unit's timings and virtual outputs.

    A full collection first, so garbage left by earlier units is not
    charged to this one."""
    gc.collect()
    counter.reset()
    clock.reset()
    sig, job_ms = [], []
    ops = failed = mallocs = nulls = 0
    wall = ref_wall = 0.0
    for job in jobs:
        before = counter.events
        (virtual, counts), raw, ref = clock.call(job.run)
        wall += raw
        ref_wall += ref
        job_ms.append(ref * 1e3)
        virtual["events"] = counter.events - before
        sig.append([job.name, virtual])
        ops += counts.ops
        failed += counts.failed
        if job.core:
            mallocs += counts.mallocs
            nulls += counts.nulls
    return Unit(wall, ref_wall, job_ms, sig, counter.events, counter.cycles,
                ops, failed, mallocs, nulls, counter.runs)


def run_sim(workload: str, seed: int, seconds: float, traced: bool,
            out: Outcome) -> None:
    import simwork
    from layers import (Patches, RefClock, RunCounter, SpanRecorder,
                        TieCounter, percentile, profile_call, profile_layers)
    from repro.sim.cost_model import DEFAULT_COST_MODEL

    clock = RefClock()
    imported = import_seconds(workload)
    builds = []
    for _ in range(SETUP_REPS):
        clock.reset()
        jobs, raw, ref = clock.call(
            lambda: simwork.build_inputs(workload, seed))
        builds.append(Setup(raw, ref))
    setup = imported + median_setup(builds)
    # profiled and counting passes run without calibration passes, which
    # would otherwise show up in the profile
    unscaled = RefClock(scaled=False)

    patches = Patches()
    counter = RunCounter()
    counter.install(patches)
    try:
        units: List[Unit] = []
        start = time.perf_counter()
        plain_until = start + (0.4 * seconds if traced else seconds)
        while not units or time.perf_counter() < plain_until:
            units.append(run_unit(jobs, counter, clock))
        if traced:
            spans = SpanRecorder()
            sp = Patches()
            from repro.bench import fig6, fig7, lockstep, shootout
            from repro.sim.scheduler import Scheduler
            for mod, attr in ((fig7, "run_size"), (shootout, "run"),
                              (lockstep, "run_one"), (fig6, "run_one")):
                spans.wrap(sp, mod, attr, f"{mod.__name__}.{attr}")
            spans.wrap(sp, Scheduler, "run", "Scheduler.run")
            try:
                prof_unit, stats = profile_call(
                    lambda: run_unit(jobs, counter, unscaled))
            finally:
                sp.restore()
            ties = TieCounter()
            tp = Patches()
            ties.install(tp)
            try:
                tie_unit = run_unit(jobs, counter, unscaled)
            finally:
                tp.restore()
            units += [prof_unit, tie_unit]
        if seed != DEFAULT_SEED:
            ref_unit = run_unit(simwork.JOBS[workload](DEFAULT_SEED),
                                counter, unscaled)
    finally:
        patches.restore()

    first = units[0].signature
    for i, u in enumerate(units[1:], 1):
        if u.signature != first:
            out.problems.append(
                f"repeat {i} changed the virtual outputs at seed {seed}")
            break
    check_reference(workload, first if seed == DEFAULT_SEED
                    else ref_unit.signature, out)
    bad = [name for name, v in first if v.get("ok") is False]
    if bad:
        out.problems.append(f"jobs failed their own checks: {bad}")

    calib = clock.calib_ms
    timed = units[:-2] if traced else units
    u0 = timed[0]
    wall = statistics.median(u.ref_wall for u in timed)
    raw_wall = statistics.median(u.wall for u in timed)
    out.attempted = sum(u.ops for u in units)
    out.failed = sum(u.failed for u in units)
    job_ms = [ms for u in timed for ms in u.job_ms]
    out.notes += [
        f"units timed: {len(timed)} x {len(jobs)} jobs "
        f"({len(job_ms)} job-latency samples)",
        f"events per unit: {u0.events}  virtual cycles per unit: {u0.cycles}",
        f"fail_rate: {u0.failed / u0.ops:.6f}  host.calib_ms: {calib:.3f}",
    ]
    if not traced:
        out.metrics.update({
            "setup_s": setup.ref,
            "wall_s": wall,
            "sim_events_per_s": u0.events / wall,
            "virtual_cycles": u0.cycles,
            "peak_rss_mb": peak_rss_mb(),
            # each unit's percentile, then the median over units: a
            # stall of the shared host moves one unit's figure, not the
            # run's, and a pooled median would fall in the gap between
            # two job kinds
            "p50_ms": statistics.median(percentile(u.job_ms, 50)
                                        for u in timed),
            "p99_ms": statistics.median(percentile(u.job_ms, 99)
                                        for u in timed),
            # the modeled device's goodput: successful simulated
            # operations per simulated second
            "goodput_rps": (u0.ops - u0.failed)
            / DEFAULT_COST_MODEL.seconds(u0.cycles),
        })
        return

    OUT_DIR.mkdir(exist_ok=True)
    spans.dump(OUT_DIR / f"{workload}-seed{seed}-spans.json",
               {"workload": workload, "seed": seed})
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(layer_metrics(profile_layers(stats), prof_unit.events, wall))
    m.update({
        "sim.scheduler.events": prof_unit.events,
        "sim.scheduler.runs": prof_unit.runs,
        "sim.scheduler.tie_share": ties.share,
        "core.mallocs": prof_unit.core_mallocs,
        "core.null_rate": (prof_unit.core_nulls / prof_unit.core_mallocs
                           if prof_unit.core_mallocs else 0.0),
        "fail_rate": u0.failed / u0.ops,
        "host.trace_overhead": prof_unit.wall / raw_wall,
        "host.calib_ms": calib,
        "host.wall_raw_s": raw_wall,
        "host.setup_raw_s": setup.raw,
    })
    out.metrics.update(m)


# ----------------------------------------------------------------------
# the served workload
# ----------------------------------------------------------------------
class Feed(NamedTuple):
    """One deterministic feed: host seconds of its episodes (raw and at
    reference speed) and its virtual outputs."""

    wall: float
    ref_wall: float
    signature: list
    events: int
    cycles: int
    runs: int


def serve_feed(trace, seed: int, counter, clock) -> Feed:
    """Feed ``trace`` through a fresh ServeEngine in fixed batches.

    Its time is that of the episodes, the ``ServeEngine.submit`` calls,
    scaled by ``clock`` in stretches of about ``FEED_STRETCH_S`` (a whole
    feed is long enough for the host's speed to change within it, and
    an episode is too short to be worth a calibration pass of its own)."""
    from repro.serve.bench import feed_trace
    from repro.serve.engine import ServeEngine
    import servemix

    gc.collect()
    engine = ServeEngine(backend="ours", pool=servemix.POOL, seed=seed)
    submit = engine.submit
    wall = ref_wall = stretch = 0.0

    def timed_submit(batch):
        nonlocal wall, ref_wall, stretch
        t = time.perf_counter()
        outcomes = submit(batch)
        raw = time.perf_counter() - t
        wall += raw
        stretch += raw
        if stretch >= FEED_STRETCH_S:
            ref_wall += clock.close(stretch)
            stretch = 0.0
        return outcomes

    engine.submit = timed_submit
    counter.reset()
    clock.reset()
    clock.open()
    fed = feed_trace(engine, trace, batch_max=servemix.FEED_BATCH)
    if stretch:
        ref_wall += clock.close(stretch)
    snap = engine.snapshot()
    sig = [["feed", {"events": counter.events, "cycles": counter.cycles,
                     "runs": counter.runs, "episodes": fed.episodes,
                     "dependency_flushes": fed.dependency_flushes,
                     "latency_p50": snap["latency_p50"],
                     "latency_p99": snap["latency_p99"],
                     "tenants": snap["tenants"]}]]
    return Feed(wall, ref_wall, sig, counter.events, counter.cycles,
                counter.runs)


def delta_selfcheck(out: Outcome) -> None:
    """Pin the per-run delta logic: three 4-request submits on one
    engine report cumulative counts; their deltas must add up to the
    last report, which the naive sum of reports exceeds."""
    from layers import Patches, RunCounter
    from repro.serve.engine import ServeEngine, ServeRequest
    import servemix

    patches = Patches()
    counter = RunCounter()
    counter.install(patches)
    try:
        engine = ServeEngine(backend="ours", pool=servemix.POOL, seed=0)
        for _ in range(3):
            engine.submit([ServeRequest(0, "malloc", size=64)
                           for _ in range(4)])
    finally:
        patches.restore()
    raw = [events for events, _ in counter.reported]
    deltas = [events for events, _ in counter.deltas]
    if (len(raw) != 3 or sum(deltas) != raw[-1]
            or any(b <= a for a, b in zip(raw, raw[1:]))
            or sum(raw) <= raw[-1]):
        out.problems.append(
            f"per-run delta self-check failed: reported {raw}, "
            f"deltas {deltas}")


def run_serve(seed: int, seconds: float, traced: bool, out: Outcome) -> None:
    import servemix
    from layers import (Patches, RefClock, RunCounter, SpanRecorder,
                        TieCounter, percentile, profile_call, profile_layers,
                        windowed_percentile)
    from repro.workloads import replay

    clock = RefClock()
    unscaled = RefClock(scaled=False)
    imported = import_seconds("serve_mix")
    gens = []
    for _ in range(SETUP_REPS):
        clock.reset()
        (traces, feed), raw, ref = clock.call(lambda: (
            servemix.phase_traces(seed, seconds),
            servemix.feed_trace_for(seed)))
        gens.append(Setup(raw, ref))
    OUT_DIR.mkdir(exist_ok=True)
    child_spans = OUT_DIR / f"serve_mix-seed{seed}-child-spans.json"
    patches = Patches()
    counter = RunCounter()
    counter.install(patches)
    feeds: List[Feed] = []

    def feed_for(share: float) -> None:
        """Repeat the feed for ``share`` of ``--seconds`` (twice at least)."""
        until = time.perf_counter() + share * seconds
        n = len(feeds) + 2
        while len(feeds) < n or time.perf_counter() < until:
            feeds.append(serve_feed(feed, seed, counter, clock))

    try:
        child = servemix.ServerChild(seed, traced,
                                     child_spans if traced else None)
        try:
            clock.reset()
            gen, raw, ref = clock.call(
                lambda: servemix.LoadGen(child.address))
            _, raw2, ref2 = clock.call(gen.hello)
            setup = (imported + median_setup(gens) + Setup(*child.start_s)
                     + Setup(raw + raw2, ref + ref2))
            # the feed runs before and after the phases, so its median
            # samples the host over the whole run
            feed_for(servemix.FEED_SHARE / 2)
            # the load generator's own collections would delay the
            # reader and read as server latency: what this process
            # holds so far is moved out of the collector's reach
            gc.collect()
            gc.freeze()
            try:
                phases = [gen.run_phase(name, rate, tr)
                          for name, rate, tr in traces]
            finally:
                gc.unfreeze()
            snapshot = gen.control({"op": "stats"})
            for i in range(len(gen.conns)):
                gen.control({"op": "bye"}, conn=i)
            gen.close()
            report = child.stop()
        except BaseException:
            child.kill()
            raise
        feed_for(servemix.FEED_SHARE / (4 if traced else 2))
        n_timed = len(feeds)
        if traced:
            spans = SpanRecorder()
            sp = Patches()
            from repro.serve import bench as serve_bench
            from repro.serve.engine import ServeEngine
            from repro.sim.scheduler import Scheduler
            spans.wrap(sp, serve_bench, "feed_trace", "serve.bench.feed_trace")
            spans.wrap(sp, ServeEngine, "submit", "ServeEngine.submit")
            spans.wrap(sp, Scheduler, "run", "Scheduler.run")
            try:
                (prof_feed, _), stats = profile_call(lambda: (
                    serve_feed(feed, seed, counter, unscaled),
                    servemix.phase_traces(seed, seconds)))
            finally:
                sp.restore()
            ties = TieCounter()
            tp = Patches()
            ties.install(tp)
            try:
                serve_feed(feed, seed, counter, unscaled)
            finally:
                tp.restore()
            feeds.append(prof_feed)
        ref_feed = (feeds[0] if seed == DEFAULT_SEED else
                    serve_feed(servemix.feed_trace_for(DEFAULT_SEED),
                               DEFAULT_SEED, counter, unscaled))
    finally:
        patches.restore()

    # correctness: determinism, reference, three-way ledgers, protocol
    for f in feeds[1:]:
        if f.signature != feeds[0].signature:
            out.problems.append(f"feed repeat changed virtual outputs at "
                                f"seed {seed}")
            break
    check_reference("serve_mix", ref_feed.signature, out)
    direct = replay(servemix.combined_trace(traces), backend="ours",
                    seed=seed, pool=servemix.POOL)
    out.problems += servemix.reconcile(gen.ledgers, snapshot, direct.tenants)
    if report["snapshot"]["tenants"] != snapshot["tenants"]:
        out.problems.append("final server snapshot differs from the "
                            "client's stats reply")
    errors = gen.protocol_errors + report["protocol_errors"]
    if errors:
        out.problems.append(f"{errors} protocol error(s)")
    delta_selfcheck(out)

    calib = clock.calib_ms
    low, high = phases
    late = [x for p in phases for x in p.late_ms]
    late_p99 = percentile(late, 99)
    feed_walls = [f.ref_wall for f in feeds[:n_timed]]
    wall = statistics.median(feed_walls)
    raw_wall = statistics.median(f.wall for f in feeds[:n_timed])
    out.attempted = sum(p.sent for p in phases)
    out.failed = sum(p.failed for p in phases) + errors
    n_malloc = sum(t["n_malloc"]
                   for t in report["snapshot"]["tenants"].values()) or 1
    causes = report["snapshot"]["causes"]
    out.notes += [
        f"phase low: {low.sent} requests at {low.rate:.0f}/s, "
        f"{len(low.latencies_ms)} samples; phase high: {high.sent} "
        f"requests at {high.rate:.0f}/s, {len(high.latencies_ms)} samples",
        f"p99_ms.high over the whole phase "
        f"{percentile(high.latencies_ms, 99):.3f}",
        f"p50_ms.low {percentile(low.latencies_ms, 50):.3f}  "
        f"p99_ms.low {percentile(low.latencies_ms, 99):.3f}  "
        f"loadgen.late_ms_p99 {late_p99:.3f} (bound "
        f"{servemix.LATE_BOUND_MS})",
        f"fail_rate {out.failed / out.attempted:.6f}  episodes "
        f"{report['snapshot']['episodes']}  stop_s {report['stop_s']:.3f}  "
        f"threads_after_stop {report['threads_after_stop']}",
        f"feed units: {len(feed_walls)}  host.calib_ms: {calib:.3f}",
    ]
    if late_p99 > servemix.LATE_BOUND_MS:
        out.invalid = (f"the load generator ran {late_p99:.1f} ms late at "
                       f"p99 (bound {servemix.LATE_BOUND_MS} ms)")
        return
    if not traced:
        out.metrics.update({
            "setup_s": setup.ref,
            "wall_s": wall,
            "sim_events_per_s": feeds[0].events / wall,
            "virtual_cycles": feeds[0].cycles,
            "peak_rss_mb": max(peak_rss_mb(), report["peak_rss_mb"]),
            "p50_ms": percentile(high.latencies_ms, 50),
            "p99_ms": windowed_percentile(high.latencies_ms, 99,
                                          servemix.P99_WINDOWS),
            "goodput_rps": (high.sent - high.failed) / high.duration_s,
        })
        return

    spans.dump(OUT_DIR / f"serve_mix-seed{seed}-spans.json",
               {"workload": "serve_mix", "seed": seed})
    stages = report["stages"]
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(layer_metrics(profile_layers(stats), prof_feed.events, wall))
    m.update({
        "sim.scheduler.events": prof_feed.events,
        "sim.scheduler.runs": prof_feed.runs,
        "sim.scheduler.tie_share": ties.share,
        "core.mallocs": n_malloc,
        "core.null_rate": causes.get("null", 0) / n_malloc,
        "serve.protocol.parse_us_p50": stages["parse_us_p50"],
        "serve.protocol.encode_us_p50": stages["encode_us_p50"],
        "serve.admission.decline_rate":
            (causes.get("quota", 0) + causes.get("pressure", 0)) / n_malloc,
        "serve.engine.episodes": report["snapshot"]["episodes"],
        "serve.engine.batch_mean": stages["batch_mean"],
        "serve.engine.episode_ms_p50": stages["episode_ms_p50"],
        "serve.engine.episode_ms_p99": stages["episode_ms_p99"],
        "serve.engine.events_per_episode": stages["events_per_episode"],
        "serve.server.queue_wait_ms_p50": stages["queue_wait_ms_p50"],
        "serve.server.queue_wait_ms_p99": stages["queue_wait_ms_p99"],
        "serve.server.reply_ms_p50": stages["reply_ms_p50"],
        "serve.server.stop_s": report["stop_s"],
        "serve.server.threads_after_stop": report["threads_after_stop"],
        "loadgen.late_ms_p99": late_p99,
        "loadgen.samples.low": len(low.latencies_ms),
        "loadgen.samples.high": len(high.latencies_ms),
        "loadgen.p50_ms.low": percentile(low.latencies_ms, 50),
        "loadgen.p99_ms.low": percentile(low.latencies_ms, 99),
        "fail_rate": out.failed / out.attempted,
        "host.trace_overhead": prof_feed.wall / raw_wall,
        "host.calib_ms": calib,
        "host.wall_raw_s": raw_wall,
        "host.setup_raw_s": setup.raw,
    })
    out.metrics.update(m)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def record_reference() -> int:
    """Rewrite reference.json from default-seed runs of every workload."""
    import simwork
    import servemix
    from layers import Patches, RefClock, RunCounter

    patches = Patches()
    counter = RunCounter()
    counter.install(patches)
    clock = RefClock(scaled=False)
    try:
        doc = {w: {"seed": DEFAULT_SEED,
                   "signature": run_unit(simwork.JOBS[w](DEFAULT_SEED),
                                         counter, clock).signature}
               for w in simwork.JOBS}
        doc["serve_mix"] = {
            "seed": DEFAULT_SEED,
            "signature": serve_feed(servemix.feed_trace_for(DEFAULT_SEED),
                                    DEFAULT_SEED, counter, clock).signature}
    finally:
        patches.restore()
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their results side by side."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print(f"== {w} ==")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json at the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)

    out = Outcome()
    if args.workload == "serve_mix":
        run_serve(args.seed, args.seconds, bool(args.trace), out)
    else:
        run_sim(args.workload, args.seed, args.seconds, bool(args.trace), out)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    for note in out.notes:
        print(f"  {note}")
    for name, value in out.metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    for p in out.problems:
        print(f"  CHECK FAILED: {p}")
    if out.invalid:
        print(f"  INVALID run, no result: {out.invalid}")
        return 3
    correct = not out.problems
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": units[name]}
                    for name, _ in (PER_LAYER if args.trace else END_TO_END)},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
