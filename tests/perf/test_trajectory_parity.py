"""Trajectory parity: adjacent BENCH artifacts must agree exactly.

PR6 rewired every bench through :mod:`repro.backends`; PR7 added the
workload-zoo cases; PR8 added the allocator-service case (and a
cold-path scheduler extension — per-thread finish times — that must not
move a single pre-existing number).  None of these change how the
pre-existing cases execute, so every case two adjacent artifacts share
must agree on every ``virtual:*`` metric *exactly* — not within
tolerance.  Wall-clock metrics are machine-dependent and exempt.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PR5 = ROOT / "BENCH_PR5.json"
PR6 = ROOT / "BENCH_PR6.json"
PR7 = ROOT / "BENCH_PR7.json"
PR8 = ROOT / "BENCH_PR8.json"
PR10 = ROOT / "BENCH_PR10.json"

#: adjacent (baseline, current) artifact pairs along the trajectory
PAIRS = [(PR5, PR6), (PR6, PR7), (PR7, PR8), (PR8, PR10)]


def _virtual_metrics(path: Path):
    doc = json.loads(path.read_text())
    return {
        name: {k: v for k, v in case["metrics"].items()
               if k.startswith("virtual:")}
        for name, case in doc["cases"].items()
    }


@pytest.mark.parametrize(
    "baseline, current", PAIRS,
    ids=[f"{b.stem}-vs-{c.stem}" for b, c in PAIRS])
def test_shared_cases_are_byte_identical(baseline, current):
    if not (baseline.exists() and current.exists()):
        pytest.skip("committed BENCH artifacts not present")
    base = _virtual_metrics(baseline)
    cur = _virtual_metrics(current)
    shared = sorted(set(base) & set(cur))
    assert shared, "artifacts share no cases — wrong trajectory?"
    for name in shared:
        assert cur[name] == base[name], (
            f"case {name!r}: virtual metrics moved between "
            f"{baseline.name} and {current.name}\n"
            f"base: {base[name]}\ncur:  {cur[name]}"
        )


@pytest.mark.skipif(not PR6.exists(),
                    reason="committed BENCH_PR6.json not present")
def test_pr6_adds_the_hostbased_case():
    cur = _virtual_metrics(PR6)
    assert "backends_hostbased" in cur
    m = cur["backends_hostbased"]
    # the single-server host queue must cap it below the paper allocator
    assert (m["virtual:pairs_per_s_host_based"]
            < m["virtual:pairs_per_s_ours_scalar"])


@pytest.mark.skipif(not PR7.exists(),
                    reason="committed BENCH_PR7.json not present")
def test_pr7_adds_the_workload_cases():
    cur = _virtual_metrics(PR7)
    for case in ("workload_multitenant", "workload_diurnal",
                 "workload_trace_replay"):
        assert case in cur, f"PR7 artifact is missing {case!r}"
    replayed = cur["workload_trace_replay"]
    # the recorded trace runs on both designs, and the paper allocator
    # must outrun the global-lock baseline on it
    assert (replayed["virtual:ops_per_s_ours"]
            > replayed["virtual:ops_per_s_cuda"])
    mt = cur["workload_multitenant"]
    # Zipfian rate skew shows up as measurably uneven service
    assert mt["virtual:fairness_ours"] < 0.999


@pytest.mark.skipif(not PR8.exists(),
                    reason="committed BENCH_PR8.json not present")
def test_pr8_adds_the_serve_case():
    cur = _virtual_metrics(PR8)
    assert "serve_replay" in cur, "PR8 artifact is missing 'serve_replay'"
    m = cur["serve_replay"]
    # both backends served the trace and reported latency percentiles
    for slug in ("ours", "cuda"):
        assert m[f"virtual:latency_cycles_p99_{slug}"] >= \
            m[f"virtual:latency_cycles_p50_{slug}"] > 0
    # the 16 KiB quota + pressure gate deterministically rejects some of
    # the paper backend's mallocs on the bundled trace
    assert m["virtual:admission_failure_rate_ours"] > 0


@pytest.mark.skipif(not PR10.exists(),
                    reason="committed BENCH_PR10.json not present")
def test_pr10_adds_lockstep_and_honest_engine_walls():
    cur = _virtual_metrics(PR10)
    assert "lockstep" in cur, "PR10 artifact is missing 'lockstep'"
    doc = json.loads(PR10.read_text())
    # every case records which run loop produced it: the event engine
    # (the batch engine this artifact measured has since been removed)
    assert all(c.get("engine") == "event" for c in doc["cases"].values())
    wall = doc["engine_wall"]
    assert wall["event_seconds"] > wall["batch_seconds"] > 0
    # honest best-of-N interleaved measurement, not a cherry-pick: the
    # recorded speedup must reproduce from the recorded walls
    assert wall["speedup"] == pytest.approx(
        wall["event_seconds"] / wall["batch_seconds"], rel=1e-3)
    assert wall["speedup"] > 1.0
