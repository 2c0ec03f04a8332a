"""The two simulated workloads: fixed jobs over the repro.bench runners.

A *job* is one runner call that builds a fresh device, launches its
kernels and runs the scheduler to completion.  A workload's *unit* is
its fixed list of jobs; the benchmark repeats whole units until its time
is up, so every job appears equally often in a run.

Every job returns a ``virtual`` dict of simulated outputs (cycles,
throughputs, failures).  They are deterministic per seed: the benchmark
requires them identical across the repeats of a run and, at the default
seed, equal to ``reference.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

#: Fig. 7 storm: UAlloc-routed 64 B, TBuddy-routed 4 KB and 64 KB
STORM_SIZES = (64, 4096, 65536)
STORM_ALLOCATORS = ("ours", "cuda")
#: threads per storm; below the pool-exhausting count, so no malloc fails
STORM_MAX_THREADS = 1024
#: §2.2 churn shootout shape (per registered backend)
CHURN_THREADS = 256
CHURN_ITERS = 1

#: lockstep: warp-coalesced bump allocation in barrier-phased rounds
LOCKSTEP_THREADS = 1024
LOCKSTEP_ROUNDS = 24
LOCKSTEP_PLAIN_ROUNDS = 4
#: fig6 points: (writer:reader ratio, thread target), each run at several
#: seeds derived from the workload seed; a single fig6 run's cycles swing
#: by +-20 % with the seed, and averaging keeps the unit's total steady
RCU_POINTS = ((32, 256), (64, 256), (128, 256))
RCU_SEEDS = 3


class Counts(NamedTuple):
    """One job's simulated operations: ``ops`` attempted (mallocs, frees,
    slots or list searches), ``failed`` of them, and the ``mallocs`` and
    ``nulls`` among them."""

    ops: int
    failed: int
    mallocs: int = 0
    nulls: int = 0


@dataclass
class Job:
    name: str
    run: Callable[[], Tuple[dict, Counts]]
    #: the job allocates through the paper's allocator (repro.core)
    core: bool = False


def _storm_job(size: int, allocator: str, seed: int) -> Job:
    from repro.bench import fig7

    def run():
        p = fig7.run_size(size, allocator, seed=seed,
                          max_threads=STORM_MAX_THREADS)
        virtual = {"cycles": p.cycles, "throughput": p.throughput,
                   "failed": p.failed, "nthreads": p.nthreads}
        return virtual, Counts(p.nthreads, p.failed, p.nthreads, p.failed)

    return Job(f"fig7:{allocator}:{size}", run, core=allocator == "ours")


def _churn_job(backend: str, seed: int) -> Job:
    from repro.bench import shootout

    def run():
        res = shootout.run(nthreads=CHURN_THREADS, iters=CHURN_ITERS,
                           seed=seed, which=[backend])
        p = res.points[0]
        mallocs = CHURN_THREADS * CHURN_ITERS
        virtual = {"cycles": p.cycles, "throughput": p.throughput,
                   "failures": p.failures}
        # every successful malloc is freed again: two ops per pair
        return virtual, Counts(2 * mallocs - p.failures, p.failures,
                               mallocs, p.failures)

    return Job(f"shootout:{backend}", run,
               core=backend in ("ours", "ours-coalesced"))


def _lockstep_job(kind: str, rounds: int, seed: int) -> Job:
    from repro.bench import lockstep

    def run():
        p = lockstep.run_one(kind, LOCKSTEP_THREADS, rounds, seed=seed)
        virtual = {"cycles": p.cycles, "slots_per_s": p.slots_per_s,
                   "coalesce_width_mean": p.coalesce_width_mean}
        return virtual, Counts(p.slots, 0)

    return Job(f"lockstep:{kind}", run)


def _rcu_job(ratio: int, target: int, delegated: bool, seed: int,
             k: int) -> Job:
    from repro.bench import fig6

    writers = max(1, target // (1 + ratio))
    nthreads = writers * (1 + ratio)

    def run():
        cycles, share, ok = fig6.run_one(writers, ratio, delegated,
                                         seed=seed * 1000 + k)
        virtual = {"cycles": cycles, "delegated_share": share, "ok": ok}
        return virtual, Counts(nthreads, 0 if ok else nthreads)

    mode = "delegated" if delegated else "classical"
    return Job(f"fig6:{mode}:1:{ratio}:{k}", run)


def alloc_storm_jobs(seed: int) -> List[Job]:
    from repro import backends

    jobs = [_storm_job(size, alloc, seed)
            for size in STORM_SIZES for alloc in STORM_ALLOCATORS]
    jobs += [_churn_job(b, seed) for b in backends.names()]
    return jobs


def cohort_sync_jobs(seed: int) -> List[Job]:
    jobs = [_lockstep_job("coalesced", LOCKSTEP_ROUNDS, seed),
            _lockstep_job("plain", LOCKSTEP_PLAIN_ROUNDS, seed)]
    jobs += [_rcu_job(ratio, target, delegated, seed, k)
             for ratio, target in RCU_POINTS for k in range(RCU_SEEDS)
             for delegated in (False, True)]
    return jobs


JOBS: Dict[str, Callable[[int], List[Job]]] = {
    "alloc_storm": alloc_storm_jobs,
    "cohort_sync": cohort_sync_jobs,
}


def build_inputs(workload: str, seed: int) -> List[Job]:
    """The workload's job list, after building each allocator once.

    Building a heap for every backend the jobs use imports and warms the
    backend modules, the set-up a user pays before the first job runs.
    """
    from repro import backends
    from repro.sim import DeviceMemory, GPUDevice

    jobs = JOBS[workload](seed)
    if workload == "alloc_storm":
        device = GPUDevice(num_sms=2, max_resident_blocks=4)
        for name in backends.names():
            backends.build(name, DeviceMemory(8 << 20), device, 1 << 20,
                           checked=False)
    return jobs
