"""The host calibration kernel, on its own so that a child process can
import it without the rest of the benchmark (``layers`` builds on it).

The speed of a shared host drifts by up to 2x over seconds, for the
program and for any other Python code alike.  A host time measured
between two passes of this fixed kernel and scaled by ``CALIB_REF_S``
over their mean reads as seconds at the reference host's speed: a
change to the program moves it, host drift mostly does not.
"""

from __future__ import annotations

import gc
import heapq
import time

#: seconds one calibration pass took on the host the benchmark was
#: defined on (2-CPU x86 container); host times are scaled to this speed
CALIB_REF_S = 1.75e-3


def _calib_gen(n: int):
    total = 0
    for _ in range(n):
        total += yield total
    return total


def calib_pass() -> float:
    """Seconds one pass of a fixed pure-Python kernel takes now: heapq
    pushes and pops plus generator resumes, the two builtins the
    simulator's run loop leans on.  It runs no program code, so only
    the host's speed moves it.  The collector is off during the pass,
    so that a collection of the caller's garbage is not charged to it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _calib_kernel()
    finally:
        if was_enabled:
            gc.enable()


def _calib_kernel() -> float:
    t = time.perf_counter()
    heap: list = []
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)
    gen = _calib_gen(4000)
    send = gen.send
    send(None)
    try:
        while True:
            send(1)
    except StopIteration:
        pass
    return time.perf_counter() - t


def to_ref(raw: float, before: float, after: float) -> float:
    """``raw`` host seconds, measured between passes that took ``before``
    and ``after`` seconds, at the reference host's speed."""
    return raw * 2 * CALIB_REF_S / (before + after)
