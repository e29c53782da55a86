"""A reference loop that measures how fast the host is running this process.

The host is shared, and its speed for one process changes by up to 2x
from one second to the next.  Each time the benchmark reports is scaled
to a quiet host: multiplied by REF_NOMINAL_NS over the time of this loop,
timed in the same process and at the same moments as the measured work.
The loop shares no code with qwitt, so no change to the library moves
it.  This module imports only the standard library, and little of it,
because it is loaded into the `qwitt` children whose start-up is timed.
"""

from __future__ import annotations

import gc
import signal
import time

REF_NOMINAL_NS = 1_000_000  # loop_ns() on the quiet host that times are scaled to
REF_EVERY_S = 0.05  # wall time between the reference loops of a Sampler


def loop_ns() -> int:
    """One run of the fixed loop of dict, tuple and integer work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        table: dict = {}
        acc = 0
        for i in range(3000):
            key = (i, i * 7 % 13)
            table[key] = table.get(key, 0) + i * i % 97
            acc += len(table) & 7
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def loops_ns(reps: int) -> list[int]:
    return [loop_ns() for _ in range(reps)]


def typical(refs: list) -> float:
    """The mean of ``refs`` without their highest and lowest tenth.

    A mean, because a measured time adds up the host's speed over its whole
    span; trimmed, so that one loop cut by an interrupt does not move it.
    """
    ordered = sorted(refs)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class Sampler:
    """Times one reference loop every REF_EVERY_S while the ``with`` block runs.

    A timer signal runs each loop in the main thread, between two bytecodes
    of the measured code, so the loops see the same vCPU at the same
    moments as that code does.  ``spent_ns`` is their total time, to be
    taken out of the block's measured time.  At least one loop is timed.
    """

    def __init__(self):
        self.refs: list[int] = []
        self.spent_ns = 0
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter_ns()
        self.refs.append(loop_ns())
        self.spent_ns += time.perf_counter_ns() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.refs:
            self._tick()
