"""A wall clock corrected for the pace of a shared processor.

On a small virtual machine shared with other tenants the same Python
work runs at one of two speeds, 1.5x to 2x apart, and the speed flips
every second or so, or stays low for minutes, depending on what else
the host runs.  A timing taken over seconds is then a mix of the two
in proportions that change from run to run.

:class:`Pacer` measures the pace while the benchmark runs.  A ``SIGALRM``
every 25 ms runs a fixed reference kernel (plain Python plus small
numpy calls, like the program's own hot paths) in the benchmark's only
thread; each tick times it and holds its pace until the next tick.
:func:`now` reads a clock that advances by ``wall time x reference
kernel time / measured kernel time`` over each slice between ticks and
stands still while a tick runs.  Timed on it, a piece of work reads
what it would take at the reference pace, which is the kernel's fast
pace on the machine the bounds were set on (see ``REFERENCE_S``).
The clock leaves the work itself untouched: a change to the program
moves the figures as it moves the work, unless it changes how fast the
kernel runs beside it, which its small, cache-resident data and the
fastest-of-three timing keep unlikely.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Seconds from the end of one tick to the start of the next.
INTERVAL_S = 0.025
#: Kernel repetitions per tick; the fastest one is the tick's pace.
REPS = 3
#: Seconds one kernel repetition takes at the reference pace: its fast
#: mode, timed between workload operations on a 2-vCPU Xeon VM at
#: 2.1 GHz.
REFERENCE_S = 112e-6


def _inputs():
    rng = random.Random(20231)
    rows = [(rng.random(), i, f"as-{i}") for i in range(150)]
    doc = json.dumps(
        {
            "_id": "kernel",
            "server_id": 3,
            "hops": [{"isd_as": f"1-ff00:0:{110 + i}", "ifid": i} for i in range(8)],
            "stats": {"latency_ms": [1.5, 2.5, 3.5], "bw_mbps": {"up": 1.0, "down": 2.0}},
        }
    )
    return rows, doc, np.arange(64, dtype=float)


_ROWS, _DOC, _VECTOR = _inputs()


def kernel() -> float:
    """The fixed reference work, a little of what the program does most:
    sorting records, dict updates, a JSON round trip of a small document
    and a numpy call on a short vector.  Its data fit in a core's cache,
    so after its first repetition in a tick it times the processor, not
    what the workload left in the cache."""
    acc = sorted(_ROWS)[0][0] + sorted(_ROWS, key=lambda r: r[2])[0][0]
    table: dict = {}
    for value, _, name in _ROWS:
        table[name] = table.get(name, 0.0) + value
    acc += len(table)
    acc += len(json.loads(json.dumps(json.loads(_DOC))))
    acc += float(np.percentile(_VECTOR, 50))
    return acc


class Pacer:
    """The paced clock; ``start()`` arms the ticks, ``stop()`` disarms."""

    def __init__(self) -> None:
        now = time.perf_counter()
        #: (wall time of the last tick's end, paced time then, weight
        #: of a wall second since) — replaced whole, never mutated, so
        #: that a tick between two reads cannot tear it.
        self._state: Tuple[float, float, float] = (now, now, 1.0)
        #: Kernel time measured at each tick.
        self.paces: List[float] = []
        self._previous = None
        self._armed = False

    def start(self) -> None:
        for _ in range(REPS):
            kernel()  # first calls import lazily; never inside a tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        wall, paced, weight = self._state
        self._state = (end, paced + (start - wall) * weight, REFERENCE_S / best)
        self.paces.append(best)
        if self._armed:  # one-shot, re-armed here, so ticks never overlap
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def now(self) -> float:
        """Paced seconds since an arbitrary origin."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:
                break
        wall, paced, weight = state
        return paced + (now - wall) * weight

    def summary(self) -> str:
        """Ticks, median kernel time and the share of slow ticks."""
        if not self.paces:
            return "no ticks"
        slow = sum(p > 1.3 * REFERENCE_S for p in self.paces) / len(self.paces)
        return (
            f"{len(self.paces)} ticks, kernel median "
            f"{statistics.median(self.paces) * 1e6:.0f} us (reference "
            f"{REFERENCE_S * 1e6:.0f} us), {slow:.0%} of ticks over 1.3x"
        )


#: The benchmark's one clock, one per process as ``SIGALRM`` is; every
#: timer in ``perfbench`` reads it.
CLOCK = Pacer()


def now() -> float:
    return CLOCK.now()
