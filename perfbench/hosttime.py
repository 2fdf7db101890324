"""Host times that hold still on a shared, noisy machine.

The benchmark box is a 2-vCPU virtual machine whose cores are shared
with other tenants.  The same pure-Python loop runs anywhere between 1x
and 2x its fastest time, in phases of 0.5-3 s, and the machine's speed
drifts over minutes, sometimes by 70%.  A plain median over repeats
inherits all of it, so host times are measured against a reference
taken from outside the program:

* The reference is a fixed miniature discrete-event simulation written
  with the standard library only (a heap of generator processes touching
  a 150k-entry table of slot objects; none of the program's code).  A
  change to the program does not touch it, so a faster program reads
  faster and a faster machine does not.
* During a measured repeat a timer signal interrupts the program every
  0.2 s and times one reference loop.  Each stretch of the run between
  two loops is scaled by ``REFERENCE_S`` over the faster of the loops on
  either side of it: seconds on this machine at the speed where the loop
  takes ``REFERENCE_S``.  The loops' own time is left out.  A run too
  short to hold a loop is scaled by the reference batches timed before
  and after its repeat.
* The import is timed in a fresh interpreter each time, between two
  reference batches of its own, and scaled by the faster of them.

A run reports medians over its scaled repeats and set-ups.  Over ten
same-seed runs in one slow, drifting stretch, the interquartile spread
of the run time over its median was 20% (``pravega_write``) and 36%
(``pravega_tail_fanout``) for the raw median over repeats, and 7% and
14% with each repeat scaled by the batches around it; with the 0.2 s
loops it fell to 5% and 4% over six seeds, and ``pravega_catchup``, whose
repeats take seconds, from 30% to 3%.  Raw times stay in each result's
detail line.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Optional, Sequence, Tuple

#: fastest time of :meth:`Reference.loop` on the box the baseline was
#: taken on (2-vCPU Intel Xeon VM, CPython 3.11.7)
REFERENCE_S = 0.019
#: host time between two reference loops during a measured repeat
STEP_PERIOD_S = 0.2

_TABLE_SIZE = 150_000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


class Reference:
    """The reference loop, timed in batches between the workload's repeats."""

    def __init__(self) -> None:
        self._table = {i: _Node(i, i * 3) for i in range(_TABLE_SIZE)}

    def _process(self, pid: int):
        table = self._table
        k = pid * 977
        while True:
            k = (k * 1103515245 + 12345) & 0x7FFFFFFF
            table[k % _TABLE_SIZE].value += 1
            yield (k & 7) * 1e-4 + 1e-5

    def loop(self) -> None:
        """12k steps of 256 generator processes scheduled on a heap."""
        heap = []
        seq = 0
        for pid in range(256):
            seq += 1
            heap.append((0.0, seq, self._process(pid)))
        heapq.heapify(heap)
        for _ in range(12_000):
            now, _, gen = heapq.heappop(heap)
            seq += 1
            heapq.heappush(heap, (now + next(gen), seq, gen))

    def batch(self, runs: int) -> float:
        """Time the loop ``runs`` times; the fastest of them."""
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            self.loop()
            best = min(best, time.perf_counter() - start)
        return best


class Stepped:
    """Instrumentation hook for a measured repeat (see ``workloads.Plain``).

    While active, a timer signal interrupts the repeat every
    ``STEP_PERIOD_S`` and times one reference loop.  The handler runs
    between two bytecodes of the program and touches none of its state,
    so the simulation and its results are unchanged; it only costs host
    time, which :meth:`scaled_run` leaves out.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        #: (start, end) host time of each reference loop
        self.steps: List[Tuple[float, float]] = []

    def new_sim(self):
        from repro.sim import Simulator  # imported late: see import_s

        return Simulator()

    def attach(self, adapter) -> None:
        return None

    def _step(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.reference.loop()
        self.steps.append((start, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, STEP_PERIOD_S)

    def __enter__(self) -> "Stepped":
        self._previous = signal.signal(signal.SIGALRM, self._step)
        signal.setitimer(signal.ITIMER_REAL, STEP_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled_run(self, spans: Sequence[Tuple[float, float]]) -> Optional[float]:
        """Host time inside ``spans`` at reference speed, the reference
        loops left out.  Each stretch between loops is scaled by the
        faster loop on either side of it.  None if a span holds no loop."""
        total = 0.0
        for t0, t1 in spans:
            inside = [(a, b) for a, b in self.steps if t0 <= a and b <= t1]
            if not inside:
                return None
            prev_end, prev_loop = t0, inside[0][1] - inside[0][0]
            for start, end in inside:
                loop = end - start
                total += (start - prev_end) * REFERENCE_S / min(prev_loop, loop)
                prev_end, prev_loop = end, loop
            total += (t1 - prev_end) * REFERENCE_S / prev_loop
        return total


def import_s() -> float:
    """Host time to import the program, at reference speed, in this
    (fresh) interpreter: the import is scaled by the faster of the
    reference batches just before and just after it."""
    reference = Reference()
    before = reference.batch(3)
    start = time.perf_counter()
    import workloads  # noqa: F401 - the import is what is timed

    took = time.perf_counter() - start
    return took * REFERENCE_S / min(before, reference.batch(3))


def scaled(times: Sequence[float], batches: Sequence[float]) -> List[float]:
    """``times`` at reference speed.

    ``times[i]`` ran between reference batches ``i`` and ``i + 1`` (their
    fastest loops); it is scaled by the faster of the two.
    """
    return [
        t * REFERENCE_S / min(batches[i], batches[i + 1])
        for i, t in enumerate(times)
    ]
