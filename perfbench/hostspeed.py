"""CPU time scaled to a reference host speed, sampled while the work runs.

On a shared virtual machine the same Python code can take half as long
again from one moment to the next: other guests on the host contend for
its caches and execution units, in phases lasting from seconds to minutes,
and CPU time counts the slowdown in full. A median over one invocation
cannot remove a phase that outlasts it.

:class:`HostSpeed` tracks that speed with a fixed, memory-bound kernel:
random reads and writes over a dict larger than the L2 cache and a small
heap, the kind of work the simulator does. ``SIGPROF`` fires after every
``PERIOD_S`` seconds of process CPU time and runs the kernel once, and the
caller samples it again at every span boundary (:meth:`HostSpeed.mark`).
The kernel's own CPU time is taken out of the work clock. A span of work
is then charged at ``REFERENCE_KERNEL_S`` over the kernel's mean time
around it: the CPU seconds the span would have taken on a host where the
kernel takes ``REFERENCE_KERNEL_S``. A change to the program moves the
work and not the kernel, so it shows in full.

Times are read from the thread's CPU clock: while a process-wide CPU
timer is armed, Linux serves the process clock in scheduler ticks (4 ms
here), too coarse for a pass of about 10 ms. The benchmark runs in one
thread. The kernel allocates no tracked container, so it does not move
the garbage collector's schedule in the code around it.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import time
from typing import List, Tuple

#: CPU seconds one kernel pass takes between spans of simulator work on the
#: reference host, a 2-vCPU KVM guest (Intel Xeon, 4 MiB L2 per vCPU) with
#: CPython 3.11, in a quiet phase. It only sets the scale of the figures.
REFERENCE_KERNEL_S = 0.0130

#: Entries in the kernel's table: with its int keys and values, tens of
#: MiB, well past the L2 cache.
TABLE_SIZE = 1 << 18

#: Table accesses in one kernel pass.
PASS_ACCESSES = 12_000

#: Entries the kernel's heap holds between pops.
HEAP_SIZE = 1024

#: Samples that set the host's speed over a span.
NEAREST = 5

#: CPU seconds between ``SIGPROF`` samples.
PERIOD_S = 0.5


def _kernel(table: dict, keys: tuple, heap: list) -> int:
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for key in keys:
        value = table[key]
        table[key] = value + 1
        push(heap, (value * 8191 + key) & 0xFFFFFFF)
        if len(heap) > HEAP_SIZE:
            acc += pop(heap)
    return acc


class HostSpeed:
    """A work clock and its samples of host speed; use as a context manager.

    Outside the ``with`` block no signal fires, and :meth:`mark` still
    samples. Spans passed to :meth:`scaled` start and end at marks.
    """

    def __init__(self) -> None:
        rng = random.Random(20_201)
        stride = 2_654_435_761
        self._table = {i * stride: i for i in range(TABLE_SIZE)}
        self._keys = tuple(rng.randrange(TABLE_SIZE) * stride for _ in range(PASS_ACCESSES))
        self._heap: List[int] = []
        #: (work clock at the sample, kernel CPU seconds), in clock order.
        self.samples: List[Tuple[float, float]] = []
        self._kernel_total = 0.0
        self._busy = False
        self._previous_handler = None
        # Warm the table into memory and the heap to its working size.
        for _ in range(3):
            _kernel(self._table, self._keys, self._heap)

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)

    def _on_signal(self, signum, frame) -> None:
        self.mark()

    def clock(self) -> float:
        """CPU seconds of this thread, less the time spent in the kernel."""
        return time.thread_time() - self._kernel_total

    def mark(self) -> float:
        """Sample the host speed now; return the work clock."""
        if self._busy:
            return self.clock()
        self._busy = True
        try:
            t0 = time.thread_time()
            _kernel(self._table, self._keys, self._heap)
            t1 = time.thread_time()
            at = t0 - self._kernel_total
            self._kernel_total += t1 - t0
            self.samples.append((at, t1 - t0))
        finally:
            self._busy = False
        return at

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed CPU seconds of the work between two clock readings.

        The host's speed over the span is the mean kernel time of the
        samples taken in it, widened to the ``NEAREST`` samples closest to
        it when it holds fewer: one pass is too short to time alone.
        """
        times = [at for at, _ in self.samples]
        if len(times) < NEAREST:
            raise ValueError(f"{len(times)} samples; scaling needs {NEAREST}")
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < NEAREST:
            if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        kernel = sum(seconds for _, seconds in self.samples[lo:hi]) / (hi - lo)
        return (end - start) * REFERENCE_KERNEL_S / kernel
