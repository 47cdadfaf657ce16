"""Gauge how fast the host runs right now, with a fixed pure-Python kernel.

Host time on a shared machine drifts by tens of percent, and by up to 2x
for minutes at a time, for reasons outside the program: other tenants load
the same cores, caches and memory bus, and the process's CPU time grows
with its wall time (nothing is stolen visibly).  The runner times this
kernel before the first repetition and after each one, and scales each
repetition's host times by ``NOMINAL_S`` over the mean of the two gauges
around it, so its seconds are seconds on a host running at the nominal
speed.

The kernel is a small discrete-event loop — a heap of timestamped events,
generator processes, slotted objects — that on every event also updates
random objects of a pool and entries of a table tens of MiB large.  So,
like the simulator, it misses the caches often; a loop that stays in the
caches slows under the neighbours' load by a different share than the
simulator does.  It uses only the standard library, so no change to the
simulator moves it, and it runs with the cyclic collector off.

The kernel runs in a helper interpreter (``Gauge``) so that its pool stays
out of the runner's peak RSS.  The helper only computes while the runner
waits for its answer; the two never run at once.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import subprocess
import sys
import time

#: About the gauge on the 2-vCPU x86 VM (2.0 GHz Xeon) that the bounds
#: were set on, in a quiet hour; a scale of 1 means the host ran at that
#: speed.  It only sets the unit: both sides of a comparison use it.
NOMINAL_S = 0.05
#: Events per slice, and slices per gauge (their median is the gauge, so a
#: transient in one slice does not move it).
STEPS = 10_000
SLICES = 5
PROCESSES = 64
POOL = 300_000
TOUCHES = 3


class _Event:
    __slots__ = ("time", "proc", "count")

    def __init__(self, time, proc, count):
        self.time, self.proc, self.count = time, proc, count


class _Item:
    __slots__ = ("weight", "last")

    def __init__(self, weight):
        self.weight, self.last = weight, None


def _process():
    count = 0
    while True:
        yield count
        count += 1


class Kernel:
    def __init__(self):
        self.pool = [_Item(float(i)) for i in range(POOL)]
        self.table = {i * 7: i for i in range(POOL // 4)}

    def slice(self) -> float:
        """Host seconds for ``STEPS`` events."""
        pool, table = self.pool, self.table
        n, m, x = len(pool), len(table), 12345
        t0 = time.perf_counter()
        procs = [_process() for _ in range(PROCESSES)]
        for proc in procs:
            next(proc)
        heap = [(k * 0.5, k, _Event(k * 0.5, k, 0)) for k in range(PROCESSES)]
        heapq.heapify(heap)
        seq = PROCESSES
        for _ in range(STEPS):
            now, _, ev = heapq.heappop(heap)
            count = next(procs[ev.proc])
            for _ in range(TOUCHES):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                item = pool[x % n]
                item.weight += now - ev.time
                item.last = ev
                table[(x % m) * 7] = count
            seq += 1
            heapq.heappush(heap, (now + 1.0 + (count * 7919 % 13) * 0.1,
                                  seq, _Event(now, ev.proc, count)))
        return time.perf_counter() - t0

    def gauge(self) -> float:
        """Median host seconds of ``SLICES`` slices."""
        return statistics.median(self.slice() for _ in range(SLICES))


class Gauge:
    """The kernel in a helper interpreter, timed on request.

    ``with Gauge() as gauge: gauge()`` returns one gauge in host seconds.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._read()  # the pool is built and one slice warmed up
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("gauge\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> float:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        return json.loads(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def serve() -> None:
    gc.disable()
    kernel = Kernel()
    print(json.dumps(kernel.slice()), flush=True)
    for _ in sys.stdin:
        print(json.dumps(kernel.gauge()), flush=True)


if __name__ == "__main__":
    serve()
