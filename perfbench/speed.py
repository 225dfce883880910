"""The machine's current speed, measured with a fixed pure-Python loop.

The benchmark shares a few cores with other tenants, and their load slows
every call by a share that switches within a second and drifts over
minutes: on a 2-vCPU Intel Xeon, the same call on the same input took
from 0.07 s to 0.12 s in runs a few minutes apart, and no mean, median or
minimum over one 30 s run stayed within 25% from run to run.  So the
benchmark runs this reference loop before every timed call, and reports
each call's time times ``REF_S / reference time``, the reference time
being that of the loops run around the call: the result is the time the
call would take with the machine as fast as when ``REF_S`` was taken.  A
change to ``minput`` moves the call and not the loop, so it still shows
in full.

The loop is the benchmark's own code and uses nothing from ``minput``: a
breadth-first search over a fixed random digraph held in Python lists,
sets and a sort, the same kinds of work the solver does.
"""

from __future__ import annotations

import random
from time import perf_counter, process_time

# Reference loop time on an undisturbed core of a 2-vCPU Intel Xeon
# (Python 3.11.7): the fastest mode seen over several minutes of runs.
REF_S = 0.009

_N = 4096
_rng = random.Random("perfbench/speed")
_ADJ = [[_rng.randrange(_N) for _ in range(3)] for _ in range(_N)]
del _rng


def reference_loop() -> int:
    """Fixed work: eight breadth-first searches and a sort."""
    n, adj = _N, _ADJ
    total = 0
    dist: list[int] = []
    for src in range(0, n, 512):
        dist = [-1] * n
        dist[src] = 0
        queue = [src]
        seen = {src}
        for u in queue:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
                    seen.add(v)
        total += len(queue) + len(seen)
    return total + len(sorted((d, i) for i, d in enumerate(dist)))


def reference_seconds() -> tuple[float, float]:
    """Wall and CPU time of one run of the reference loop."""
    c0 = process_time()
    t0 = perf_counter()
    reference_loop()
    t1 = perf_counter()
    return t1 - t0, process_time() - c0
