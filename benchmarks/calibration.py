"""A fixed pure-Python kernel, timed between ops to factor out host speed.

On a shared host the CPU speed drifts by a third over seconds to minutes, so
the same op's wall time does too.  The kernel (heap Dijkstra on a fixed random
graph) is the benchmark's own code, not dirspan's, so a change to the program
cannot move it; it runs with the garbage collector off so the program's live
objects cannot either.  An op's wall time times REFERENCE_S over the mean
kernel time just before and just after it is the op's time on a host where
the kernel takes REFERENCE_S: the gated timings are in these reference seconds.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

REFERENCE_S = 0.15
VERTICES = 400
OUT_DEGREE = 6
SOURCES = 200


class Kernel:
    def __init__(self):
        rnd = random.Random(20101206)
        self.adj = [[(rnd.randrange(VERTICES), rnd.random()) for _ in range(OUT_DEGREE)] for _ in range(VERTICES)]

    def _dijkstra(self, source):
        """Distances from source, then a dict of small tuples built from them (the program allocates as much)."""
        dist = [float("inf")] * VERTICES
        dist[source] = 0.0
        done = [False] * VERTICES
        heap = [(0.0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            for w, length in self.adj[v]:
                nd = d + length
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return len({(v, source): tuple(dist[v:v + 3]) for v in range(VERTICES)})

    def seconds(self):
        """Wall time of one kernel run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for s in range(SOURCES):
                self._dijkstra(s % VERTICES)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def scaled(walls, kernels):
    """Each wall time in reference seconds; kernels[i] and kernels[i + 1] bracket walls[i]."""
    return [w * 2 * REFERENCE_S / (kernels[i] + kernels[i + 1]) for i, w in enumerate(walls)]
