"""A fixed yardstick for the speed of the host at the moment of a job.

On a shared host the speed of a CPU drifts by up to 2x over seconds, as
other tenants come and go.  The runner times this kernel right before and
right after every job, on the same CPU, and scales the job's CPU time by
``REFERENCE_S`` over the kernel's time: a job that ran while the host was
slow is charged what it would have cost at the reference speed.

The kernel does what the program does, on a working set of a few MB: split
CSV lines, parse numbers, group small tuples by key in a dict, sort them and
do float math on neighbours.  It must never change: every figure the
benchmark reports is measured against it.
"""

from __future__ import annotations

import gc
import math
import time

# CPU seconds of one ``kernel()`` at the reference speed.  A 2-vCPU Xeon
# cloud host (Python 3.11.7) at its quietest runs it in about this.
REFERENCE_S = 0.1

_LINES = [
    f"{i % 97},{1_700_000_000 + i * 7},{(i * 0.37) % 180 - 90:.5f},{(i * 0.11) % 90 - 45:.5f},cargo"
    for i in range(60_000)
]


def kernel() -> float:
    """CPU seconds of one pass of the yardstick, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        tracks: dict[int, list] = {}
        for line in _LINES:
            mmsi, ts, lon, lat, _kind = line.split(",")
            tracks.setdefault(int(mmsi), []).append((int(ts), float(lon), float(lat)))
        total = 0.0
        for points in tracks.values():
            points.sort()
            for (t0, x0, y0), (t1, x1, y1) in zip(points, points[1:]):
                p0, p1 = math.radians(y0), math.radians(y1)
                h = math.sin((p1 - p0) / 2) ** 2 + math.cos(p0) * math.cos(p1) * math.sin(math.radians(x1 - x0) / 2) ** 2
                total += 2 * 6_371_000.0 * math.asin(math.sqrt(h)) / max(t1 - t0, 1)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
