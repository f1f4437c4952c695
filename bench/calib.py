"""Reference clock: rescales measured times to a machine of fixed speed.

The benchmark shares its cores with other tenants whose load slows a
fixed job by up to 2x over minutes, and CPU time slows with wall time,
so neither measures the program alone. Every timed event (a job or a
set-up probe) is bracketed by runs of a fixed kernel in the benchmark
process, and its time is multiplied by NOMINAL_S over the mean of the
two kernel times: seconds on a machine where the kernel takes NOMINAL_S
("reference seconds"). The kernel uses nothing from navit_pack, so a
change to the program cannot move it.
"""

from __future__ import annotations

import json
import time

# Kernel time on an unloaded core of the 2-core sandbox the reference
# figures come from (fastest of repeated runs), so reference seconds are
# close to wall seconds there.
NOMINAL_S = 0.065


def kernel() -> float:
    """Interpreter-bound work like the CLI jobs: dicts, lists, JSON."""
    t0 = time.perf_counter()
    d = {}
    for i in range(30_000):
        d[f"k{i}"] = [i, i * 2]
    json.loads(json.dumps(d))
    json.dumps(list(range(80_000)))
    return time.perf_counter() - t0


class RefClock:
    def __init__(self) -> None:
        kernel()  # warm-up
        self._last = kernel()
        self.kernel_times = [self._last]

    def rescale(self, seconds: float) -> float:
        """Reference seconds for an event of `seconds` wall time that has
        just ended; the kernel runs now, and its previous run was before
        the event started."""
        before = self._last
        self._last = kernel()
        self.kernel_times.append(self._last)
        return seconds * NOMINAL_S / ((before + self._last) / 2)
