"""Times scaled to a nominal machine speed.

On a shared virtual machine the speed one process sees drifts by tens of
percent between runs a few minutes apart, and the library code and the
reference search below slow down together.  A run's measured times are
multiplied by REF_S / (median time of the reference search during the run).
In twelve runs of one exact-cegar pass this cut the spread of the summed
operation time from 15 % to 8 % of its median, and that of op_s.p75 from
22 % to 8 %, as well as scaling by one predict call of the library did.
"""

import gc
import random
import statistics
import time

# the reference search's typical time on the 2-core virtual machine where the
# baseline was recorded; scaled times read as seconds on that machine
REF_S = 0.1


def reference():
    """Seconds for a fixed depth-first search over a random 8000-node graph."""
    gc.collect()
    t0 = time.perf_counter()
    rng = random.Random(0)
    n = 8000
    succ = {i: [rng.randrange(n) for _ in range(4)] for i in range(n)}
    for start in range(0, n, n // 20):
        seen = {start}
        stack = [start]
        while stack:
            for m in succ[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
    return time.perf_counter() - t0


class Clock:
    """Reference searches spread over a run, and the scale they give."""

    def __init__(self):
        self.refs = [reference()]

    def tick(self):
        self.refs.append(reference())

    def scale(self):
        return REF_S / statistics.median(self.refs)
