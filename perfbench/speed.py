"""The machine-speed probe, and op times scaled to a reference speed.

The machine this benchmark was built on is a shared VM whose speed
drifts: the same work runs up to 1.8x slower for stretches of a fraction
of a second to a few minutes, CPU time moving with wall time.  Over ten
runs that drift alone spreads raw times by 0.2-0.45 of their median,
wider than the bound a regression has to pass.

So each pass runs a fixed probe between its ops, at least every
PROBE_GAP_S and after the last op: the product of two sparse polynomials
held as dictionaries from exponent tuples to big integers, then sorted,
the kind of work `polycore` does, but written here, so that no change to
the program changes it.  An op's time is scaled by REFERENCE_PROBE_S over
the median of the probes taken within WINDOW_S of it.  A change to the
program moves the scaled times as it moves the raw ones; a change of
machine speed moves the probe as well and largely cancels.  Of the
probes tried, this one followed the speed of the benchmark's own ops
most closely (log-log slope 0.85, correlation 0.79 over a minute of
alternating runs).  The raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# The probe's time on the machine the benchmark was built on (a 2-vCPU
# VM, CPython 3.11) while it ran fast, so that scaled times read as
# seconds there at that speed.
REFERENCE_PROBE_S = 0.0045
# A probe runs before an op when this long has passed since the last one.
PROBE_GAP_S = 0.1
# Probes within this many seconds of an op set its scale; the machine's
# speed holds steady for about a tenth of a second at a time.
WINDOW_S = 0.25

_rng = random.Random(1)
_A = {tuple(_rng.randrange(4) for _ in range(8)): _rng.getrandbits(90) for _ in range(100)}
_B = {tuple(_rng.randrange(3) for _ in range(8)): _rng.getrandbits(60) for _ in range(20)}


def _product() -> int:
    out = {}
    for ka, va in _A.items():
        for kb, vb in _B.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if key in out:
                out[key] += va * vb
            else:
                out[key] = va * vb
    return len(sorted(out.items()))


class Probe:
    """Runs the probe and keeps (start, seconds) of each run.  The garbage
    collector is held off while it runs, so a collection the program's
    heap has made due does not land in the probe."""

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []
        self._last = -float("inf")

    def __call__(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _product()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self._last = t1

    def due(self) -> None:
        """Run the probe if PROBE_GAP_S has passed since the last one."""
        if time.perf_counter() - self._last >= PROBE_GAP_S:
            self()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the median probe within WINDOW_S of
        [start, end].  There is always one: a probe runs before an op
        unless one ended less than PROBE_GAP_S < WINDOW_S before it."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REFERENCE_PROBE_S / statistics.median(self.seconds[lo:hi])
