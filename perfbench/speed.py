"""Machine-speed probe: scales measured seconds to a reference machine speed.

On a small shared machine the same deterministic pipeline can take 30%
longer from one minute to the next, because other tenants load the
host.  The benchmark therefore times a fixed probe kernel — pure numpy
and Python, none of the program's code — between its timed phases, and
divides every time it reports by the run's median slowdown against
:data:`REFERENCE_S`.  A program change moves the timed phases and not
the probe, so it shows in full; a slower machine moves both, and
largely cancels out (the probe does not slow down exactly as the
pipeline does, so some drift remains; see ``NOTES.md``).

One factor per run, not one per phase: a single probe is short (tens of
milliseconds) and can read 25% apart from the next one a second later,
while a repetition of the pipeline averages over such swings.  The
median over a run's probes follows the slow drift between runs, which
is what spreads the results of a set of runs, without adding the probe's
own jitter to each repetition.

The kernel mixes the kinds of work the pipeline does: small matrix
products, a memory-bound pass over a few megabytes and interpreted
Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "SpeedProbe"]

#: Median probe kernel time on a quiet 2-core Xeon VM, the machine the
#: bounds in ``BENCHMARK.json`` were set on.  It fixes the scale only:
#: reported times read as seconds on that machine.
REFERENCE_S = 0.0006
#: Kernel calls per probe; the probe reports their median.
CALLS = 40


class SpeedProbe:
    """Times the probe kernel; :attr:`slowdown` is the run's median."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((64, 64))
        self._array = rng.random(1 << 18)
        self._out = np.empty_like(self._array)
        self.factors: list[float] = []

    def _kernel(self) -> None:
        for _ in range(20):
            self._matrix @ self._matrix
        np.multiply(self._array, 1.0001, out=self._out)
        total = 0
        for step in range(3000):
            total += step

    def sample(self) -> None:
        """Time the kernel now; record its slowdown against the reference."""
        durations = []
        for _ in range(CALLS):
            start = time.perf_counter()
            self._kernel()
            durations.append(time.perf_counter() - start)
        self.factors.append(statistics.median(durations) / REFERENCE_S)

    @property
    def slowdown(self) -> float:
        """Median slowdown over every sample so far; divide seconds by it."""
        return statistics.median(self.factors)
