"""How fast the machine runs right now, for scaling timings.

On a shared machine other tenants slow a core by up to 1.6x, in phases
of seconds to minutes that a whole run can sit in.  A fixed loop timed
at the same moment slows by the same factor, so a time multiplied by
``REFERENCE_S`` over the loop's time measures the program, not its
neighbours.  On an unloaded core the loop takes about ``REFERENCE_S``
and the scaled time is the time as measured.

Set-up times are scaled by another reference, of the same kind of work
as a set-up: starting a fresh interpreter that imports numpy
(``spawn_time``).  Process start and module loading slow less than the
fixed loop in a slow phase, so the loop over-corrects them; the spawn
reference, timed right before each set-up, tracks them.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

#: Seconds ``probe`` takes on an unloaded core of the 2-core Xeon
#: (2.0 GHz) the benchmark was tuned on.
REFERENCE_S = 0.0028

#: Seconds ``spawn_time`` takes on the same machine when it runs fast.
SPAWN_REFERENCE_S = 0.14

#: ``Sampler``: seconds between probes, and how far around an interval
#: its probes are averaged (smoothing the jitter of single probes).
INTERVAL_S = 0.05
MARGIN_S = 0.25


def probe(clock=time.perf_counter) -> float:
    """Time a fixed pure-Python loop on ``clock``."""
    start = clock()
    table = {}
    for index in range(20000):
        table[index & 255] = table.get(index & 255, 0) + index
    return clock() - start


def spawn_time(env: Dict[str, str]) -> float:
    """Seconds to start a fresh interpreter in ``env`` and import numpy:
    set-up work (process start, module loading) of no program's."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - start


class Sampler:
    """Probes the load generator's core every ``INTERVAL_S`` in a
    background thread, on thread CPU time so waiting for the lock or a
    core does not count as slowness."""

    def __init__(self):
        #: ``(time.monotonic() at the probe's end, probe seconds)``.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            took = probe(time.thread_time)
            self.samples.append((time.monotonic(), took))
            self._stop.wait(INTERVAL_S)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean probe time from ``MARGIN_S``
        before ``start`` to ``MARGIN_S`` after ``end`` (``time.monotonic``
        values)."""
        inside = [took for at, took in self.samples
                  if start - MARGIN_S <= at <= end + MARGIN_S]
        return REFERENCE_S * len(inside) / sum(inside)
