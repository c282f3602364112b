"""Host-speed probe: corrects cell timings for the host's speed drift.

On a shared 2-core VM the speed of pure-Python code drifts by about ±13%
over seconds to minutes, whatever the code (a fixed loop timed in 3.6 s
blocks over 40 s had a CV of 13%).  Medians inside one run cannot remove
a drift that outlasts the run, so runs at different times disagree.

While active, a :class:`SpeedProbe` times a fixed pure-Python kernel
that uses none of the program's code, once on entry and then every
:data:`INTERVAL_S` of wall time (``SIGALRM``).  A cell's *reference
seconds* are its host seconds, minus the probes' own time, times the
mean of ``REF_PROBE_S / probe time`` over the samples: the time the cell
would have taken on a host where the probe takes :data:`REF_PROBE_S`.
Sampling uniformly in wall time makes that mean the exact correction for
a slowdown that varies during the cell.

Timing cloning's ``exp c=3`` cell repeatedly in 10 s blocks for 140 s,
the block-to-block CV of the median was 10.6% in host seconds, 2.6% in
reference seconds from a dict-and-float loop, and 2.2% from this probe,
which does what the simulator's kernel does: heap pops and pushes of
``(time, key)`` tuples and method calls on slotted objects.

Process start-up drifts the same way but is different work (spawning,
reading and unmarshalling modules), so it has its own reference:
:func:`start_probe_s` times a fresh interpreter that imports a fixed set
of stdlib modules and none of the program's.  A set-up sample's
reference seconds are its host seconds times ``REF_START_S / start
probe time``, with the start probe run just before it.  Over ten groups
of eleven serving set-ups, the quartile spread of the group medians was
27% in host seconds, 25% in child CPU seconds and 2.9% in reference
seconds.
"""

from __future__ import annotations

import gc
import heapq
import signal
import subprocess
import sys
import time

#: Wall-time period between probes; each probe costs about 1% of it.
INTERVAL_S = 0.05
#: The probe's duration on the reference host (about what it takes on
#: the 2-core box the benchmark was sized on).
REF_PROBE_S = 0.0005
#: Interpreter arguments of the start probe: isolated mode, stdlib only.
START_PROBE_ARGS = (
    "-I", "-c",
    "import argparse, asyncio, dataclasses, decimal, email.mime.multipart, "
    "fractions, http.client, json, statistics, unittest, xml.dom.minidom")
#: The start probe's duration on the reference host (about what it takes
#: on the 2-core box the benchmark was sized on, at its fast end).
REF_START_S = 0.1


class _Item:
    __slots__ = ("when", "rate")

    def __init__(self, when: float, rate: float):
        self.when = when
        self.rate = rate

    def advance(self, dt: float) -> float:
        self.when += self.rate * dt
        return self.when


def probe_once() -> float:
    """Seconds taken by a fixed event-queue kernel.

    The cyclic GC is off while it runs: the probe allocates more tracked
    objects than gen0's threshold, and a collection it triggered would
    cost in proportion to the program's live heap, so part of a
    heap-growing change would be divided away."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap = [(float(i % 97), i) for i in range(512)]
        heapq.heapify(heap)
        items = [_Item(float(i), 1.0 / (i + 1)) for i in range(64)]
        for _ in range(600):
            when, key = heapq.heappop(heap)
            step = items[key & 63].advance(0.001)
            heapq.heappush(heap, (when + step % 3.0, key))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the probe while active; see the module docstring."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(probe_once())

    def __enter__(self) -> "SpeedProbe":
        self.samples = [probe_once()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def overhead_s(self) -> float:
        """Probe time spent inside the measured region (all samples but
        the one taken on entry)."""
        return sum(self.samples[1:])

    def reference_s(self, host_s: float) -> float:
        """*host_s* (probe time already removed) at reference speed."""
        return host_s * sum(REF_PROBE_S / s for s in self.samples) \
            / len(self.samples)


def start_probe_s() -> float:
    """Seconds to start a fresh interpreter that imports a fixed set of
    stdlib modules (:data:`START_PROBE_ARGS`) and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *START_PROBE_ARGS], check=True)
    return time.perf_counter() - start
