"""Statistical host-time attribution to the ``repro`` layers.

A :class:`LayerSampler` arms ``ITIMER_PROF`` (process CPU time) and, on
every ``SIGPROF``, walks the interrupted Python stack from the innermost
frame outwards.  The sample is booked as self time to the first frame
whose module is ``repro.<package>...``; a stack with no ``repro`` frame
is booked to :data:`OUTSIDE`, so every sample lands in a named bucket.

Nothing in the program is modified: the sampler only reads frames.
"""

from __future__ import annotations

import signal
from collections import Counter
from typing import Dict, Optional

#: Bucket for samples taken while no ``repro`` frame was on the stack
#: (interpreter start-up, the benchmark's own bookkeeping, stdlib code
#: called from outside the program).
OUTSIDE = "outside"

#: Bucket for the top-level ``repro`` package and its loose modules
#: (``repro/__init__.py``, ``repro/units.py``, ``repro/cli.py``, ...).
ROOT = "repro"

#: ``ITIMER_PROF`` period, in CPU seconds.
INTERVAL_S = 0.002

_UNSEEN = object()


def layer_of_module(name: str) -> Optional[str]:
    """``repro.sim.fluid`` -> ``sim``; ``repro.units`` -> ``units``;
    ``repro`` -> ``repro``; anything else -> ``None``."""
    if name == "repro":
        return ROOT
    if not name.startswith("repro."):
        return None
    return name.split(".", 2)[1]


class LayerSampler:
    """Counts SIGPROF samples per innermost ``repro`` layer.

    Use as a context manager around the code to profile; counts
    accumulate across entries.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self._layer_by_code: Dict[object, Optional[str]] = {}
        self._previous = None

    def _on_sample(self, _signum, frame) -> None:
        cache = self._layer_by_code
        layer = None
        while frame is not None:
            code = frame.f_code
            layer = cache.get(code, _UNSEEN)
            if layer is _UNSEEN:
                layer = cache[code] = layer_of_module(
                    frame.f_globals.get("__name__", ""))
            if layer is not None:
                break
            frame = frame.f_back
        self.counts[layer or OUTSIDE] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
