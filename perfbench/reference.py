"""A fixed block of work that measures how fast the machine runs right now.

A shared virtual machine runs the same code up to 1.7 times slower in
phases that last from a fraction of a second to many minutes.  The worker
times this block next to every request, and ``run.py`` divides each
request's latency by the block's local time, so that latencies from a slow
and a fast phase compare.  The block does the kinds of work the program
does: ``scipy.integrate.quad`` over Python integrands, small ``numpy`` and
``scipy.special`` array calls and float formatting.  It uses nothing from
``vacuumlab``, so a change to the program cannot change it.

REFERENCE_MS sets the scale: a latency is reported in milliseconds on a
machine on which one block takes REFERENCE_MS ms.  It is about the block's
time in the fast phases of a 2-vCPU Intel Xeon KVM guest with Python 3.11.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import sici

REFERENCE_MS = 1.0

_X = np.linspace(0.1, 50.0, 200)


def block() -> int:
    quad(lambda t: math.exp(-0.1 * t) * math.cos(3 * t) / (1 + t * t),
         0, 60, limit=200)
    quad(lambda t: math.sin(t) / t if t else 1.0, 0, 40, limit=200)
    y = _X
    for _ in range(40):
        y = np.abs(sici(y)[0] * np.exp(-0.01 * _X)) + 0.1
    return len("\n".join(f"{a:.12g},{b:.12g}" for a, b in zip(_X, y)))


def seconds_per_block(reps: int) -> float:
    """Mean time of one block over reps blocks, with the garbage collector
    off so that the program's garbage is not collected on this clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            block()
        return (time.perf_counter() - start) / reps
    finally:
        if enabled:
            gc.enable()
