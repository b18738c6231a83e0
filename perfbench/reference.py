"""A fixed reference routine that measures how fast the host runs right now.

On a shared virtual machine the host's speed changes by up to 1.8x in
modes that last minutes (``README.md``, "Noise"), longer than a benchmark
run.  A wall-clock median then tells which mode the run fell in more
than how fast the program is.  The benchmark therefore times this routine
next to every pass and every set-up, and reports each time scaled to the
speed at which the routine takes :data:`NOMINAL_SECONDS`:

    scaled = measured * NOMINAL_SECONDS / reference time

The routine mixes the kinds of work the program does: an interpreted
loop over floats and a dict, small dense numpy kernels of the plant's
width, and zlib, which the result cache uses.  It never changes with the
program, so a change to the program moves the scaled times fully, while a
change of host mode moves the routine and the pass alike and cancels.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

__all__ = ["NOMINAL_SECONDS", "reference_seconds", "scale"]

#: About the routine's median time on a shared 2-vCPU VM (Python 3.11,
#: numpy 2.4); scaled times read as seconds at that speed.
NOMINAL_SECONDS = 0.006

_RNG = np.random.default_rng(2016)
_LEFT = _RNG.random((64, 52))
_RIGHT = _RNG.random((52, 52))
_BLOB = np.round(_RNG.random(4000), 3).tobytes()


def _routine() -> float:
    total = 0.0
    table = {}
    for index in range(10000):
        total += (index * 0.5) ** 0.5
        table[index % 97] = total
    for _ in range(80):
        product = _LEFT @ _RIGHT
        product = np.tanh(product) + product.mean(axis=0)
        total += float(product.sum())
    total += len(zlib.decompress(zlib.compress(_BLOB, 6)))
    return total


def reference_seconds() -> float:
    """Time one run of the reference routine."""
    started = time.perf_counter()
    _routine()
    return time.perf_counter() - started


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured while the routine took ``reference`` seconds,
    scaled to the nominal speed."""
    return seconds * NOMINAL_SECONDS / reference
