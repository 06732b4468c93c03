"""Fixed calibration workloads that measure how fast the machine is right now.

On a shared virtual machine the speed of one core drifts by tens of percent
over minutes, in CPU time as well as wall time, with no steal time reported.
On the 2-vCPU Xeon VM the benchmark was written on, a fixed chunk of work
took from 22 to 44 ms within ten minutes, and the same pipeline run from 9.1
to 14.4 s.  Medians over one run cannot average that out, so the benchmark
reports every time rescaled by a calibration chunk, measured in the same
process just before and after the work it rescales:

    t_reported = t_measured * REFERENCE_S[kind] / median(chunk times)

The speed of different kinds of work drifts differently, so each workload
uses the chunk that resembles it:

- ``interpreter`` (orders-chain, calc-batch): exact ``Fraction`` arithmetic.
  Over 200 s of back-to-back orders-chain units it cut the range of 25-s
  block medians from 60% raw to 6%; the mixed chunk left 15%.
- ``mixed`` (pipeline): ``Fraction`` arithmetic, vector arithmetic on a
  grid-sized array (the leapfrog) and ``zlib`` (the artifact write).  Over ten
  seeds it gave pipeline spreads of 0.07 to 0.11; the interpreter chunk gave
  about 0.3.  A 13-s pipeline unit drifts inside itself, which no chunk at
  its edges can follow.

The chunks use nothing from the package, so a change to the package cannot
move them.
"""

from __future__ import annotations

import statistics
import time
import zlib
from fractions import Fraction

import numpy as np

_GRID = np.linspace(-4.0, 4.0, 16385)
_BYTES = (np.sin(np.arange(49152) * 0.37) * 1e3).astype(np.float32).tobytes()


def _fractions(n: int) -> None:
    s = Fraction(0)
    for i in range(1, n):
        s += Fraction(i % 13 - 6, i % 97 + 1)


def _interpreter() -> None:
    _fractions(9000)


def _mixed() -> None:
    _fractions(2800)
    u, v = np.cos(_GRID), np.sin(_GRID)
    for _ in range(200):
        w = 2.0 * u - v
        w[1:-1] += 0.1 * np.diff(u, 2)
        v, u = u, w
    zlib.compress(_BYTES, 6)


CHUNKS = {"interpreter": _interpreter, "mixed": _mixed}
# median chunk times on the reference machine (2-core Xeon VM, Python 3.11.7,
# numpy 2.4.6); reported times are in seconds of that machine
REFERENCE_S = {"interpreter": 0.03, "mixed": 0.033}


def measure(kind: str, n: int) -> list:
    """Wall times of ``n`` chunks of the given kind."""
    work = CHUNKS[kind]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        work()
        out.append(time.perf_counter() - t0)
    return out


def scale(kind: str, samples: list) -> float:
    """Factor that turns a time measured next to ``samples`` into reference seconds."""
    return REFERENCE_S[kind] / statistics.median(samples)
