"""Machine-speed probe.

The benchmark's host flips between a fast and a slow state, about 1.5x
apart, within seconds, and its average speed drifts by up to a quarter
over minutes.  A fixed ~30 ms mix of interpreter work and batched LAPACK
work, timed before and after every timed call, tracks that: on the
baseline container the probe and a weaver instance moved together within
a few percent while both swung by a quarter.  Each time is reported
divided by the speed factor around it, so it reads as seconds on the host
at its reference speed.  The probe runs only the harness's own code, so
no change to the library moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Typical probe time on the baseline container (2-core x86, Python 3.11,
# numpy 2.4) in its fast state.
REFERENCE_S = 0.026

_rng = np.random.default_rng(0)
_MATS = _rng.standard_normal((2000, 10, 10))
_MATS = _MATS + _MATS.transpose(0, 2, 1)
_BASE = _rng.standard_normal((10, 10))


def probe() -> float:
    """Seconds taken by the fixed probe work: an int/dict loop, Fraction
    arithmetic, and a broadcast-add-eigvalsh batch shaped like the
    enumeration engine's."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1000003
    f = Fraction(1, 3)
    for i in range(800):
        f = (f * 3 + Fraction(1, i + 2)) / 4
    batch = np.broadcast_to(_BASE, _MATS.shape).copy()
    batch += _MATS
    np.linalg.eigvalsh(batch)
    return time.perf_counter() - t0


def factors(probes: list) -> list:
    """Speed factor of each stretch between consecutive probes: the mean of
    its two probes over ``REFERENCE_S``."""
    return [(a + b) / (2.0 * REFERENCE_S) for a, b in zip(probes, probes[1:])]
