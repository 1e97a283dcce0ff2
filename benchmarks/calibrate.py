"""Host-speed calibration: times at a fixed reference speed.

The shared 2-core host runs in phases of different speed, up to 1.6x
apart, that last from a few seconds to minutes; process CPU time slows by
the same factor as wall time, so the slow phases are not preemption. A
30 s run sees a few phases, and two sets of runs minutes apart can see
different ones. So every timed call runs next to a fixed reference kernel
that mixes what povmlab spends its time on (interpreter work, small complex
eigenproblems and products, one mid-size complex product), and a time
divided by the kernel's time at that moment, times REFERENCE_S, is the time
at a fixed reference speed. The kernel is benchmark code and never changes
with the program, so a faster or slower program still shows in full.

A workload whose time goes to dense D x D products (``oracle``) adds one
96 x 96 complex product to the kernel: its cases slow down with the host
like that product does, and the small-object kernel alone tracked them less
well (over 8 runs, the spread of its tail latency was 0.107 with the small
kernel and 0.051 with both; on ``decide`` the product made it worse).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time, without and with the dense product, on
# the 2-core host the bounds were set on (Python 3.11, numpy 2, OpenBLAS on
# one thread); they only set the scale.
REFERENCE_S = {False: 2.0e-4, True: 3.5e-4}
_REPS = 2
# A run's speed is the median of the kernel samples this many places
# before and after it.
_HALF_WINDOW = 4

_rng = np.random.default_rng(20040616)
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(8)]
_MID = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_DENSE = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))


def _kernel(dense: bool) -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for m in _SMALL:
        h = m + m.conj().T
        acc += float(np.linalg.eigvalsh(h)[0]) + float(np.abs(h @ h).max())
    acc += float((_MID @ _MID).real[0, 0])
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 17] = counts.get(i % 17, 0) + i
    if dense:
        acc += float((_DENSE @ _DENSE).real[0, 0])
    return time.perf_counter() - t0


def sample(dense: bool = False) -> float:
    """The kernel's time now: the fastest of a few back-to-back runs."""
    return min(_kernel(dense) for _ in range(_REPS))


def speed_factors(samples: list[float], dense: bool = False) -> list[float]:
    """Reference time over the median of the samples near each sample:
    multiply a time measured next to sample i by factor i to get it at the
    reference speed."""
    return [REFERENCE_S[dense]
            / statistics.median(samples[max(0, i - _HALF_WINDOW):i + _HALF_WINDOW + 1])
            for i in range(len(samples))]
