"""Speed calibration: scales wall times to a reference machine speed.

A shared host's CPU speed drifts by tens of percent over tens of seconds,
for every program on it alike. ``calibrate`` times a fixed kernel that
calls no symquant code; the harness runs it between rungs, and
``speed_factors`` turns those samples into one factor per pass, so that a
pass of ``t`` wall seconds is reported as ``t * factor``: the time it would
take on a machine where the kernel takes CALIBRATION_REF_S.
"""

import statistics
import time

import numpy as np

CALIBRATION_REF_S = 0.006  # calibrate() at the reference speed
SPEED_WINDOW = 2           # passes on each side whose samples set a factor

_rng = np.random.default_rng(0)
_STACK = _rng.normal(size=(32, 64, 64)) + 1j * _rng.normal(size=(32, 64, 64))
_STACK_REV = _STACK[::-1].copy()
_STACK_OUT = np.empty_like(_STACK)
_HERM = _rng.normal(size=(48, 48)) + 1j * _rng.normal(size=(48, 48))
_HERM = _HERM + _HERM.conj().T


def calibrate():
    """Wall seconds of a fixed kernel that mixes what symquant spends its
    time on: interpreted Python (integer arithmetic, dict stores), complex
    matrix products over a working set larger than a core's L2 cache, and
    small LAPACK eigendecompositions. It allocates nothing that outlives
    the call."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc += i * i % 7
        table[i & 255] = acc
    np.matmul(_STACK, _STACK_REV, out=_STACK_OUT)
    for _ in range(2):
        np.linalg.eigh(_HERM)
    return time.perf_counter() - t0


def speed_factors(samples, window=SPEED_WINDOW):
    """One factor per pass from each pass's calibration samples: the
    reference time over the median of the samples of this pass and of up to
    ``window`` passes on either side. Pooling neighbours smooths the
    kernel's own jitter; the drift it corrects is slower than that."""
    factors = []
    for i in range(len(samples)):
        pooled = [c for s in samples[max(0, i - window):i + window + 1] for c in s]
        factors.append(CALIBRATION_REF_S / statistics.median(pooled))
    return factors


def bottom_factor(samples):
    """The factor for a pass's first rung alone: the reference time over the
    mean of the samples taken just before and just after it."""
    return CALIBRATION_REF_S / ((samples[0] + samples[1]) / 2.0)
