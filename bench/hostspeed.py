"""Host-speed calibration for timings taken on a shared machine.

On a shared host the same fixed work runs up to 40% faster or slower from
one minute to the next, because other tenants load the same cores and
caches.  :class:`HostSpeed` measures that drift in the run itself: a
SIGALRM interval timer interrupts the benchmark every ``INTERVAL_S`` seconds
(between Python bytecodes, so also in the middle of a long op) and times
one slice of a fixed reference kernel, built from the same kinds of work
the library does (small complex Schur forms and products, singular values,
a mid-size symmetric eigensolve, an interpreted loop).  The reference code
and data live here, not in the library, so a change to the library cannot
move them.

``slowdown()`` is the mean slice time over ``NOMINAL_SLICE_S``: 1.0 means
the host ran at the reference speed, 1.3 that it ran 30% slower.  Dividing
a wall time by it gives the time the work would have taken at the
reference speed.  ``stolen`` is the wall time spent in slices, which the
caller subtracts from the intervals it times.
"""
from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg as sla

# Mean slice time on an unloaded 2-core x86-64 host (OpenBLAS, one thread).
NOMINAL_SLICE_S = 0.005
# One slice per interval: about 5% of the run.
INTERVAL_S = 0.1

_rng = np.random.default_rng(20200331)
_SMALL = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
          for n in (3, 4, 5, 6, 7, 8)]
_MID = _rng.standard_normal((40, 40))
_MID = _MID + _MID.T


def reference_slice():
    """Fixed work of about ``NOMINAL_SLICE_S`` seconds; returns a checksum."""
    acc = 0.0
    for _ in range(6):
        for a in _SMALL:
            _, z = sla.schur(a, output="complex")
            acc += abs(np.trace(z.conj().T @ a @ z))
            acc += float(np.linalg.svd(a, compute_uv=False)[0])
        acc += float(np.linalg.eigvalsh(_MID)[-1])
        acc += sum(i * 0.5 for i in range(300))
    return acc


class HostSpeed:
    """Reference slices interleaved with the benchmark by an interval timer."""

    def __init__(self):
        self.stolen = 0.0
        self.slices = 0
        self._inside = False
        self._previous = None

    def _tick(self, signum, frame):
        if not self._inside:
            self.sample()

    def sample(self):
        """Time one reference slice now."""
        self._inside = True
        t0 = time.perf_counter()
        reference_slice()
        self.stolen += time.perf_counter() - t0
        self.slices += 1
        self._inside = False

    def mark(self):
        """A point to measure ``slowdown`` from."""
        return self.stolen, self.slices

    def start(self):
        for _ in range(3):  # first calls load LAPACK paths; not counted
            reference_slice()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.resume()

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        self.pause()
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown(self, since=(0.0, 0)):
        """Host slowdown over the slices taken since the ``mark`` ``since``."""
        if self.slices == since[1]:
            self.sample()
        return (self.stolen - since[0]) / (self.slices - since[1]) / NOMINAL_SLICE_S
