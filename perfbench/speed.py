"""Host-speed correction for the benchmark's timings.

The benchmark runs on virtual machines whose vCPUs share a host, and the
speed of a vCPU there can change by a factor of two or three within seconds
(the guest's own CPU-time clocks slow down with it, so CPU time does not
help). Raw wall times then measure the host more than the program. The
timings are therefore corrected by a fixed unit of reference work,
``unit()``, timed during the measurement: a time ``t`` measured while the
unit took ``u`` seconds is reported as ``t * REF_UNIT_S / u``, the time the
same work takes on a host where the unit takes ``REF_UNIT_S``.

The unit is benchmark code, so no change to cdgate moves it; it is made of
the same kind of work as cdgate's (small complex matrix steps driven from
Python), so it slows down with the host as cdgate does.

``Sampler`` times the unit every ``PERIOD_S`` of wall time from a SIGALRM
handler, which runs on the main thread between bytecodes, so a pass is
corrected by the host speed of each part of it. Its own time is taken out
of the pass.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Thread CPU seconds of one unit on the reference host. It only sets the
# scale of the reported times: about three quarters of the fastest unit time
# seen on the 2-vCPU Intel Xeon 2.0 GHz virtual machine the benchmark was
# written on (2.4 ms; 3.6 ms in its slow minutes).
REF_UNIT_S = 0.0018
PERIOD_S = 0.2
STEPS = 200

_k = np.arange(16.0).reshape(4, 4)
_A = np.cos(_k) + 1j * np.sin(1.7 * _k)
_A = 0.01 * (_A - _A.conj().T)
_EYE = np.eye(4, dtype=complex)


def unit() -> float:
    """Thread CPU seconds of one unit of reference work."""
    t0 = time.thread_time()
    x = _EYE
    for _ in range(STEPS):
        x = x + 0.01 * (_A @ x - x @ _A)
        x = 0.5 * (x + x.conj().T)
    return time.thread_time() - t0


def factor(n: int = 5) -> float:
    """REF_UNIT_S over the median of ``n`` units timed now."""
    return REF_UNIT_S / statistics.median(unit() for _ in range(n))


class Sampler:
    """Times ``unit()`` every PERIOD_S seconds while the block runs.

    ``corrected(wall)`` turns the block's wall time into reference-host
    seconds: the wall time less the sampler's own, times the mean of
    REF_UNIT_S / unit over the samples, which are evenly spaced in time.
    """

    def __init__(self):
        self.factors: list[float] = []
        self.own_s = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.factors.append(REF_UNIT_S / unit())
        self.own_s += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def corrected(self, wall_s: float) -> float:
        return (wall_s - self.own_s) * statistics.fmean(self.factors)
