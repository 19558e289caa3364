"""Host-speed reference, measured on the core the workload runs on.

On a shared cloud VM (2 vCPUs, Intel Xeon) the speed of interpreter
work drifts by 20-40 % over tens of seconds, and the two vCPUs drift
independently, so neither longer runs nor a reference process on the
other core make raw timings repeat from run to run.  A fixed
calibration kernel run inside the measured process does track the
drift: every ``PERIOD`` seconds a SIGALRM handler runs a calibration
kernel and records how long it took.  A workload uses the kernel whose
work resembles its own: ``calibrate`` for interpreter-bound code,
``calibrate_bigint`` for big-integer series arithmetic.

``HostClock.now`` is CLOCK_MONOTONIC minus the time spent in the
handler, so calibration never counts as program time.
``HostClock.factor(a, b)`` is ``(ref_s / k) ** elasticity`` with ``k``
the median kernel time between the ``now`` readings ``a`` and ``b``; a
raw duration times the factor is in reference seconds, roughly the time
the work takes on a host that runs the kernel in ``ref_s``.  The
elasticity is the log-log slope of a workload's time against the
kernel's time as the host drifts; it is below 1 because the kernel
slows down more than the workloads do.  The kernel is benchmark code, so
a change to the program moves reference seconds as it moves raw seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.1

_TABLE = dict.fromkeys(range(512), 0)
_SLOTS = [0] * 512
_PAIR = [0] * 12


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _matchings(pair: list[int], n: int) -> int:
    """Perfect matchings of vertices 1..n by backtracking, in place."""
    i = 1
    while i <= n and pair[i]:
        i += 1
    if i > n:
        return 1
    total = 0
    for j in range(i + 1, n + 1):
        if not pair[j]:
            pair[i] = j
            pair[j] = i
            total += _matchings(pair, n)
            pair[i] = pair[j] = 0
    return total


def calibrate() -> int:
    """Fixed interpreter work, about 2 ms: a backtracking count over a
    list and integer table updates.  It allocates no container objects,
    so it never sets off a garbage collection of the program's heap."""
    acc = _matchings(_PAIR, 10)
    table, slots = _TABLE, _SLOTS
    for k in range(3000):
        j = k & 511
        table[j] = k
        slots[j] = acc
        acc = (acc + table[(k * 7) & 511] + slots[(k * 3) & 511]) & 0xFFFFFF
    return acc


_SERIES = [3 ** (600 + 7 * k) for k in range(45)]


def calibrate_bigint() -> list[int]:
    """Fixed big-integer work, about 2 ms: the truncated product of two
    45-term series of 950-1440-bit integers, a loop of the same shape as
    a power-series product."""
    n = len(_SERIES)
    out = [0] * n
    for i in range(n):
        a = _SERIES[i]
        for j in range(n - i):
            out[i + j] += a * _SERIES[j]
    return out


KERNELS = {"interpreter": calibrate, "bigint": calibrate_bigint}


class HostClock:
    def __init__(self, ref_s: float, kernel: str, elasticity: float) -> None:
        self.ref_s = ref_s
        self.kernel = KERNELS[kernel]
        self.elasticity = elasticity
        self.offset = 0.0
        self.samples: list[tuple[float, float]] = []

    def now(self) -> float:
        return _mono() - self.offset

    def _tick(self, signum, frame) -> None:
        t0 = _mono()
        self.kernel()
        dt = _mono() - t0
        self.samples.append((t0 - self.offset, dt))
        self.offset += dt

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, a: float, b: float) -> float:
        """Reference seconds per raw second over [a, b]."""
        inside = [dt for t, dt in self.samples if a <= t <= b]
        if not inside:  # shorter than PERIOD: use the latest readings
            inside = [dt for _, dt in self.samples[-3:]] or [calibrate_once(self.kernel)]
        return (self.ref_s / statistics.median(inside)) ** self.elasticity


def calibrate_once(kernel) -> float:
    """Median time of five kernel runs, for processes without ticks."""
    times = []
    for _ in range(5):
        t0 = _mono()
        kernel()
        times.append(_mono() - t0)
    return statistics.median(times)
