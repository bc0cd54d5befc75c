"""The speed of the host, measured with a fixed reference kernel.

A shared host changes speed from one second to the next (on a 2-core
x86_64 host each CPU switched between two speeds about 1.7x apart, in
episodes of several to 40 s), and a body of the benchmark takes seconds,
so its wall time says as much about the host as about the program.  The
benchmark therefore times a small fixed kernel of the benchmark's own
(pure-Python integer arithmetic, no call into ``sphertet``) on the same
CPU as the program: every ``PERIOD_S`` of a body a timer signal interrupts
the body, runs the kernel once and records how long it took.

``speed()`` turns those samples into the host's speed relative to a fixed
nominal host, on which one kernel takes ``NOMINAL_NS``: the mean over the
body of the kernel's speed, with the fastest and slowest tenth of the
samples dropped (a sample hit by an interrupt reads too slow).  The
samples are equally spaced in time, so the mean speed times the wall time
is the work the host did; a timing multiplied by ``speed()`` is the time
the same work takes on the nominal host.  A slower program still takes
more time, whatever the host's speed; the kernel never runs program code.

The time the kernel takes is not part of the body: ``clock_ns()`` is
``time.perf_counter_ns()`` minus the time spent in the kernel so far.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import Optional

PERIOD_S = 0.05
# one kernel on the nominal host; about the speed of a fast episode of
# the host described above
NOMINAL_NS = 500_000
_TRIM = 0.1
# a request's latency is scaled by the speed over the request and this
# much on either side: shorter than the host's speed episodes, long
# enough for about twenty samples
WINDOW_NS = 500_000_000
MIN_WINDOW_SAMPLES = 10
_MODULUS = (1 << 127) - 1

_paused_ns = 0


def kernel() -> int:
    """Fixed work: integer arithmetic only, so it allocates nothing the
    garbage collector tracks and its time cannot depend on the heap the
    program built."""
    a = 0x2545F4914F6CDD1D
    for i in range(1600):
        a = (a * a + i) % _MODULUS
    return a


def clock_ns() -> int:
    """perf_counter_ns() minus the time the sampler took from the program."""
    return time.perf_counter_ns() - _paused_ns


def time_kernel() -> int:
    """Run the kernel once; its duration in ns, excluded from clock_ns()."""
    global _paused_ns
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    kernel()
    took = time.perf_counter_ns() - t0
    if enabled:
        gc.enable()
    _paused_ns += took
    return took


def speed(samples_ns) -> float:
    """Host speed relative to the nominal host; 1.0 when there is no sample."""
    speeds = sorted(NOMINAL_NS / s for s in samples_ns if s > 0)
    if not speeds:
        return 1.0
    cut = int(len(speeds) * _TRIM)
    kept = speeds[cut:len(speeds) - cut] or speeds
    return sum(kept) / len(kept)


class Sampler:
    """Times the kernel every PERIOD_S of wall time while running."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples_ns: list[int] = []
        self.stamps_ns: list[int] = []  # clock_ns() when each sample began
        self._previous: Optional[object] = None

    def _on_timer(self, signum, frame) -> None:
        self.stamps_ns.append(clock_ns())
        self.samples_ns.append(time_kernel())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        return speed(self.samples_ns)

    def speed_around(self, start_ns: int, end_ns: int) -> float:
        """The host speed from WINDOW_NS before start_ns to WINDOW_NS after
        end_ns (clock_ns() times), or over the whole run when that window
        holds fewer than MIN_WINDOW_SAMPLES samples."""
        lo = bisect.bisect_left(self.stamps_ns, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.stamps_ns, end_ns + WINDOW_NS)
        if hi - lo < MIN_WINDOW_SAMPLES:
            return self.speed()
        return speed(self.samples_ns[lo:hi])
