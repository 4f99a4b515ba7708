"""Host-speed probe: scales measured times to a fixed reference speed.

On a shared virtual machine the speed of one core changes by a quarter or
more within seconds, as other tenants come and go, and process CPU time
changes with it.  While a `HostSpeed` probe is active, a timer signal runs a
fixed pure-Python reference loop every INTERVAL_S seconds and records when
it started and how long it took.  `scaled` turns the wall time of an interval
into reference-speed seconds: the wall time, less the samples taken inside
it, times REFERENCE_S over the mean loop time of those samples and the
nearest sample on either side.

A timer signal cannot sample the start of an interpreter, and a set-up is
mostly process start, dynamic loading and unmarshalling, whose slowdown the
loop does not track.  So set-up times are scaled by `reference_launch`
instead: a fresh interpreter that imports numpy, which is a set-up without
pffcert.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time
from array import array

INTERVAL_S = 0.005
REFERENCE_ITERATIONS = 400
# About the loop's time on the 2-core x86-64 VM the benchmark was defined on,
# so that scaled times read about as wall times there.
REFERENCE_S = 9e-5


def reference_loop() -> int:
    """Tuple building and dict updates: of the loops tried, the one whose
    slowdown under contention tracked certify, N_formula and engine builds
    most closely."""
    acc: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i & 63, i % 7)
        acc[key] = acc.get(key, 0) + i * i % 97
    return len(acc)


# The reference launch, and about its time on the VM the benchmark was defined on.
REFERENCE_LAUNCH = "import sys, time; import numpy; print(time.time() - float(sys.argv[1]))"
REFERENCE_LAUNCH_S = 0.13


def reference_launch(env: dict[str, str], timeout: float) -> float:
    """Seconds from just before a fresh interpreter is started to the end of its numpy import."""
    cmd = [sys.executable, "-c", REFERENCE_LAUNCH, repr(time.time())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"reference launch failed with exit code {proc.returncode}:\n{proc.stderr.strip()}")
    return float(proc.stdout)


class HostSpeed:
    """Context manager sampling the reference loop on SIGALRM (main thread only)."""

    def __init__(self) -> None:
        self.at = array("d")  # start of each sample
        self.took = array("d")  # the loop's time in each sample

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def busy(self, start: float, end: float) -> float:
        """Wall time of the perf_counter interval [start, end] less the samples taken in it."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        return end - start - sum(self.took[lo:hi])  # a sample that starts inside also ends inside

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of work in the perf_counter interval [start, end]."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        window = self.took[max(0, lo - 1):hi + 1]
        return self.busy(start, end) * REFERENCE_S * len(window) / sum(window)
