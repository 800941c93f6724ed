"""Operation times scaled to a fixed machine speed.

The benchmark runs on shared virtual machines whose speed changes by up
to 1.6x in phases of a few seconds to minutes, with no steal time to show
for it, so wall times of the same code on the same machine spread too
far to compare two commits.  :func:`measure` therefore samples the speed
while an operation runs: a SIGALRM handler times a fixed kernel every
``PERIOD_S`` seconds, and the kernel is timed once more just before and
just after the operation.  The operation's time is its wall time less the
time spent in the handler; its normalised time scales that by the
kernel's reference time over its median time, which gives the seconds the
operation takes on a machine that runs the kernel in its reference time.

Two kernels exist, both starting with the same integer loop: ``python``
adds interpreted float code shaped like the RK4 steps, and ``numpy`` adds
small-array numpy calls.  A workload uses the one that matches where its
time goes; each tracks that workload's slowdowns more closely than the
other (see NOTES.md).  The kernels belong to the benchmark, not to the
program, so a change to the program moves the operation's time and not
the speed estimate.  A Python signal handler runs between bytecodes, so
during one long call into C the samples are fewer, never wrong.
"""

from __future__ import annotations

import array
import math
import signal
import time

PERIOD_S = 0.02
# samples kept per operation; later ones overwrite the oldest
MAX_SAMPLES = 4096
_ARRAY: list = []  # built on first use, so that set-up probes do not import numpy early


def _loop() -> None:
    total = 0
    for k in range(2000):
        total += k * k % 7


def _floats() -> None:
    def deriv(state):
        d, w = state
        return (w - 1.0, (0.8 - math.sin(d) - 0.1 * (w - 1.0)) / 10.0)

    y = (0.5, 1.0)
    for _ in range(60):
        k1 = deriv(y)
        k2 = deriv(tuple(a + 5e-4 * b for a, b in zip(y, k1)))
        y = tuple(a + 1e-3 * (b + c) for a, b, c in zip(y, k1, k2))


def _arrays() -> None:
    if not _ARRAY:
        import numpy

        _ARRAY.append(numpy.linspace(0.0, 1.0, 20000))
    a = _ARRAY[0]
    for _ in range(4):
        (a * a + 1.0).sum()


# kernel name -> (parts, seconds per run on the reference machine, an
# Intel Xeon (Sapphire Rapids) KVM guest, in its fast phases)
KERNELS = {
    "python": ((_loop, _floats), 2.5e-4),
    "numpy": ((_loop, _arrays), 5.0e-4),
}


def kernel_s(kernel: str) -> float:
    """Seconds to run the named kernel once."""
    start = time.perf_counter()
    for part in KERNELS[kernel][0]:
        part()
    return time.perf_counter() - start


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def measure(fn, kernel: str = "python") -> tuple:
    """Run ``fn()``; return (result, wall seconds, normalised seconds).

    Exceptions from ``fn`` propagate, with the timer stopped and the
    previous SIGALRM handler restored.
    """
    # Samples live in one preallocated buffer: Python floats kept alive
    # from a handler, at random points of the operation, would pin the
    # allocator's arenas and make the operation's peak memory vary.
    # Slot 0 sums the time spent in the handler, slot 1 counts samples.
    slots = array.array("d", bytes(8 * (MAX_SAMPLES + 2)))

    def sample():
        slots[2 + int(slots[1]) % MAX_SAMPLES] = kernel_s(kernel)
        slots[1] += 1.0

    def on_alarm(signum, frame):
        entered = time.perf_counter()
        sample()
        slots[0] += time.perf_counter() - entered

    sample()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    sample()
    wall = end - start - slots[0]
    kernel_median = _median(slots[2:2 + min(int(slots[1]), MAX_SAMPLES)])
    return result, wall, wall * KERNELS[kernel][1] / kernel_median
