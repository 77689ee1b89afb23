"""Child-process timing that corrects for the speed of a shared machine.

The machines this benchmark runs on are shared: the same command runs up to
65% slower for seconds to minutes at a time while other tenants load the
host, and the process's own CPU time slows with it.  A fixed piece of
pure-Python work (the *gauge*) timed right next to the program slows in step
with it (adjacent gauges 0.1 s apart correlate at about 0.85), so the
program's time is measured in slices with a gauge between each two:

    child runs ~SLICE_S | child stopped, gauge runs | child runs ~SLICE_S | ...

The whole process group of the child is stopped with SIGSTOP while the
gauge runs, so nothing of the program competes with it.  A slice's
*normalized* time is its wall time times ``GAUGE_REFERENCE_S`` over the
median of the four gauges nearest it: the time the slice would have taken on
the machine at its reference speed.  Raw wall times are kept beside the
normalized ones.

    m = run_sliced([sys.executable, "-c", "pass"], env, cwd, out, err, timeout=60)
    m.code, m.raw_s, m.norm_s, m.maxrss_kb, m.normalize(start, end)

``perf_counter`` is CLOCK_MONOTONIC, shared by every process on the
machine, so an interval a child records with it can be normalized here with
:meth:`Measured.normalize`.
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field

SLICE_S = 0.1
PAD = 2
# The gauge's fastest times on a 2-core Intel Xeon VM (CPython 3.11); it took
# 0.9 to 1.6 ms there as the load of other tenants changed.  Normalized times
# read as wall times on that machine when it is unloaded.
GAUGE_REFERENCE_S = 0.9e-3

_KEYS = [random.Random(1).randrange(5000) for _ in range(3000)]
# Closed neighbourhoods of C_8 plus the chord 2-6, as bit masks.
_CLOSED = [0b10000011, 0b00000111, 0b01001110, 0b00011100,
           0b00111000, 0b01110000, 0b11100100, 0b11000001]


def _work() -> None:
    """A fixed mix of the kinds of work the program does, about 1 ms.

    Integer arithmetic, dict updates, a keyed sort of tuples and a
    brute-force dominating-set search over bit masks.
    """
    s = 0
    for i in range(4000):
        s += i * i % 7
    counts: dict[int, int] = {}
    for k in _KEYS:
        counts[k] = counts.get(k, 0) + 1
    rows = [(i, str(i)) for i in range(1000)]
    rows.sort(key=lambda r: r[1])
    best = 8
    for mask in range(256):
        covered = 0
        for v in range(8):
            if mask >> v & 1:
                covered |= _CLOSED[v]
        if covered == 255:
            best = min(best, bin(mask).count("1"))


def gauge() -> float:
    """Time the fixed work once, with the caches as the child left them.

    Any slice of the program evicts the work's small working set, so the
    gauge always starts cold and its time includes refilling the caches, as
    the program's does after every stop.  A gauge timed warm (a second round
    right after the first) gave no steadier results.
    """
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


for _ in range(20):  # let the interpreter specialize the gauge's code first
    _work()


@dataclass
class Measured:
    """One child's exit code, peak RSS, run slices and the gauges around them.

    ``gauges`` holds PAD gauges taken before the first slice, one after each
    slice and PAD more after the last.  Slice i is normalized by the median
    of the 2 * PAD gauges nearest it, ``gauges[i : i + 2 * PAD]``, so that one
    gauge the host happened to preempt cannot skew it.
    """

    code: int = 0
    maxrss_kb: int = 0
    slices: list[tuple[float, float]] = field(default_factory=list)
    gauges: list[float] = field(default_factory=list)

    def _weighted(self):
        for i, (a, b) in enumerate(self.slices):
            yield a, b, GAUGE_REFERENCE_S / statistics.median(self.gauges[i:i + 2 * PAD])

    @property
    def raw_s(self) -> float:
        return sum(b - a for a, b in self.slices)

    @property
    def norm_s(self) -> float:
        return sum((b - a) * w for a, b, w in self._weighted())

    def normalize(self, start: float, end: float) -> float:
        """Normalized time of the part of [start, end] in which the child ran."""
        total = 0.0
        for a, b, w in self._weighted():
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                total += overlap * w
        return total


class Timeout(RuntimeError):
    pass


def _stop(pid: int):
    """Stop the child's process group; ``(status, rusage)`` if the child exited instead."""
    try:
        os.killpg(pid, signal.SIGSTOP)
    except ProcessLookupError:
        pass
    _, status, usage = os.wait4(pid, os.WUNTRACED)
    if os.WIFSTOPPED(status):
        return None
    return status, usage


def run_sliced(argv: list[str], env: dict, cwd, stdout_path, stderr_path,
               timeout: float) -> Measured:
    """Run ``argv`` to completion in its own session, timed in gauged slices.

    stdout and stderr go to the two files (a pipe nobody reads while the
    child is stopped would fill).  Raises :class:`Timeout` after ``timeout``
    seconds of wall time; the child's whole group is killed and reaped on
    every way out.
    """
    m = Measured()
    deadline = time.perf_counter() + timeout
    m.gauges.extend(gauge() for _ in range(PAD))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                start_new_session=True)
    pidfd = os.pidfd_open(proc.pid)
    poller = select.poll()
    poller.register(pidfd, select.POLLIN)
    done = None
    try:
        while done is None:
            t0 = time.perf_counter()
            if t0 > deadline:
                raise Timeout(" ".join(argv))
            exited = poller.poll(SLICE_S * 1000)
            t1 = time.perf_counter()
            if exited:
                done = os.wait4(proc.pid, 0)[1:]
            else:
                done = _stop(proc.pid)
            m.slices.append((t0, t1))
            m.gauges.append(gauge())
            if done is None:
                os.killpg(proc.pid, signal.SIGCONT)
        m.gauges.extend(gauge() for _ in range(PAD))
    finally:
        os.close(pidfd)
        if done is None:
            for sig in (signal.SIGCONT, signal.SIGKILL):
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    pass
            os.wait4(proc.pid, 0)
        proc.returncode = -1  # reaped here; keeps Popen from waiting again
    status, usage = done
    m.code = os.waitstatus_to_exitcode(status)
    m.maxrss_kb = usage.ru_maxrss
    return m
