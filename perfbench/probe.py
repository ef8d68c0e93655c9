"""Host-speed probe: a fixed piece of pure-Python work timed every few
milliseconds from a timer signal, so the benchmark can tell how fast the
host ran the code under test at each moment.

On a shared host the same code runs up to 2.5 times slower in phases that
last from under a second to minutes, and CPU time slows with wall time
(the contention is for the processor's caches and cores, not for time on
it).  Code of the same kind as qkron's slows by nearly the same factor at
the same moment, so an op's time divided by the probe's time around it
stays steady when the raw time does not.  The probe never touches qkron.

Nothing here imports qkron.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# seconds of wall time between probes
INTERVAL_S = 0.025
# probes that end this close to an op also count as "around" it
MARGIN_S = 0.1
# what one probe takes on a quiet 2-vCPU x86 VM with Python 3.11: the unit
# that normalized times are expressed in, so they read as seconds there
REF_S = 0.00020
# timed passes of `work` per probe, after one untimed pass
WARM_PASSES = 3
# untimed passes of `work` when the probe starts
WARM_UP_PASSES = 10
# seconds after set-up whose probes also count for the set-up's slowdown
SETUP_TAIL_S = 0.3


# the probe's working storage, allocated once: `work` makes no container
# objects, only ints and strings, which the cyclic garbage collector does not
# count.  So the probe never moves the point where a collection runs in the
# measured code: a full collection of qkron's memo tables is a 20-35 ms
# pause, which would otherwise land on a different op in each repetition.
_COEF = [0] * 13
_PROD = [0] * 25


def work():
    """The probe's fixed work, the kinds of operation qkron spends its time
    in: products of Laurent polynomials with int coefficients, rational
    arithmetic and formatting terms as text."""
    c, p = _COEF, _PROD
    for i in range(13):
        c[i] = (i * 7) % 13 - 6
    for _ in range(4):
        for k in range(25):
            p[k] = 0
        for i in range(13):
            ci = c[i]
            for j in range(13):
                p[i + j] += ci * c[j]
        for i in range(13):
            c[i] = p[i + 6] % 1000003 - 500001
    # a sum of fractions i / (i^2 + 1), reduced at each step
    num, den = 0, 1
    for i in range(1, 8):
        num, den = num * (i * i + 1) + i * den, den * (i * i + 1)
        g = math.gcd(num, den)
        num, den = num // g, den // g
    n = num % 1000003
    for i in range(150):
        term = f"{c[i % 13] + i}*q^{i - 75}" + "+" + str(i * i)
        n += len(term) + term.find("q")
    return n


class Probe:
    """Runs `work` at `start`, from SIGALRM every INTERVAL_S of wall time
    after it, and at `stop`, recording when each probe ended and how long
    it took; `busy_s` is the running total, to subtract from the ops."""

    def __init__(self):
        self.ends = []
        self.durations = []
        self.busy_s = 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        # the first pass brings the probe's code and data back into the
        # caches the ops evicted; only the warm passes are timed
        work()
        t1 = time.perf_counter()
        for _ in range(WARM_PASSES):
            work()
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.durations.append((t2 - t1) / WARM_PASSES)
        self.busy_s += t2 - t0

    def start(self):
        # the interpreter specializes the probe's bytecode only after it has
        # run a few times; until then a probe reads slow in a fresh process
        t0 = time.perf_counter()
        for _ in range(WARM_UP_PASSES):
            work()
        self.busy_s += time.perf_counter() - t0
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def slowdown(self, t0, t1):
        """The host's slowdown between perf_counter times t0 and t1, from
        the probes within MARGIN_S of that span."""
        return slowdown(self.ends, self.durations, t0, t1)


def slowdown(ends, durations, t0, t1):
    """The harmonic mean of the durations of the probes that ended in
    [t0 - MARGIN_S, t1 + MARGIN_S], over REF_S; with none there (a signal
    held off by one long call), of the nearest probe on each side.  `ends`
    is sorted and not empty.

    A probe's REF_S / duration is the host's speed when it ran, so the
    harmonic mean averages the speed over the span, and an op's time over
    it is the op's time at the reference speed.  The host switches between
    a fast and a slow speed many times a second; a median of the probe
    times would jump between the two."""
    lo = bisect.bisect_left(ends, t0 - MARGIN_S)
    hi = bisect.bisect_right(ends, t1 + MARGIN_S)
    if lo == hi:
        lo, hi = max(lo - 1, 0), hi + 1
    return statistics.harmonic_mean(durations[lo:hi]) / REF_S
