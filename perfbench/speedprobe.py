"""Host-speed probe sampled all through a timed pass.

On a shared host the same pass takes 20 to 30 % longer in some minutes
than in others, and the speed changes within seconds, often inside one
long task.  The probe times a fixed reference loop of interpreter work that
does not touch ``gcms`` before the pass, every ``PERIOD_S`` of wall time
during it (from a ``SIGALRM`` handler, so also inside long tasks), and
after it.

``cost(a, b)`` is the time from ``a`` to ``b`` counted in reference loops:
the interval, with the probes inside it cut out, is split at the probes,
and each piece is divided by the mean loop time of the two probes around
it.  The program's own work sets the cost; the host's speed at the time
cancels out.  The loop is interpreter work only: a loop of numpy array
work beside it made the cost no steadier on any of the three workloads.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.1
LOOP_ITERATIONS = 15_000


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous_handler = None

    def _probe(self, *_signal_args) -> None:
        clock = time.perf_counter
        t0 = clock()
        acc, slots = 0, {}
        for i in range(LOOP_ITERATIONS):
            acc += i * i % 7
            slots[i & 255] = acc
        t1 = clock()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._probe()

    def _inside(self, a: float, b: float) -> range:
        """Indices of the probes that ran between ``a`` and ``b``."""
        return range(bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b))

    def _loop_s(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def probe_s(self, a: float, b: float) -> float:
        """Wall time spent in probes between ``a`` and ``b``."""
        return sum(self._loop_s(i) for i in self._inside(a, b))

    def loop_s(self, a: float, b: float) -> float:
        """Mean loop time of the probes in and around [a, b]."""
        inside = self._inside(a, b)
        near = range(inside.start - 1, inside.stop + 1)
        return sum(self._loop_s(i) for i in near) / len(near)

    def cost(self, a: float, b: float) -> float:
        """Time from ``a`` to ``b``, probes cut out, in reference loops.

        ``a`` must come after ``start`` and ``b`` before ``stop``, so that
        a probe ran on each side.
        """
        inside = self._inside(a, b)
        total, t, prev = 0.0, a, inside.start - 1
        for i in inside:
            total += (self.starts[i] - t) / (0.5 * (self._loop_s(prev) + self._loop_s(i)))
            t, prev = self.ends[i], i
        return total + (b - t) / (0.5 * (self._loop_s(prev) + self._loop_s(inside.stop)))
