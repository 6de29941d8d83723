"""Host-speed reference: scales measured times to a fixed machine speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to half over tens of seconds while neighbours come and go (the same
selection on the same input takes 0.47 s in one quarter minute and 0.71 s
in the next, with CPU time equal to wall time, so the process is not
descheduled: the core itself runs slower).  Such drift spans whole runs
and no number of repetitions inside a run averages it out.

So a fixed reference kernel, which uses none of the insense code, runs
before and after every timed interval, or every segment of a long one
(see Speed): the same mix of work the program
does (interpreter loops, small and dense numpy array operations, a small
HiGHS linear program), timed as the median of a few rounds.  A time is
reported scaled by REF_S over the mean of the two reference times around
it, i.e. as it would read on a host where one round of the kernel takes
REF_S.  A change to the program moves the scaled time as much as the raw
one; a slower phase of the host moves both the interval and the kernel
and cancels out.  The raw times are printed next to the scaled ones.
"""

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# One kernel round's time on an unloaded core of a 2.0 GHz Xeon with one BLAS
# thread; the scaled times then read close to raw times on a quiet host.
REF_S = 0.0075
_ROUNDS = 3
# The host's speed holds for about a second and can change by a third within
# a few: a long operation is split into segments of about this length.
SEGMENT_S = 0.25


def _kernel_data():
    rng = np.random.default_rng(20170224)
    a = rng.standard_normal((10, 20))
    x = np.zeros(20)
    x[[3, 11]] = (1.5, -0.7)
    return {
        "dense": rng.standard_normal((200, 200)),
        "c": np.ones(40),
        "a_eq": np.hstack([a, -a]),
        "b_eq": a @ x,
    }


class Speed:
    """Runs the reference kernel around timed intervals and scales them.

    An operation is timed with start(), any number of split() and stop().
    A split closes a segment and samples the kernel outside the timed
    interval, so a long operation is scaled segment by segment, each by the
    host's speed around it; with `fine` off, splits do nothing and the
    whole operation is one segment (traced operations, whose spans must not
    hold kernel time).
    """

    def __init__(self):
        self.data = _kernel_data()
        self.raw = []  # every reference time measured, in seconds
        self.last = self.sample()
        self.fine = True
        self.raw_s = self.scaled_s = 0.0
        self._t0 = None

    def sample(self):
        """Median time of one round of the kernel, over _ROUNDS rounds."""
        d = self.data
        rounds = []
        for _ in range(_ROUNDS):
            start = time.perf_counter()
            for _ in range(6):
                d["dense"] @ d["dense"]
            v = d["c"]
            for _ in range(200):
                v = np.maximum(v * 0.5, v - 1.0)
            sum(i * i for i in range(10000))
            linprog(d["c"], A_eq=d["a_eq"], b_eq=d["b_eq"], bounds=(0, None), method="highs")
            rounds.append(time.perf_counter() - start)
        elapsed = statistics.median(rounds)
        self.raw.append(elapsed)
        return elapsed

    def scale(self, elapsed):
        """`elapsed` (just measured) at reference speed; samples the kernel again."""
        after = self.sample()
        factor = REF_S / (0.5 * (self.last + after))
        self.last = after
        return elapsed * factor

    def median_raw(self):
        return statistics.median(self.raw)

    def start(self):
        self.raw_s = self.scaled_s = 0.0
        self._t0 = time.perf_counter()

    def _close(self):
        raw = time.perf_counter() - self._t0
        self.raw_s += raw
        self.scaled_s += self.scale(raw)

    def split(self):
        """Closes the current segment of a fine-timed operation and opens the next."""
        if self.fine and self._t0 is not None:
            self._close()
            self._t0 = time.perf_counter()

    def tick(self):
        """Splits once the current segment is SEGMENT_S long."""
        if self._t0 is not None and time.perf_counter() - self._t0 >= SEGMENT_S:
            self.split()

    def stop(self):
        """The operation's scaled time; its raw time is left in raw_s."""
        self._close()
        self._t0 = None
        return self.scaled_s
