"""Host-speed calibration: a fixed pure-Python kernel timed around every op.

The host this benchmark runs on switches between fast and slow states
(30-80 % apart, flipping within a second or holding for minutes), which
moves every wall time with it.  The kernel below does a fixed amount of
interpreter work of the kinds the program does (dicts and lists of small
ints and tuples, function calls, a union-find, sorting, string building),
and never calls dcjsort.  A timed loop runs it before every op and once
after the last, and divides each op's wall time by the mean of the kernel
times just before and just after it.  A host state that slows both cancels
out; a change in the program does not, since the kernel never runs its
code.  States flip too fast for occasional samples, hence one around every
op.  ``REF_S`` turns the ratio back into seconds: the kernel's median time
on the 2-vCPU container the baseline was measured on.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: The kernel's median time on the reference container, in seconds.
REF_S = 0.00355

_N = 1500


def _kernel() -> int:
    """Fixed interpreter work; returns a checksum so nothing is skipped."""
    x, perm = 12345, list(range(_N))
    for i in range(_N - 1, 0, -1):  # Fisher-Yates with a fixed LCG
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    partner = {}
    for i in range(0, _N - 1, 2):
        partner[perm[i]], partner[perm[i + 1]] = perm[i + 1], perm[i]
    parent = list(range(_N))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(0, _N - 1, 2):  # join i with i+1 and with its partner
        for a, b in ((i, i + 1), (i, partner.get(i, i))):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    cycles = len({find(v) for v in range(_N)})
    pairs = sorted((perm[i] % 97, -perm[i], i) for i in range(_N))
    text = " ".join(str(p[1]) for p in pairs[::3])
    return cycles + len(text.split()) + sum(len(str(v)) for v in partner.values())


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Clock:
    """Calibration samples around timed intervals, and their conversion.

    Call ``calibrate()`` before each timed interval and once after the
    last; ``mark()`` right after an interval names the sample before it.
    An interval is converted with the mean of the samples just before and
    just after it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def calibrate(self) -> None:
        self.samples.append(sample())

    def mark(self) -> int:
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Reference seconds per wall second for an interval with this mark."""
        return REF_S / statistics.fmean(self.samples[mark : mark + 2])
