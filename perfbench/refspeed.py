"""Host speed, measured with a fixed reference computation.

On a shared host the CPU speed a process gets drifts by a factor of two
within seconds.  The benchmark therefore runs a short, fixed piece of pure
Python work (the reference) between ops and states every time in
*reference seconds*: wall seconds times ``REF_S`` over the reference's
measured time around that moment.  The reference is the benchmark's own
code, so a faster library reads as faster; only the host's drift cancels.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

# the reference's typical wall time (one sample) on a 2-core x86-64 VM with
# CPython 3.11; it only sets the scale of reference seconds
REF_S = 0.002
# sample the reference before an op when the last sample is older than this
SAMPLE_EVERY_S = 0.1

_N = 8
_METRIC = [[Fraction((3 * i + 5 * j) % 7 + 1, (i * j) % 3 + 1) if i != j else Fraction(0)
            for j in range(_N)] for i in range(_N)]


def reference() -> int:
    """A fixed mix of the library's kinds of work: Fraction shortest paths,
    bitmask sets, dict and list building and a JSON round trip."""
    d = [row[:] for row in _METRIC]
    for k in range(_N):
        dk = d[k]
        for i in range(_N):
            dik, di = d[i][k], d[i]
            for j in range(_N):
                s = dik + dk[j]
                if s < di[j]:
                    di[j] = s
    masks = {}
    for i in range(_N):
        for r in (Fraction(1, 2), Fraction(1), Fraction(2)):
            masks[(i, r)] = sum(1 << j for j in range(_N) if d[i][j] <= r)
    opens = set()
    for a in masks.values():
        for b in masks.values():
            opens.add(a & b)
            opens.add(a | b)
    doc = json.dumps({"m": [[str(v) for v in row] for row in d], "o": sorted(opens)})
    return len(json.loads(doc)["o"])


def sample() -> float:
    """Wall time of the reference, the faster of two runs, without the
    garbage collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return best


class Clock:
    """Reference samples over a phase, to rescale wall intervals."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, reference s)

    def sample(self) -> float:
        ref = sample()
        self.samples.append((time.perf_counter(), ref))
        return ref

    def sample_if_stale(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def current(self) -> float:
        """Host slowness now, over REF_S: the median of the last five
        samples, so that one disturbed sample moves it little."""
        return statistics.median(ref for _t, ref in self.samples[-5:]) / REF_S

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end]: the mean of the last sample taken
        before ``start`` and the first taken after ``end``, over REF_S."""
        taken = [t for t, _ref in self.samples]
        i, j = bisect.bisect_right(taken, start), bisect.bisect_left(taken, end)
        refs = [ref for _t, ref in self.samples[max(i - 1, 0):i] + self.samples[j:j + 1]]
        return sum(refs) / len(refs) / REF_S
