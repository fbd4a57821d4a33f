"""The host's speed, measured next to the operations it slows.

The shared host this benchmark runs on changes speed by up to 40 % from one
second to the next and stays slow or fast for tens of seconds, in CPU time as
in wall time, so the time of a whole run follows the host as much as the
code.  *Reference slices* are fixed pieces of work owned by the benchmark, so
a change to the library does not change them.  Timed between operations,
they tell how slow the host ran while the operations did: a slice's
*slowness* is its time over its nominal time, a constant measured once on the
baseline machine (a 2-vCPU Intel Xeon VM) at its usual speed.

There are two slices: ``spawn``, a fresh interpreter running ``pass``, and
``compute``, a Python bisection over scalar ``scipy.special`` calls with some
numpy array work, in this process.  Fresh-interpreter work (CLI calls, the
package import) is scaled by the ``spawn`` slowness; in-process work by the
geometric mean of both (kind ``mixed``).  Over seven 25-second runs each,
with the candidates timed side by side (the compute slice, a numpy pass over
16 MB, fresh interpreters running ``pass`` with and without ``-S`` or
importing numpy, and geometric means of these), these two tracked best: the spread of the run medians (quartile distance over median) on
``cli`` went from 0.12 raw to 0.022 with ``spawn``; on ``solve`` from 0.12 to
0.036 (``spawn``) and 0.055 (``mixed``); on ``sparse``, in a calm spell, from
0.020 raw to 0.080 (``spawn``) and 0.038 (``mixed``).  No slice follows every
workload exactly, so reference times still spread, but less than raw times
whenever the host swings.

An operation's *reference time* is its latency divided by the median
slowness of the slices timed just before and just after it.  It reads as
seconds on the baseline machine at its usual speed.  A change that makes the
library slower makes every latency longer and leaves the slices alone, so
reference times move with the code and not with the host.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import gammaln, pdtrc

#: Take a new slice after an operation once this long has passed since the last.
SLICE_EVERY_S = 0.25
#: Slices on each side of an operation whose median is its slowness.
WINDOW = 2

_ARRAY = np.random.default_rng(12345).random(4096)


def _compute() -> None:
    acc = 0.0
    for target in (3.0, 30.0, 300.0) * 6:
        lo, hi = 0.0, 2.0 * target  # smallest mean whose tail above `target` passes 0.5
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if pdtrc(target, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        acc += hi + float(gammaln(target + 1.0))
    for _ in range(24):
        acc += float(np.sort(_ARRAY)[2048]) + float(np.cumsum(_ARRAY)[-1])
    if not math.isfinite(acc):
        raise RuntimeError("compute slice gave a non-finite result")


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)


#: slice -> (work, nominal seconds).  The nominal seconds set the unit of the
#: reference times, so they are constants, never measured per run.
SLICES = {"spawn": (_spawn, 0.058), "compute": (_compute, 0.0018)}
KINDS = {"spawn": ("spawn",), "mixed": ("spawn", "compute")}


class Reference:
    """Reference slices of one kind, and the reference times they give."""

    def __init__(self, kind: str):
        self.kind = kind
        self.slices = [SLICES[name] for name in KINDS[kind]]
        self.taken: list[float] = []  # every slowness measured, for the report

    def slowness(self) -> float:
        """Geometric mean over this kind's slices of time / nominal time."""
        logs = []
        for work, nominal in self.slices:
            t = time.perf_counter()
            work()
            logs.append(math.log((time.perf_counter() - t) / nominal))
        value = math.exp(sum(logs) / len(logs))
        self.taken.append(value)
        return value

    def timed(self, fn):
        """(fn(), its seconds, its reference seconds), with a slice on each side."""
        before = self.slowness()
        t = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t
        return result, seconds, seconds * 2.0 / (before + self.slowness())

    def times(self, latencies: list[float], slowness: list[tuple[int, float]]) -> list[float]:
        """Each latency divided by the slowness around it: the median of the
        WINDOW slices before it and the WINDOW after it, so that one slow
        slice does not scale the operations next to it.

        ``slowness`` holds (operations completed before the slice, slowness),
        in run order, with a slice before the first operation and after the
        last."""
        out = []
        for i, lat in enumerate(latencies):
            before = [x for n, x in slowness if n <= i][-WINDOW:]
            after = [x for n, x in slowness if n >= i + 1][:WINDOW]
            out.append(lat / statistics.median(before + after))
        return out
