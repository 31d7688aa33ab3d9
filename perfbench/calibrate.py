"""Machine-speed calibration for timings on a shared, noisy host.

On a host whose cores are shared with other tenants the speed of the same
code drifts by 15% or more over tens of seconds. The runner therefore
interleaves a fixed kernel, independent of spdckit, with the ops (about 5%
of the busy time) and rescales every op time to a reference speed: an op
time t measured while the kernel took c seconds is reported as
t * reference_s / c, with c the median of the kernel runs nearest in time.
Reported times are thus seconds on a machine where one kernel run takes
reference_s.

Interpreter-bound and small-array work drift together and are tracked by
``kernel``. Ops dominated by large-array complex exponentials drift
differently and are tracked by ``block_kernel``: on ten filter_chain runs
of one machine the run-to-run quartile spread of ops_per_s was 7.6% when
scaled by ``kernel`` and 2.8% when scaled by ``block_kernel``.
"""

from __future__ import annotations

import bisect
import heapq
import json
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.004  # kernel() time that defines the reference speed
BLOCK_REFERENCE_S = 0.02  # block_kernel() time that defines it
NEAREST = 7  # kernel runs whose median scales one interval
EVERY_S = 0.25  # busy time between kernel runs

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 1.0 / 15.0)
_PHASES = -1j * np.linspace(0.0, 50.0, 20_000)
# A 16-row block of the shape of a spectral correlation sum: 32001 spectral
# points, an 8 MB complex exponential, then one matrix-vector product.
_BLOCK_W = np.linspace(-1.0, 1.0, 32_001)
_BLOCK_SPECTRUM = np.exp(-3.0 * _BLOCK_W**2).astype(complex)
_BLOCK_T = np.linspace(-300.0, 300.0, 16)


def kernel() -> float:
    """A mix like the ops': numpy calls on 15-point arrays with heap
    bookkeeping, building and serializing rows, and a complex exponential
    over a longer array. It shares no code with spdckit."""
    acc = 0.0
    heap = []
    for i in range(150):
        z = 0.001 * i + 0.5 * _NODES
        v = np.exp(-0.3j * z) / ((z - 0.2j) * (0.1 * z + 0.2j))
        s = complex(v @ _WEIGHTS)
        heapq.heappush(heap, (-abs(s), i, s))
        acc += float(np.max(np.abs(v)))
    rows = [{"a": k * 0.5, "b": repr(k / 3.0), "c": str(k)} for k in range(300)]
    text = json.dumps(rows)
    z = np.exp(_PHASES)
    return acc + len(text) + float(z[-1].real) + len(heap)


def block_kernel() -> complex:
    """A complex exponential over a block of time-frequency pairs and a
    matrix-vector product, as in a direct spectral sum. It shares no code
    with spdckit."""
    return complex((np.exp(-1j * np.outer(_BLOCK_T, _BLOCK_W)) @ _BLOCK_SPECTRUM).sum())


class SpeedLog:
    """Kernel run times, each stamped with its midpoint."""

    def __init__(self, kernel=kernel, reference_s: float = REFERENCE_S) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = -1e300

    def measure(self, runs: int = 2) -> None:
        # The first run after an op that swept large arrays through the
        # caches is slow for reasons of that op, not of the machine.
        self.kernel()
        for _ in range(runs):
            t0 = perf_counter()
            self.kernel()
            t1 = perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.durations.append(t1 - t0)
        self.last = perf_counter()

    def maybe_measure(self) -> None:
        """Run the kernel if EVERY_S has passed since it last ran."""
        if perf_counter() - self.last >= EVERY_S:
            self.measure()

    def scale(self, t: float) -> float:
        """reference_s over the median kernel time of the runs nearest t."""
        if not self.times:
            raise ValueError("no calibration runs")
        k = bisect.bisect_left(self.times, t)
        lo = max(0, min(k - NEAREST // 2, len(self.times) - NEAREST))
        return self.reference_s / statistics.median(self.durations[lo : lo + NEAREST])
