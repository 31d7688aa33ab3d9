"""Latency statistics shared by the runner and its tests."""

from __future__ import annotations

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). With n sorted samples the value is the
    (TAIL_BEYOND + 1)-th largest, at percentile 100 (n - TAIL_BEYOND) / n.
    With too few samples for that, it is the maximum at percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
