"""Exact order statistics over raw samples.

Every percentile the benchmark reports comes from here, never from
``repro.obs.Histogram`` (whose quantiles are bucket edges).  The
nearest-rank definition is used throughout: the q-quantile of n sorted
samples is the ``ceil(q * n)``-th smallest, so every reported value is
a sample that was actually measured and ``min <= p50 <= tail <= max``
holds by construction (and is asserted anyway).
"""

from __future__ import annotations

import math

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def quantile(samples, q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    xs = sorted(samples)
    k = max(1, math.ceil(q * len(xs)))
    return float(xs[k - 1])


def beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly after the q-quantile's rank."""
    return n - max(1, math.ceil(q * n))


def summary(samples, tail_q: float) -> dict:
    """min / p50 / tail / max of a sample, with the ordering asserted."""
    out = {
        "n": len(samples),
        "min": float(min(samples)),
        "p50": quantile(samples, 0.5),
        "tail": quantile(samples, tail_q),
        "tail_q": tail_q,
        "tail_beyond": beyond(len(samples), tail_q),
        "max": float(max(samples)),
    }
    if not out["min"] <= out["p50"] <= out["tail"] <= out["max"]:
        raise AssertionError(f"percentile ordering violated: {out}")
    return out
