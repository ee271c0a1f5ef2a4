"""Order statistics for run results and the steadiness verdict on two sets of runs."""

from __future__ import annotations

import math
import statistics

# Tail percentiles, in tenths of a percent so counts stay exact, tried from
# the highest down; one is used only when at least ten samples lie beyond
# it, else the tail is the maximum.
_TAIL_PERMILLE = (999, 990, 950, 900)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a nonempty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("empty sample")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    n = len(values)
    for q in _TAIL_PERMILLE:
        if n * (1000 - q) >= 10 * 1000:
            return percentile(values, q / 10.0), f"p{q / 10.0:g}"
    return max(values), "max"


def oracle_err_max(records, last_index: int) -> float:
    """Largest oracle error of the problems with index <= last_index.

    Set-up problems have index 0.  Counting a fixed set of problems keeps
    the value independent of how many problems a run gets through.
    """
    return max(max(r["errors"].values(), default=0.0) for r in records if r["index"] <= last_index)


def calibrate(metrics: dict, units: dict, speed: float) -> dict:
    """Times at reference-machine speed: seconds x speed, rates / speed."""
    scale = {"s": speed, "1/s": 1.0 / speed}
    return {name: v * scale.get(units[name], 1.0) for name, v in metrics.items()}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(first, second, better: str) -> float:
    """How much worse the second set's median is than the first's, as a share."""
    m1 = statistics.median(first)
    m2 = statistics.median(second)
    change = (m2 - m1) / abs(m1)
    return change if better == "lower" else -change


def verdict(first, second, metric: dict) -> dict:
    """Whether two sets of runs of one commit agree within the metric's bound.

    Each set's spread must stay within the bound, and the second median
    may not be worse than the first by more than it.
    """
    bound = metric["bound"]
    spreads = [spread(first), spread(second)]
    worse = worsening(first, second, metric["better"])
    return {
        "metric": metric["name"],
        "bound": bound,
        "spread": spreads,
        "worsening": worse,
        "ok": max(spreads) <= bound and worse <= bound,
        "steady": max(spreads) < bound / 3.0,
    }
