"""Percentiles, the log-log scaling fit and the calibration loop."""

from __future__ import annotations

import math
import random
import statistics
import time

#: The calibration loop's time on the reference CPU.  End-to-end times
#: are reported as ``measured * CALIBRATION_REF_MS / calibration``, where
#: ``calibration`` is the loop time sampled right after the measured
#: request (``on_reference``).  On a shared host the speed available to
#: a run swings by up to 1.8x from one tenth of a second to the next and
#: by a third from one run to the next; the loop slows with it, so the
#: ratio holds still while the raw times do not.  A run-wide average of
#: the loop cannot follow the short swings, which move single requests
#: and so the percentiles; the neighbouring sample can.
CALIBRATION_REF_MS = 1.0


def calibration_ms() -> float:
    """One run of fixed work shaped like the program's own -- a seeded
    400-node graph walked depth-first, a frozenset of edges per node --
    in milliseconds.  It uses nothing from ``repro``, so no change to
    the program can move it."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    succ = {v: [rng.randrange(400) for _ in range(3)] for v in range(400)}
    seen: set = set()
    stack = [0]
    order = []
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            order.append(v)
            stack.extend(succ[v])
    facts = {v: frozenset((v, w) for w in succ[v]) for v in order}
    sum(len(f) for f in facts.values())
    return (time.perf_counter() - t0) * 1e3


def on_reference(seconds: float, calibration: float) -> float:
    """A time measured next to a calibration sample of ``calibration``
    ms, in milliseconds on the reference CPU."""
    return seconds * 1e3 * CALIBRATION_REF_MS / calibration


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return statistics.median(values)


def scaling_exponent(points) -> float:
    """Slope of log(time) against log(lines) over ``(group, lines,
    seconds)`` points, each group (op) with its own intercept: the
    least-squares fit after centring both logs within each group."""
    groups: dict = {}
    for group, lines, seconds in points:
        groups.setdefault(group, []).append(
            (math.log(lines), math.log(seconds))
        )
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise ValueError("scaling fit needs at least two sizes")
    return sxy / sxx
