"""Pure helpers: the tail-percentile rule and self times from a Chrome trace.

Nothing here imports the library, so the helpers are testable on their
own and the benchmark's arithmetic does not depend on the code it times.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: 15-minute control steps per simulated day.
STEPS_PER_DAY = 96


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(
    samples: Sequence[float], min_beyond: int = MIN_BEYOND
) -> Tuple[float, float, int]:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    Returns ``(pct, value, n_beyond)``.  ``n_beyond`` counts the samples
    strictly greater than ``value``, so ties never inflate it.  Raises
    when even the median has fewer than ``min_beyond`` samples beyond it.
    """
    for pct in TAIL_LADDER:
        value = percentile(samples, pct)
        beyond = sum(1 for x in samples if x > value)
        if beyond >= min_beyond:
            return pct, value, beyond
    raise ValueError(
        f"{len(samples)} samples: no percentile has {min_beyond} beyond it"
    )


def pool(records: Sequence[dict], min_beyond: int = MIN_BEYOND) -> Dict[str, float]:
    """End-to-end metrics from the records of one run's cold starts.

    Each record is one process's: its ``setup_s``, its tick times
    ``ticks_ms`` (the first ``first_unit_ticks`` of them from its first
    unit of work), the ``env_steps`` it ran in ``measured_s`` after
    set-up, and its ``peak_rss_mb``.  Ticks are pooled across records.
    The tail percentile is the rule's choice, with ``min_beyond``, for the
    pooled first units, so it does not move with how many units a run
    fits in.
    """
    ticks = [t for r in records for t in r["ticks_ms"]]
    first_units = [t for r in records for t in r["ticks_ms"][: r["first_unit_ticks"]]]
    pct, _, _ = tail_percentile(first_units, min_beyond)
    tail = percentile(ticks, pct)
    measured_s = sum(r["measured_s"] for r in records)
    env_steps = sum(r["env_steps"] for r in records)
    requests = sum(r["details"].get("requests", 0) for r in records)
    attempted = sum(r["attempted"] for r in records)
    return {
        "setup_s": median([r["setup_s"] for r in records]),
        "tick_p50_ms": median(ticks),
        "tick_tail_ms": tail,
        "env_steps_per_s": env_steps / measured_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
        "tick_tail_pct": pct,
        "tick_tail_beyond": sum(1 for t in ticks if t > tail),
        "tick_ladder_ms": {str(p): percentile(ticks, p) for p in TAIL_LADDER},
        "ticks": len(ticks),
        "building_days_per_s": env_steps / STEPS_PER_DAY / measured_s,
        "requests_per_s": requests / measured_s,
        "failed_share": sum(r["failed"] for r in records) / attempted,
    }


def self_times(trace_events: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, total ``dur_s`` and ``self_s``.

    ``trace_events`` are Chrome complete events (``ph == "X"``, ``ts`` and
    ``dur`` in microseconds) from one thread.  A span's parent is the
    innermost earlier span whose interval contains it; its self time is
    its duration minus the durations of its direct children.
    """
    eps = 1e-3  # microseconds of float slack on shared boundaries
    events = sorted(
        (e for e in trace_events if e.get("ph") == "X"),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    ends = [e["ts"] + e["dur"] for e in events]
    child_us: List[float] = [0.0] * len(events)
    stack: List[int] = []
    for i, e in enumerate(events):
        while stack and ends[stack[-1]] < e["ts"] + eps:
            stack.pop()
        if stack:
            parent = stack[-1]
            if ends[i] > ends[parent] + eps:
                raise ValueError(
                    f"span {e['name']!r} overlaps {events[parent]['name']!r} "
                    "without nesting"
                )
            child_us[parent] += e["dur"]
        stack.append(i)
    out: Dict[str, Dict[str, float]] = {}
    for e, children in zip(events, child_us):
        row = out.setdefault(e["name"], {"count": 0, "dur_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["dur_s"] += e["dur"] * 1e-6
        row["self_s"] += (e["dur"] - children) * 1e-6
    return out


def arg_sum(trace_events: Iterable[dict], name: str, key: str) -> int:
    """Sum of one integer span argument over every span called ``name``."""
    return sum(
        int(e.get("args", {}).get(key, 0))
        for e in trace_events
        if e.get("name") == name
    )
