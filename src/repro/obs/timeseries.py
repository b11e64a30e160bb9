"""Time-series sampling over metrics snapshots: windowed rates/quantiles.

The metrics registry aggregates *cumulatively*: counters only grow,
histograms only fill.  Monitoring needs the other view — what happened
**in the last window**: requests per second now, the p99 of the last
half-second of latency samples, queue depth as it moves.  This module
derives that view without any new probes:

* :func:`windowed_series` diffs two registry snapshots and converts
  counter deltas into per-second rates and histogram bucket deltas into
  windowed p50/p95/p99 (bucket-interpolated, like Prometheus
  ``histogram_quantile`` over ``rate(..._bucket[w])``).
* :class:`SnapshotSampler` captures snapshots on a wall-clock cadence
  into a bounded in-memory ring *and* a crash-safe JSONL stream, so a
  live session can be watched (``repro-hvac obs watch``), gated
  (``--slo``), or post-processed (``obs detect``) from the same
  artifact.

Counter resets (a restarted process appending to the same sample
stream, a re-created registry) follow the Prometheus convention: a
decrease is treated as a reset and the current value *is* the windowed
increase — a sampler can therefore resume across restarts and never
report a negative rate.

Sample-stream format (one JSON object per line)::

    {"kind": "obs-samples", "version": 1, "interval_s": 0.5, ...}
    {"kind": "sample", "seq": 0, "t": 12.5, "window_s": 0.5,
     "series": {"serve.request_latency_seconds":
                    {"count": 512, "rate": 1024.0, "mean": 0.0011,
                     "p50": 0.001, "p95": 0.002, "p99": 0.004}, ...}}

A restart appends a fresh header line and restarts ``seq`` — readers
treat each header as a segment boundary.  All values are in the
series' native units (seconds for latency histograms).
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Stream-format version stamped into every header line.
SAMPLES_FORMAT_VERSION = 1

#: Artifact kind of the header line.
SAMPLES_KIND = "obs-samples"

#: The windowed quantiles every histogram sample carries, in percent.
SAMPLE_QUANTILES = (50.0, 95.0, 99.0)

#: How many samples the in-memory ring retains (the JSONL stream keeps
#: everything).
DEFAULT_MAX_SAMPLES = 4096


def series_key(name: str, labels: Dict[str, str]) -> str:
    """The flat key one labeled child series samples under.

    Unlabeled series keep the bare family name; labeled children append
    ``{k=v,...}`` with sorted keys — ``serve.requests_total{policy=dqn}``.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def counter_increase(previous: float, current: float) -> float:
    """The windowed increase of a cumulative counter, reset-aware.

    A current value below the previous one means the counter restarted
    (new process, fresh registry); the increase since then is the
    current value itself.  Never negative.
    """
    if current >= previous:
        return current - previous
    return max(current, 0.0)


def bucket_deltas(
    previous_counts: Optional[Sequence[int]], current_counts: Sequence[int]
) -> List[int]:
    """Per-bucket windowed counts between two histogram snapshots.

    ``previous_counts=None`` (first window) and resets (any bucket
    shrinking) both fall back to the current cumulative counts, mirroring
    :func:`counter_increase`.
    """
    current = [int(c) for c in current_counts]
    if previous_counts is None or len(previous_counts) != len(current):
        return current
    deltas = [c - int(p) for p, c in zip(previous_counts, current)]
    if any(d < 0 for d in deltas):
        return current
    return deltas


def bucket_delta_quantile(
    edges: Sequence[float], deltas: Sequence[int], q: float
) -> float:
    """The ``q``-th percentile of a windowed bucket-count histogram.

    Linear interpolation within the owning bucket (the same estimator
    :meth:`~repro.obs.metrics.Histogram.percentile` uses beyond its
    reservoir, minus the min/max clamps a window does not record): the
    first bucket interpolates up from 0 and the overflow bucket clamps
    to the last finite edge.  An empty window returns 0.0.
    """
    if not 0.0 <= float(q) <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    total = int(sum(deltas))
    if total == 0:
        return 0.0
    rank = (q / 100.0) * total
    cum = 0
    for i, n in enumerate(deltas):
        if n > 0 and cum + n >= rank:
            lower = float(edges[i - 1]) if i > 0 else 0.0
            upper = float(edges[i]) if i < len(edges) else float(edges[-1])
            if upper <= lower:
                return upper
            frac = (rank - cum) / n
            return lower + frac * (upper - lower)
        cum += int(n)
    return float(edges[-1])


def _histogram_window(prev: Optional[dict], cur: dict, dt: float) -> dict:
    """One histogram child's windowed sample entry."""
    edges = [e for e in cur["bucket_le"] if e != "+Inf"]
    prev_counts = prev["bucket_counts"] if prev is not None else None
    deltas = bucket_deltas(prev_counts, cur["bucket_counts"])
    count = int(sum(deltas))
    if prev is not None:
        sum_delta = cur["sum"] - prev["sum"]
        if cur["count"] < prev["count"] or sum_delta < 0.0:
            sum_delta = cur["sum"]
    else:
        sum_delta = cur["sum"]
    entry = {
        "count": count,
        "rate": (count / dt) if dt > 0 else 0.0,
        "mean": (sum_delta / count) if count else 0.0,
    }
    for q in SAMPLE_QUANTILES:
        entry[f"p{q:g}"] = bucket_delta_quantile(edges, deltas, q)
    return entry


def windowed_series(
    previous: Optional[dict], current: dict, dt: float
) -> Dict[str, dict]:
    """Flatten a snapshot into per-series windowed sample entries.

    ``previous`` is the snapshot that opened the window (``None`` for
    the first window: everything counts as new).  Counters carry their
    cumulative ``value`` plus a reset-aware per-second ``rate``; gauges
    their instantaneous ``value``; histograms windowed ``count``/
    ``rate``/``mean``/``p50``/``p95``/``p99``.
    """
    if dt < 0:
        raise ValueError(f"window must be >= 0 seconds, got {dt}")
    prev_metrics = (previous or {}).get("metrics", {})
    series: Dict[str, dict] = {}
    for name, family in current.get("metrics", {}).items():
        prev_children = {}
        if name in prev_metrics:
            for child in prev_metrics[name].get("series", []):
                prev_children[series_key(name, child.get("labels", {}))] = child
        for child in family.get("series", []):
            key = series_key(name, child.get("labels", {}))
            prev_child = prev_children.get(key)
            if family["type"] == "histogram":
                series[key] = _histogram_window(prev_child, child, dt)
            elif family["type"] == "counter":
                prev_value = prev_child["value"] if prev_child else 0.0
                increase = counter_increase(prev_value, child["value"])
                series[key] = {
                    "value": float(child["value"]),
                    "rate": (increase / dt) if dt > 0 else 0.0,
                }
            else:  # gauge
                series[key] = {"value": float(child["value"])}
    return series


def _cumulative_counts(snapshot: dict) -> Dict[str, float]:
    """Every cumulative count in a snapshot, by series key: counter values
    and histogram observation counts (gauges move without events)."""
    counts: Dict[str, float] = {}
    for name, family in snapshot.get("metrics", {}).items():
        if family["type"] == "gauge":
            continue
        field = "value" if family["type"] == "counter" else "count"
        for child in family.get("series", []):
            counts[series_key(name, child.get("labels", {}))] = child[field]
    return counts


class SnapshotSampler:
    """Periodic registry snapshots -> bounded ring + JSONL stream.

    Call :meth:`maybe_sample` from any in-session pulse point (the
    gateway tick loop, the campaign cell loop — or let
    :meth:`~repro.obs.runtime.Telemetry.pulse` fan out to it); a
    snapshot is only captured when ``interval_s`` has elapsed since the
    last one, so pulse sites can fire at any frequency.  Each capture
    diffs against the previous snapshot via :func:`windowed_series` and
    appends the sample to the in-memory ring (bounded by
    ``max_samples``) and, when ``path`` is given, to the JSONL stream —
    one line per sample, flushed per write, so a crash loses at most
    the line being written.

    ``path`` with ``append=True`` resumes an existing stream: a fresh
    header line marks the restart and ``seq`` restarts at 0.  The first
    window of a (re)started sampler has no previous snapshot, so its
    rates derive from the reset-aware :func:`counter_increase` and are
    never negative.
    """

    def __init__(
        self,
        registry,
        *,
        interval_s: float = 1.0,
        clock=time.perf_counter,
        path=None,
        append: bool = False,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        meta: Optional[dict] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.interval_s = float(interval_s)
        self._clock = clock
        self.samples: deque = deque(maxlen=int(max_samples))
        self._seq = 0
        self._prev_snapshot: Optional[dict] = None
        self._last_t = self._clock()
        self._fh = None
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if append and self.path.exists() else "w"
            self._fh = self.path.open(mode, encoding="utf-8")
            header = {
                "kind": SAMPLES_KIND,
                "version": SAMPLES_FORMAT_VERSION,
                "interval_s": self.interval_s,
                "quantiles": [f"p{q:g}" for q in SAMPLE_QUANTILES],
            }
            if meta:
                header["meta"] = dict(meta)
            self._write(header)

    # ------------------------------------------------------------ capture
    def sample(self) -> dict:
        """Capture one sample now, regardless of the cadence."""
        return self._capture(self._clock(), self.registry.snapshot())

    def seal(self) -> Optional[dict]:
        """Capture the closing window of a session, unless it is a stub.

        A closing window shorter than ``interval_s`` in which no counter
        advanced is the idle sliver between the last cadence sample and
        the end of the session: its zero rates are no evidence, so it is
        skipped (returns None).  A window of ``interval_s`` or longer is
        always recorded, zero requests included — that is a stall — and
        so is a session's first window.
        """
        now = self._clock()
        snapshot = self.registry.snapshot()
        if (
            self._prev_snapshot is not None
            and now - self._last_t < self.interval_s
            and _cumulative_counts(snapshot) == _cumulative_counts(self._prev_snapshot)
        ):
            return None
        return self._capture(now, snapshot)

    def _capture(self, now: float, snapshot: dict) -> dict:
        dt = max(now - self._last_t, 0.0)
        record = {
            "kind": "sample",
            "seq": self._seq,
            "t": float(now),
            "window_s": float(dt),
            "series": windowed_series(self._prev_snapshot, snapshot, dt),
        }
        self._seq += 1
        self._prev_snapshot = snapshot
        self._last_t = now
        self.samples.append(record)
        if self._fh is not None:
            self._write(record)
        return record

    def maybe_sample(self) -> Optional[dict]:
        """Capture a sample iff ``interval_s`` has elapsed; else None."""
        if self._clock() - self._last_t >= self.interval_s:
            return self.sample()
        return None

    # ------------------------------------------------------------ stream
    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the JSONL stream (the in-memory ring stays readable)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __repr__(self) -> str:
        return (
            f"SnapshotSampler(interval_s={self.interval_s}, "
            f"samples={len(self.samples)}, path={self.path})"
        )


def load_samples(path) -> List[dict]:
    """Read a sample stream back: header + sample dicts, in file order."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def sample_records(records: Iterable[dict]) -> List[dict]:
    """Just the sample lines of a loaded stream (headers dropped)."""
    return [r for r in records if r.get("kind") == "sample"]


def series_values(
    samples: Iterable[dict], key: str, field: str
) -> List[Tuple[float, float]]:
    """``(t, value)`` points of one series field across samples.

    Samples where the series or field is absent (e.g. a policy label
    that only appears mid-run) are skipped rather than zero-filled.
    """
    points = []
    for s in samples:
        entry = s.get("series", {}).get(key)
        if entry is not None and field in entry:
            points.append((float(s["t"]), float(entry[field])))
    return points


def check_samples(records: List[dict]) -> List[str]:
    """Validate a loaded sample stream; returns problem messages.

    Checks the header/segment structure (``seq`` restarts only at a
    header line), required sample keys, and the no-negative-rates
    invariant the reset-aware windowing guarantees.
    """
    problems: List[str] = []
    if not records:
        return ["empty sample stream"]
    if records[0].get("kind") != SAMPLES_KIND:
        problems.append(
            f"first line must be an {SAMPLES_KIND!r} header, "
            f"got kind={records[0].get('kind')!r}"
        )
    expected_seq: Optional[int] = None
    for i, record in enumerate(records):
        kind = record.get("kind")
        if kind == SAMPLES_KIND:
            if record.get("version") != SAMPLES_FORMAT_VERSION:
                problems.append(
                    f"line {i}: unsupported samples version "
                    f"{record.get('version')!r}"
                )
            expected_seq = 0
            continue
        if kind != "sample":
            problems.append(f"line {i}: unknown record kind {kind!r}")
            continue
        missing = [k for k in ("seq", "t", "window_s", "series") if k not in record]
        if missing:
            problems.append(f"line {i}: sample missing {missing}")
            continue
        if expected_seq is None:
            problems.append(f"line {i}: sample before any header")
        elif record["seq"] != expected_seq:
            problems.append(
                f"line {i}: seq {record['seq']} != expected {expected_seq}"
            )
        else:
            expected_seq += 1
        if record["window_s"] < 0:
            problems.append(f"line {i}: negative window_s {record['window_s']}")
        if not isinstance(record["series"], dict):
            problems.append(f"line {i}: series is not an object")
            continue
        for key, entry in record["series"].items():
            rate = entry.get("rate")
            if rate is not None and rate < 0:
                problems.append(f"line {i}: negative rate for {key}: {rate}")
    return problems
