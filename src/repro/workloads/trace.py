"""Workload traces: the recorded request streams replay runs on.

A :class:`WorkloadTrace` is the generated (or recorded) event stream of
one workload: sorted arrival times plus the client each request came
from, together with the full provenance needed to regenerate it — the
spec it came from, the fleet size, and the seed.  Traces are
content-addressed: :attr:`WorkloadTrace.sha256` digests the exact bytes
of both arrays plus the provenance header, so two traces are replay-
equivalent iff their digests match, and a stored artifact that was
corrupted (or edited) fails loudly at load time.

Traces serialize to plain JSON (:meth:`as_dict` / :meth:`from_dict`)
with *byte-exact* float round-tripping — Python's JSON writer emits
shortest-repr floats, which decode back to the identical IEEE-754
doubles — and drop straight into an
:class:`~repro.store.ExperimentStore` as ``workload_trace__<name>``
artifacts (:func:`record_trace` / :func:`load_trace`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ExperimentStore

#: Bumped when the serialized trace layout changes shape.
TRACE_FORMAT_VERSION = 1

#: Store-artifact name prefix for recorded traces.
TRACE_ARTIFACT_PREFIX = "workload_trace__"


@dataclass
class WorkloadTrace:
    """One generated/recorded request stream with full provenance.

    ``times_s`` is sorted ascending within ``[0, duration_s)``;
    ``clients[i]`` is the fleet index that issued event ``i``.
    """

    spec_config: dict
    n_clients: int
    seed: int
    times_s: np.ndarray
    clients: np.ndarray
    format_version: int = TRACE_FORMAT_VERSION
    _sha256: Optional[str] = field(default=None, repr=False, compare=False)
    _buckets: Optional[List[np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.times_s = np.ascontiguousarray(self.times_s, dtype=np.float64)
        self.clients = np.ascontiguousarray(self.clients, dtype=np.int64)
        if self.times_s.shape != self.clients.shape or self.times_s.ndim != 1:
            raise ValueError(
                f"times_s and clients must be equal-length 1-D arrays, got "
                f"{self.times_s.shape} and {self.clients.shape}"
            )
        if self.times_s.size and np.any(np.diff(self.times_s) < 0.0):
            raise ValueError("times_s must be sorted ascending")
        if self.times_s.size and (
            self.times_s[0] < 0.0 or self.times_s[-1] >= self.duration_s
        ):
            raise ValueError(
                f"event times must lie in [0, {self.duration_s}), got range "
                f"[{self.times_s[0]}, {self.times_s[-1]}]"
            )
        if self.clients.size and (
            self.clients.min() < 0 or self.clients.max() >= self.n_clients
        ):
            raise ValueError(
                f"client indices must lie in [0, {self.n_clients})"
            )

    # ------------------------------------------------------------ identity
    @property
    def spec(self) -> WorkloadSpec:
        """The generating spec, rebuilt from the stored config."""
        return WorkloadSpec.from_config(self.spec_config)

    @property
    def workload(self) -> str:
        return str(self.spec_config["name"])

    @property
    def duration_s(self) -> float:
        return float(self.spec_config["duration_s"])

    @property
    def tick_s(self) -> float:
        return float(self.spec_config["tick_s"])

    @property
    def n_events(self) -> int:
        return int(self.times_s.size)

    @property
    def n_ticks(self) -> int:
        """Control ticks spanned by the trace horizon."""
        return int(math.ceil(self.duration_s / self.tick_s))

    @property
    def sha256(self) -> str:
        """Content digest over provenance header + exact event bytes."""
        if self._sha256 is None:
            digest = hashlib.sha256()
            header = json.dumps(
                {
                    "format_version": self.format_version,
                    "spec": self.spec_config,
                    "n_clients": self.n_clients,
                    "seed": self.seed,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            digest.update(header.encode())
            digest.update(self.times_s.tobytes())
            digest.update(self.clients.tobytes())
            self._sha256 = digest.hexdigest()
        return self._sha256

    # -------------------------------------------------------------- replay
    def event_ticks(self) -> np.ndarray:
        """Tick index of every event (``floor(t / tick_s)``)."""
        return np.floor_divide(self.times_s, self.tick_s).astype(np.int64)

    def requests_by_tick(self) -> List[np.ndarray]:
        """Per tick, the *unique* sorted client indices requesting in it.

        Multiple events from one client inside one control tick coalesce
        into a single request — a thermostat asking twice within the same
        tick still gets exactly one action.  The buckets are computed once
        and cached as read-only arrays.
        """
        if self._buckets is None:
            # times_s is sorted, so event ticks are too: each tick's events
            # are one contiguous slice.
            bounds = np.searchsorted(
                self.event_ticks(), np.arange(self.n_ticks + 1)
            ).tolist()
            buckets = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                bucket = np.unique(self.clients[lo:hi])
                bucket.flags.writeable = False
                buckets.append(bucket)
            self._buckets = buckets
        return list(self._buckets)

    @property
    def n_requests(self) -> int:
        """Replayable requests (events after per-tick client coalescing)."""
        return int(sum(b.size for b in self.requests_by_tick()))

    # ------------------------------------------------------ serialization
    def as_dict(self) -> dict:
        """JSON-safe payload (floats round-trip byte-exactly)."""
        return {
            "format_version": self.format_version,
            "spec": dict(self.spec_config),
            "n_clients": self.n_clients,
            "seed": self.seed,
            "n_events": self.n_events,
            "sha256": self.sha256,
            "times_s": [float(t) for t in self.times_s],
            "clients": [int(c) for c in self.clients],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadTrace":
        """Rebuild a trace from :meth:`as_dict` output, verifying its digest.

        A digest mismatch means the artifact was corrupted or hand-edited
        — replaying it would silently measure a different workload, so it
        raises instead.
        """
        version = int(payload.get("format_version", 1))
        if version > TRACE_FORMAT_VERSION:
            raise ValueError(
                f"trace format v{version} is newer than this library "
                f"understands (v{TRACE_FORMAT_VERSION})"
            )
        trace = cls(
            spec_config=dict(payload["spec"]),
            n_clients=int(payload["n_clients"]),
            seed=int(payload["seed"]),
            times_s=np.asarray(payload["times_s"], dtype=np.float64),
            clients=np.asarray(payload["clients"], dtype=np.int64),
            format_version=version,
        )
        stored = payload.get("sha256")
        if stored is not None and stored != trace.sha256:
            raise ValueError(
                f"trace digest mismatch: payload says {stored}, recomputed "
                f"{trace.sha256} — the artifact is corrupt or was edited"
            )
        return trace

    def save(self, path: str) -> None:
        """Write the trace as a standalone JSON file."""
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        """Read a trace written by :meth:`save` (digest-verified)."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        return (
            f"WorkloadTrace(workload={self.workload!r}, "
            f"n_clients={self.n_clients}, seed={self.seed}, "
            f"events={self.n_events}, sha256={self.sha256[:12]}...)"
        )


# ------------------------------------------------------------ store plumbing
def trace_artifact_name(workload: str) -> str:
    """Store-artifact name for a workload's recorded trace."""
    return f"{TRACE_ARTIFACT_PREFIX}{workload}"


def record_trace(store: "ExperimentStore", trace: WorkloadTrace) -> str:
    """Persist a trace as a store artifact; returns the artifact name.

    The payload carries the generating spec, fleet size, seed, and
    content digest, so a stored trace is replayable — and auditable —
    without the code path that generated it.
    """
    name = trace_artifact_name(trace.workload)
    store.put_artifact(name, trace.as_dict())
    return name


def load_trace(store: "ExperimentStore", workload: str) -> WorkloadTrace:
    """Load (and digest-verify) a trace recorded by :func:`record_trace`."""
    name = trace_artifact_name(workload)
    if not store.has_artifact(name):
        raise FileNotFoundError(
            f"run {store.root} has no recorded trace for workload "
            f"{workload!r} (artifact {name!r})"
        )
    return WorkloadTrace.from_dict(store.get_artifact(name))
