"""The grid engine shared by campaigns and workload suites.

A grid is the cartesian product scenario × fault × controller ×
workload; campaigns leave the workload axis at ``"none"``.  This module
holds everything the two grid kinds share:

* :class:`GridSpec` — axis validation (non-empty, no repeated value,
  known controllers and fault profiles) and cartesian expansion in one
  fixed order: scenario-major, then fault, controller, workload.
* :func:`run_grid` — the resume-execute-persist loop.  Cells already in
  an :class:`~repro.store.ExperimentStore` load instead of running;
  pending cells run serially or over a process pool and persist as they
  complete, so a killed sweep restarts where it died.  Within one run,
  cells share each (scenario, seed)'s weather series.
* :class:`GridResult` — ordered rows with the four-axis ``row(...)``
  lookup.

Each kind keeps only what really differs: how one cell runs
(:func:`~repro.sim.campaign.run_campaign_job` evaluates seeds,
:func:`~repro.workloads.run_suite_job` replays a trace) and its row type.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, fields
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults.profiles import NO_FAULT, get_fault_profile
from repro.sim.scenarios import get_scenario, run_weather

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses eval)
    from repro.store import ExperimentStore

#: The workload axis value of cells that replay no trace (campaigns).
NO_WORKLOAD = "none"


def _name(entry) -> str:
    """An axis entry's name: registered names pass through, objects
    (scenarios, fault profiles, workload specs) give their ``.name``."""
    return entry if isinstance(entry, str) else entry.name


def cell_identity(item) -> Tuple[str, str, str, str]:
    """The (scenario, controller, fault, workload) identity of a grid job
    or row — the same tuple :meth:`ExperimentStore.completed` returns."""
    return (
        _name(item.scenario),
        item.controller,
        _name(item.fault),
        _name(getattr(item, "workload", NO_WORKLOAD)),
    )


class GridSpec:
    """Axis handling shared by the frozen grid-spec dataclasses.

    Subclasses set ``KIND`` (the noun in error messages),
    ``CONTROLLERS`` (their controller vocabulary) and ``RESUME_PINNED``
    (config keys a resumed run directory must match: they change every
    cell's result without changing its identity).
    """

    KIND: ClassVar[str]
    CONTROLLERS: ClassVar[Tuple[str, ...]]
    RESUME_PINNED: ClassVar[Tuple[str, ...]]

    def _check_axes(self, *axes: str) -> None:
        """Freeze each named axis to a tuple, rejecting an empty axis, a
        repeated value, an unknown scenario, controller or fault
        profile."""
        for axis in axes:
            values = tuple(getattr(self, axis))
            if not values:
                raise ValueError(f"{self.KIND} needs at least one {axis[:-1]}")
            names = [_name(v) for v in values]
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(
                        f"{self.KIND} {axis} list {name!r} more than once"
                    )
            object.__setattr__(self, axis, values)
        for entry in self.scenarios:
            if isinstance(entry, str):
                get_scenario(entry)  # raises KeyError for unknown names
        for name in self.controllers:
            if name not in self.CONTROLLERS:
                raise ValueError(
                    f"unknown controller {name!r}; choose from {self.CONTROLLERS}"
                )
        for name in self.faults:
            get_fault_profile(name)  # raises KeyError for unknown profiles

    def cells(self, workloads: Sequence = (NO_WORKLOAD,)) -> Iterator[tuple]:
        """``(scenario, fault, controller, workload)`` in expansion order,
        with scenario names resolved through the registry."""
        scenarios = [
            get_scenario(s) if isinstance(s, str) else s for s in self.scenarios
        ]
        return itertools.product(
            scenarios, self.faults, self.controllers, workloads
        )

    def as_config(self) -> dict:
        """JSON-ready description (axis entries by name) for run manifests."""
        config = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [v if isinstance(v, (str, int)) else v.name for v in value]
            config[f.name] = value
        return config


@dataclass(frozen=True)
class GridTelemetry:
    """The series and span names one grid kind reports under."""

    run_span: str
    cells_total: str
    cell_seconds: Optional[str] = None
    cell_span: Optional[str] = None


def _timed(run_cell: Callable, job) -> Tuple[object, float]:
    """Run one cell and measure its wall-clock (module-level: picklable)."""
    started = time.perf_counter()
    row = run_cell(job)
    return row, time.perf_counter() - started


def run_grid(
    jobs: Sequence,
    run_cell: Callable,
    row_from_dict: Callable[[dict], object],
    *,
    names: GridTelemetry,
    store: Optional["ExperimentStore"] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> List:
    """Run every job not yet in ``store``; returns rows in job order.

    ``executor="process"`` fans pending cells out over a
    :class:`concurrent.futures.ProcessPoolExecutor` (``run_cell`` and
    the jobs must then pickle); ``"serial"`` runs them inline.  Each
    completed row is persisted with ``put_cell`` before the next one
    runs.  Stored cells are matched on identity alone: the run manifest,
    not the store, records the rest of the spec.

    The executor loop runs inside :func:`~repro.sim.scenarios.run_weather`,
    so cells that build the same (scenario, seed) share its weather
    series; every cell still builds a fresh fleet with fresh generators,
    and nothing is shared with another run.
    """
    if executor not in ("serial", "process"):
        raise ValueError(
            f"unknown executor {executor!r}; choose 'serial' or 'process'"
        )
    from repro.obs import get_telemetry
    from repro.store.store import payload_identity

    tel = get_telemetry()
    cells_total = tel.metric(names.cells_total)
    cell_seconds = tel.metric(names.cell_seconds) if names.cell_seconds else None
    cat = names.run_span.split(".")[0]

    rows: Dict[int, object] = {}
    cells = store.iter_cells() if store is not None else []
    stored = {payload_identity(cell): cell for cell in cells}
    for j, job in enumerate(jobs):
        cell = stored.get(cell_identity(job))
        if cell is not None:
            rows[j] = row_from_dict(cell["row"])
            if tel.enabled:
                cells_total.labels(status="cached").inc()
    pending = [j for j in range(len(jobs)) if j not in rows]

    def record(j: int, row: object, elapsed: float) -> None:
        rows[j] = row
        if store is not None:
            store.put_cell(row.as_dict(), elapsed_seconds=elapsed)
        if tel.enabled:
            cells_total.labels(status="completed").inc()
            if cell_seconds is not None:
                cell_seconds.observe(elapsed)
            if names.cell_span:
                # Process-pool cells are timed in the worker, so the span
                # is reconstructed here from the measured wall-clock.
                scenario, controller, fault, _ = cell_identity(jobs[j])
                tel.tracer.record(
                    names.cell_span,
                    start=time.perf_counter() - elapsed,
                    duration=elapsed,
                    cat=cat,
                    scenario=scenario,
                    controller=controller,
                    fault=fault,
                )
            # Cell completion is the sweep's monitoring heartbeat: an
            # attached SnapshotSampler captures here on its cadence.
            tel.pulse()

    with tel.span(
        names.run_span, cat=cat, cells=len(jobs), pending=len(pending)
    ), run_weather():
        if executor == "serial":
            for j in pending:
                record(j, *_timed(run_cell, jobs[j]))
        elif pending:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                timed = pool.map(partial(_timed, run_cell), [jobs[j] for j in pending])
                for j, (row, elapsed) in zip(pending, timed):
                    record(j, row, elapsed)
    if store is not None and tel.enabled:
        # Join telemetry with results: the run directory carries the
        # final metrics snapshot as artifacts/metrics.json.
        store.put_artifact("metrics", tel.registry.snapshot())
    return [rows[j] for j in range(len(jobs))]


class GridResult:
    """Ordered grid rows with the four-axis cell lookup."""

    def __init__(self, rows: List) -> None:
        self.rows = list(rows)

    def row(
        self,
        scenario: str,
        controller: str,
        fault: str = NO_FAULT,
        workload: str = NO_WORKLOAD,
    ):
        """Look up one cell's row."""
        key = (scenario, controller, fault, workload)
        for r in self.rows:
            if cell_identity(r) == key:
                return r
        raise KeyError(f"no row for {key!r}")
