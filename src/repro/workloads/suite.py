"""Workload suites: scenario × fault × controller × workload replays.

A suite is the serving-side analogue of a campaign: where
:func:`~repro.sim.campaign.run_campaign` sweeps evaluation episodes over
scenario × fault × controller, :func:`run_suite` sweeps *trace replays*
over scenario × fault × controller × **workload**.  One deterministic
trace is generated (or loaded) per workload for the suite's fleet size
and seed; every cell replays that trace through a fresh fleet gateway
(``deterministic`` micro-batching) and persists a fingerprinted summary.

Suites run on the campaign's grid engine (:mod:`repro.sim.grid`): with
an :class:`~repro.store.ExperimentStore` attached, completed cells are
loaded instead of re-executed, traces are recorded as run artifacts with
provenance, and a killed suite restarts where it died (``repro-hvac
workload replay --resume RUN_DIR``).  Because every replay is
deterministic, a resumed suite's fingerprints are bit-identical to an
uninterrupted run's — the property the acceptance tests pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.eval.reporting import format_table
from repro.faults.profiles import NO_FAULT, FaultProfile, get_fault_profile
from repro.faults.wrappers import FaultyVectorHVACEnv
from repro.sim.grid import GridResult, GridSpec, GridTelemetry, run_grid
from repro.sim.scenarios import Scenario, build_fleet, get_scenario
from repro.sim.vector_env import VectorHVACEnv
from repro.workloads.generators import generate_trace
from repro.workloads.replay import ReplayResult, replay_trace
from repro.workloads.spec import WorkloadSpec, get_workload
from repro.workloads.trace import (
    WorkloadTrace,
    load_trace,
    record_trace,
    trace_artifact_name,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store import ExperimentStore

#: Controllers a suite cell may route its fleet to.  The baseline names
#: match the campaign vocabulary; ``dqn`` serves a seed-initialized DQN
#: through the micro-batcher so suites also exercise batched inference.
SUITE_CONTROLLERS = ("thermostat", "pid", "random", "dqn")


@dataclass(frozen=True)
class SuiteSpec(GridSpec):
    """What to replay: scenarios × faults × controllers × workloads.

    ``fleet`` and ``seed`` fix both the simulated world (env build
    seeds ``seed..seed+fleet-1``) and the trace generation, so one spec
    pins the entire deterministic experiment.
    """

    scenarios: Tuple[Union[str, Scenario], ...]
    workloads: Tuple[Union[str, WorkloadSpec], ...]
    controllers: Tuple[str, ...] = ("thermostat",)
    faults: Tuple[str, ...] = (NO_FAULT,)
    fleet: int = 8
    seed: int = 0
    max_batch: int = 64
    duration_s: Optional[float] = None

    KIND = "suite"
    CONTROLLERS = SUITE_CONTROLLERS
    RESUME_PINNED = ("fleet", "seed", "max_batch", "duration_s")

    def __post_init__(self) -> None:
        self._check_axes("scenarios", "workloads", "faults", "controllers")
        self.workload_specs()  # raises KeyError for unknown presets
        if self.fleet < 1:
            raise ValueError(f"fleet must be >= 1, got {self.fleet}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")

    def workload_specs(self) -> List[WorkloadSpec]:
        """The resolved workload specs (names looked up in the registry),
        with the suite's optional ``duration_s`` override applied."""
        specs = []
        for entry in self.workloads:
            spec = get_workload(entry) if isinstance(entry, str) else entry
            if self.duration_s is not None:
                spec = spec.with_overrides(duration_s=float(self.duration_s))
            specs.append(spec)
        return specs


@dataclass(frozen=True)
class SuiteJob:
    """One executable cell: a scenario, fault, controller, and workload.

    Like campaign jobs, scenario and fault names are normalized to their
    resolved :class:`~repro.sim.Scenario` / :class:`~repro.faults.
    FaultProfile` objects so jobs are self-contained.
    """

    scenario: Union[str, Scenario]
    controller: str
    fault: Union[str, FaultProfile]
    workload: WorkloadSpec
    fleet: int
    seed: int
    max_batch: int = 64
    #: Serve-side chaos profile name replayed through the resilience
    #: ladder ("none" keeps the lean gateway path).
    chaos: str = "none"
    chaos_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.scenario, str):
            object.__setattr__(self, "scenario", get_scenario(self.scenario))
        if isinstance(self.fault, str):
            object.__setattr__(self, "fault", get_fault_profile(self.fault))
        from repro.serve.chaos import get_chaos_profile

        get_chaos_profile(self.chaos)  # fail on typos at expansion time


@dataclass
class SuiteRow:
    """Persisted result of one suite cell: fingerprint + measured timing."""

    scenario: str
    controller: str
    fault: str
    workload: str
    n_clients: int
    trace_sha256: str
    fingerprint: str
    replay: Dict[str, object]
    total_reward: float
    timing: Dict[str, object]

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteRow":
        return cls(
            scenario=str(payload["scenario"]),
            controller=str(payload["controller"]),
            fault=str(payload.get("fault", NO_FAULT)),
            workload=str(payload["workload"]),
            n_clients=int(payload["n_clients"]),
            trace_sha256=str(payload["trace_sha256"]),
            fingerprint=str(payload["fingerprint"]),
            replay=dict(payload["replay"]),
            total_reward=float(payload["total_reward"]),
            timing=dict(payload["timing"]),
        )

    @classmethod
    def from_replay(
        cls, job: SuiteJob, result: ReplayResult
    ) -> "SuiteRow":
        return cls(
            scenario=job.scenario.name,
            controller=job.controller,
            fault=job.fault.name,
            workload=job.workload.name,
            n_clients=result.n_clients,
            trace_sha256=result.trace_sha256,
            fingerprint=result.fingerprint,
            replay=result.replay_block(),
            total_reward=result.total_reward,
            timing=dict(result.timing),
        )


def expand_suite(spec: SuiteSpec) -> List[SuiteJob]:
    """Cartesian-expand a spec into independent suite cells."""
    return [
        SuiteJob(
            scenario=scenario,
            controller=controller,
            fault=fault,
            workload=workload,
            fleet=spec.fleet,
            seed=spec.seed,
            max_batch=spec.max_batch,
        )
        for scenario, fault, controller, workload in spec.cells(
            spec.workload_specs()
        )
    ]


def build_suite_gateway(job: SuiteJob):
    """A fresh deterministic gateway for one suite cell.

    Every cell builds a fresh fleet with fresh generators (campaign rule:
    seeded env RNGs advance as episodes run, so sharing a fleet would
    hand later cells a different world); within a suite run the
    read-only weather series of each (scenario, seed) is generated once
    and shared between cells.  Faulted cells wrap the same seeded world
    in a :class:`~repro.faults.FaultyVectorHVACEnv`; ``dqn`` cells
    publish a seed-initialized agent so batched inference is exercised
    deterministically.
    """
    from repro.core import DQNAgent
    from repro.serve import FleetGateway, MicroBatcherConfig, default_registry

    seeds = range(job.seed, job.seed + job.fleet)
    vec_env = VectorHVACEnv(build_fleet(job.scenario, seeds), autoreset=True)
    # The first building (seed ``job.seed``) sizes the DQN, read before
    # any fault wrapping.
    first = vec_env.envs[0]
    if not job.fault.is_clean:
        vec_env = FaultyVectorHVACEnv(vec_env, job.fault, seeds=seeds)
    registry = default_registry()
    if job.controller == "dqn":
        policy = DQNAgent(first.obs_dim, first.action_space, rng=job.seed)
        route = registry.publish("dqn", policy, source="suite-seed-init").name
    else:
        route = f"baseline:{job.controller}"
    config = MicroBatcherConfig(
        max_batch_size=job.max_batch, deterministic=True
    )
    # With telemetry live, fold the cell's ServeStats into the process
    # registry (like `serve` does) so --metrics snapshots and --slo/
    # --sample-every monitoring see replay latency and throughput.
    # Cells run sequentially, so the shared series never double-count a
    # request; they accumulate across cells like any session counter.
    stats = None
    from repro.obs import get_telemetry
    from repro.serve import ServeStats

    tel = get_telemetry()
    if tel.enabled:
        stats = ServeStats(registry=tel.registry)
    # Chaos cells replay through the resilience ladder: batched routes
    # fall back to the thermostat baseline so every replayed tick still
    # yields an action, bit-reproducibly (seeded chaos/retry streams +
    # deterministic batching).
    chaos = None
    resilience = None
    if job.chaos != "none":
        from repro.serve import ResilienceConfig
        from repro.serve.chaos import get_chaos_profile

        seed = job.chaos_seed if job.chaos_seed is not None else job.seed
        chaos = get_chaos_profile(job.chaos).build(seed)
        if chaos is not None:
            fallbacks = () if route.startswith("baseline:") else (
                "baseline:thermostat",
            )
            resilience = ResilienceConfig(fallbacks=fallbacks, seed=seed)
    return FleetGateway(
        vec_env, registry, route, config=config, stats=stats,
        resilience=resilience, chaos=chaos,
    )


def run_suite_job(job: SuiteJob, trace: WorkloadTrace) -> SuiteRow:
    """Replay ``trace`` through one cell's fresh gateway."""
    if trace.n_clients != job.fleet:
        raise ValueError(
            f"trace was generated for {trace.n_clients} clients but the "
            f"suite fleet is {job.fleet}"
        )
    gateway = build_suite_gateway(job)
    result = replay_trace(trace, gateway)
    return SuiteRow.from_replay(job, result)


class SuiteResult(GridResult):
    """Ordered suite rows with rendering."""

    def render(self) -> str:
        """Aligned-text table, one line per cell."""
        header = [
            "scenario",
            "fault",
            "controller",
            "workload",
            "requests",
            "p50_ms",
            "req/s",
            "fingerprint",
        ]
        body = []
        for r in self.rows:
            lat = r.timing.get("latency_ms", {})
            body.append(
                [
                    r.scenario,
                    r.fault,
                    r.controller,
                    r.workload,
                    str(r.replay.get("n_requests", "")),
                    f"{float(lat.get('p50', 0.0)):.3f}",
                    f"{float(r.timing.get('throughput_rps', 0.0)):,.0f}",
                    r.fingerprint[:12],
                ]
            )
        return format_table(header, body)


def suite_traces(
    spec: SuiteSpec, *, store: Optional["ExperimentStore"] = None
) -> Dict[str, WorkloadTrace]:
    """One deterministic trace per suite workload, keyed by name.

    With a ``store``, previously recorded traces are loaded (and digest-
    verified) instead of regenerated, and fresh traces are recorded as
    run artifacts — so a resumed suite replays the *exact recorded
    bytes*, not merely an equivalent regeneration.
    """
    from repro.obs import get_telemetry

    tel = get_telemetry()
    events_total = tel.metric("workload.events_total")
    traces: Dict[str, WorkloadTrace] = {}
    for workload in spec.workload_specs():
        if store is not None and store.has_artifact(
            trace_artifact_name(workload.name)
        ):
            trace = load_trace(store, workload.name)
            if trace.n_clients != spec.fleet or trace.seed != spec.seed:
                raise ValueError(
                    f"stored trace for {workload.name!r} was generated with "
                    f"(n_clients={trace.n_clients}, seed={trace.seed}), but "
                    f"this suite requests (n_clients={spec.fleet}, "
                    f"seed={spec.seed}); use a fresh run directory"
                )
        else:
            trace = generate_trace(
                workload, n_clients=spec.fleet, seed=spec.seed
            )
            if tel.enabled:
                events_total.labels(workload=workload.name).inc(trace.n_events)
            if store is not None:
                record_trace(store, trace)
        traces[workload.name] = trace
    return traces


#: Series and spans a workload suite reports under.
SUITE_TELEMETRY = GridTelemetry(
    run_span="workload.suite", cells_total="workload.cells_total"
)


def run_suite(
    spec: SuiteSpec,
    *,
    store: Optional["ExperimentStore"] = None,
) -> SuiteResult:
    """Execute a workload suite; returns rows in expansion order.

    With a ``store``, each cell's row persists as it completes and
    already-stored cells load instead of re-executing, so an interrupted
    suite resumes from its survivors — with identical fingerprints,
    since every replay is deterministic.
    """
    jobs = expand_suite(spec)
    traces = suite_traces(spec, store=store)
    rows = run_grid(
        jobs,
        lambda job: run_suite_job(job, traces[job.workload.name]),
        SuiteRow.from_dict,
        names=SUITE_TELEMETRY,
        store=store,
    )
    return SuiteResult(rows)
