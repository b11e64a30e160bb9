"""Campaign runner: scenario × fault × controller × seed sweeps.

A campaign is the cartesian product of registered scenarios, fault
profiles, named controllers, and seeds.  Each (scenario, fault,
controller) cell batches its seeds into one
:class:`~repro.sim.vector_env.VectorHVACEnv` (wrapped in a
:class:`~repro.faults.FaultyVectorHVACEnv` when the cell injects
faults), so a campaign of S scenarios × F faults × C controllers × K
seeds costs S·F·C vectorized episode runs rather than S·F·C·K scalar
ones.  Cells are independent, so they can optionally fan out over a
process pool, and — when an :class:`~repro.store.ExperimentStore` is
attached — each cell's result is persisted as it completes, making
interrupted sweeps resumable (``repro-hvac campaign --resume RUN_DIR``).

Robustness campaigns sweep the fault axis and compare every faulted
cell against its clean (``fault="none"``) twin —
:func:`summarize_robustness` computes the comfort/energy degradation
deltas that ``repro-hvac robustness`` reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.pid import FleetPID
from repro.baselines.random_policy import RandomController
from repro.baselines.rule_based import FleetThermostat
from repro.eval.metrics import EvaluationSummary, robustness_deltas
from repro.eval.reporting import format_table
from repro.eval.vector_runner import PerEnvPolicy, VectorRunner
from repro.faults.profiles import NO_FAULT, FaultProfile, get_fault_profile
from repro.faults.wrappers import FaultyVectorHVACEnv
from repro.sim.grid import GridResult, GridSpec, GridTelemetry, run_grid
from repro.sim.scenarios import Scenario, build_fleet
from repro.sim.vector_env import VectorHVACEnv

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses eval)
    from repro.store import ExperimentStore

CONTROLLERS = ("thermostat", "pid", "random")


@dataclass(frozen=True)
class CampaignSpec(GridSpec):
    """What to sweep: scenarios × faults × controllers × seeds.

    ``scenarios`` entries are registered names or :class:`Scenario`
    instances; ``faults`` registered fault-profile names (``"none"`` is
    the clean baseline); ``n_episodes`` evaluation episodes run per
    (scenario, fault, controller, seed) tuple.
    """

    scenarios: Tuple[Union[str, Scenario], ...]
    controllers: Tuple[str, ...] = ("thermostat",)
    seeds: Tuple[int, ...] = (0,)
    n_episodes: int = 1
    faults: Tuple[str, ...] = (NO_FAULT,)

    KIND = "campaign"
    CONTROLLERS = CONTROLLERS
    RESUME_PINNED = ("seeds", "n_episodes")

    def __post_init__(self) -> None:
        self._check_axes("scenarios", "faults", "controllers")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if self.n_episodes < 1:
            raise ValueError(f"n_episodes must be >= 1, got {self.n_episodes}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


@dataclass(frozen=True)
class CampaignJob:
    """One executable cell: a scenario, a fault profile, a controller,
    all seeds.

    ``fault`` accepts a registry name but is normalized to the resolved
    :class:`~repro.faults.FaultProfile` object — like scenarios, jobs
    must be self-contained so process-pool workers (which only know the
    import-time presets) can run custom-registered profiles.
    """

    scenario: Scenario
    controller: str
    seeds: Tuple[int, ...]
    n_episodes: int = 1
    fault: Union[str, FaultProfile] = NO_FAULT

    def __post_init__(self) -> None:
        if isinstance(self.fault, str):
            object.__setattr__(self, "fault", get_fault_profile(self.fault))


@dataclass
class CampaignRow:
    """Aggregated result of one cell (mean ± std across seeds)."""

    scenario: str
    controller: str
    n_seeds: int
    mean: Dict[str, float]
    std: Dict[str, float]
    fault: str = NO_FAULT

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignRow":
        """Rebuild a row from :meth:`as_dict` output (store round-trip).

        Rows stored before the fault axis existed carry no ``fault``
        key; they were clean runs, so they load as ``fault="none"``.
        """
        return cls(
            scenario=str(payload["scenario"]),
            controller=str(payload["controller"]),
            n_seeds=int(payload["n_seeds"]),
            mean={k: float(v) for k, v in payload["mean"].items()},
            std={k: float(v) for k, v in payload["std"].items()},
            fault=str(payload.get("fault", NO_FAULT)),
        )


_METRIC_FIELDS = (
    "episode_return", "cost_usd", "energy_kwh", "violation_deg_hours", "violation_rate"
)


def expand_campaign(spec: CampaignSpec) -> List[CampaignJob]:
    """Cartesian-expand a spec into independent (scenario, fault,
    controller) jobs."""
    return [
        CampaignJob(
            scenario=scenario,
            controller=controller,
            seeds=spec.seeds,
            n_episodes=spec.n_episodes,
            fault=fault,
        )
        for scenario, fault, controller, _ in spec.cells()
    ]


def _make_policy(name: str, vec_env: VectorHVACEnv, seeds: Sequence[int]) -> PerEnvPolicy:
    if name == "thermostat":
        return PerEnvPolicy.of_fleet(FleetThermostat(vec_env))
    if name == "pid":
        return PerEnvPolicy.of_fleet(FleetPID(vec_env))
    if name == "random":
        agents = [
            RandomController(env.action_space, rng=int(seed))
            for env, seed in zip(vec_env.envs, seeds)
        ]
        return PerEnvPolicy(agents, vec_env.obs_dims)
    raise ValueError(f"unknown controller {name!r}; choose from {CONTROLLERS}")


def run_campaign_job(job: CampaignJob) -> CampaignRow:
    """Run one cell: batch its seeds into a vector env and evaluate.

    Module-level (not a closure) so process-pool executors can pickle it.

    Each cell deliberately builds a fresh fleet with fresh generators
    rather than sharing one per scenario: seeded env RNGs advance as
    episodes run, so a shared fleet would hand the second controller
    different forecast noise and initial temperatures than the first.
    Rebuilding gives every controller a byte-identical world per seed —
    the property that makes campaign columns comparable.  Only the
    read-only weather series are shared: inside a campaign run
    (:func:`~repro.sim.grid.run_grid`) each (scenario, seed)'s series
    is generated once and reused by every cell.  Faulted cells wrap the
    fleet in a :class:`~repro.faults.FaultyVectorHVACEnv` seeded by the
    same env seeds, so each fault column perturbs that identical world.
    """
    vec_env = VectorHVACEnv(build_fleet(job.scenario, job.seeds), autoreset=False)
    if not job.fault.is_clean:
        vec_env = FaultyVectorHVACEnv(vec_env, job.fault, seeds=job.seeds)
    policy = _make_policy(job.controller, vec_env, job.seeds)
    runner = VectorRunner(vec_env, policy)
    per_seed: List[EvaluationSummary] = runner.evaluate(n_episodes=job.n_episodes)
    mean = {f: float(np.mean([getattr(s, f) for s in per_seed])) for f in _METRIC_FIELDS}
    std = {f: float(np.std([getattr(s, f) for s in per_seed])) for f in _METRIC_FIELDS}
    return CampaignRow(
        scenario=job.scenario.name,
        controller=job.controller,
        n_seeds=len(job.seeds),
        mean=mean,
        std=std,
        fault=job.fault.name,
    )


class CampaignResult(GridResult):
    """Ordered campaign rows with rendering and JSON export."""

    @property
    def has_faults(self) -> bool:
        """Whether any cell ran under a non-clean fault profile."""
        return any(r.fault != NO_FAULT for r in self.rows)

    def render(self) -> str:
        """Aligned-text table: one line per (scenario, fault, controller)
        cell (the fault column is omitted for all-clean campaigns)."""
        with_faults = self.has_faults
        header = ["scenario"]
        if with_faults:
            header.append("fault")
        header += [
            "controller",
            "seeds",
            "cost_usd",
            "energy_kwh",
            "viol_degh",
            "viol_rate",
            "return",
        ]
        body = []
        for r in self.rows:
            cells = [r.scenario]
            if with_faults:
                cells.append(r.fault)
            cells += [
                r.controller,
                str(r.n_seeds),
                f"{r.mean['cost_usd']:.3f}±{r.std['cost_usd']:.3f}",
                f"{r.mean['energy_kwh']:.2f}±{r.std['energy_kwh']:.2f}",
                f"{r.mean['violation_deg_hours']:.2f}±{r.std['violation_deg_hours']:.2f}",
                f"{r.mean['violation_rate']:.3f}",
                f"{r.mean['episode_return']:.3f}",
            ]
            body.append(cells)
        return format_table(header, body)

    def to_json(self) -> str:
        """Serialize all rows as a JSON array."""
        return json.dumps([r.as_dict() for r in self.rows], indent=2)

    def save(self, path: str) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


#: Series and spans a campaign reports under.
CAMPAIGN_TELEMETRY = GridTelemetry(
    run_span="campaign.run",
    cells_total="campaign.cells_total",
    cell_seconds="campaign.cell_seconds",
    cell_span="campaign.cell",
)


def run_campaign(
    spec: CampaignSpec,
    *,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    store: Optional["ExperimentStore"] = None,
) -> CampaignResult:
    """Execute a campaign; returns rows in expansion order.

    ``executor="process"`` fans the independent cells out over a
    :class:`concurrent.futures.ProcessPoolExecutor`; ``"serial"``
    (default) runs them inline, which is usually fast enough because
    each cell is already vectorized across its seeds.

    With a ``store`` (an :class:`~repro.store.ExperimentStore`), each
    cell's row is persisted as it completes and cells already present in
    the store are **not executed again** — their stored rows are loaded
    instead.  A killed sweep therefore resumes from its survivors on
    rerun.  The store does not validate that the rerun spec matches the
    stored one beyond cell identity (scenario, controller, fault); the
    run manifest records the original spec for auditing.
    """
    rows = run_grid(
        expand_campaign(spec),
        run_campaign_job,
        CampaignRow.from_dict,
        names=CAMPAIGN_TELEMETRY,
        store=store,
        executor=executor,
        max_workers=max_workers,
    )
    return CampaignResult(rows)


# ------------------------------------------------------------- robustness
@dataclass
class RobustnessRow:
    """Clean-vs-faulted degradation of one (scenario, controller, fault).

    ``deltas`` holds absolute (``<metric>_delta``) and, where the clean
    value is nonzero, relative (``<metric>_rel``) differences computed by
    :func:`repro.eval.metrics.robustness_deltas` — positive cost/
    violation deltas mean the fault made things worse.
    """

    scenario: str
    controller: str
    fault: str
    n_seeds: int
    clean_mean: Dict[str, float]
    faulted_mean: Dict[str, float]
    deltas: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return asdict(self)


def summarize_robustness(rows: Sequence[CampaignRow]) -> List[RobustnessRow]:
    """Pair every faulted row with its clean twin and compute deltas.

    Faulted rows without a matching ``fault="none"`` cell (e.g. a
    partially resumed sweep) are skipped — a delta against nothing would
    be noise presented as signal.
    """
    clean: Dict[Tuple[str, str], CampaignRow] = {
        (r.scenario, r.controller): r for r in rows if r.fault == NO_FAULT
    }
    summary: List[RobustnessRow] = []
    for r in rows:
        if r.fault == NO_FAULT:
            continue
        base = clean.get((r.scenario, r.controller))
        if base is None:
            continue
        summary.append(
            RobustnessRow(
                scenario=r.scenario,
                controller=r.controller,
                fault=r.fault,
                n_seeds=r.n_seeds,
                clean_mean=dict(base.mean),
                faulted_mean=dict(r.mean),
                deltas=robustness_deltas(base.mean, r.mean),
            )
        )
    return summary


def render_robustness_table(summary: Sequence[RobustnessRow]) -> str:
    """Aligned-text degradation table (one line per faulted cell)."""
    header = [
        "scenario",
        "fault",
        "controller",
        "d_cost_usd",
        "d_energy_kwh",
        "d_viol_degh",
        "d_viol_rate",
        "d_return",
    ]
    body = []
    for row in summary:
        d = row.deltas
        body.append(
            [
                row.scenario,
                row.fault,
                row.controller,
                f"{d['cost_usd_delta']:+.3f}",
                f"{d['energy_kwh_delta']:+.2f}",
                f"{d['violation_deg_hours_delta']:+.2f}",
                f"{d['violation_rate_delta']:+.3f}",
                f"{d['episode_return_delta']:+.3f}",
            ]
        )
    return format_table(header, body)
