"""The three cold-start workloads.

Each workload reads its inputs (made from the seed's input variant
before any clock starts), then calls ``ctx.start()`` and runs from cold:
checkpoint load, weather generation, fleet construction, time tables and
the first step's lazily built propagators all fall inside the timed
window.  A workload repeats its unit of work until ``ctx.seconds`` have
passed, at least once; the first unit's outputs are compared with the
stored reference, and every unit is checked for invariants.

Library calls go through module attributes (``sim.build_fleet``) so the
traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.sim as sim
from repro.core import DQNAgent, TrainerConfig, VectorTrainer
from repro.serve import (
    FleetGateway,
    MicroBatcherConfig,
    ResilienceConfig,
    default_registry,
)
from repro.store import ExperimentStore
from repro.workloads import WorkloadTrace, generate_trace, get_workload, replay_trace

SCENARIO = "baseline-tou"
DAY_S = 86_400.0

# serve-replay: >= 1,000 ticks so the p99 tick has >= 10 ticks beyond it;
# whole days, so the two daily DR spikes (~8% of ticks) and one episode
# autoreset per 96 ticks recur throughout.
SERVE_FLEET = 256
SERVE_DAYS = 11
SERVE_CHECKPOINT = "dqn"
SERVE_DEADLINE_S = 0.25
SERVE_FALLBACKS = ("baseline:thermostat",)

# train-fleet: the default DQNConfig (one learn step per env-step), three
# episodes per building.
TRAIN_FLEET = 64
TRAIN_EPISODES = 3 * TRAIN_FLEET

# campaign-cold: every cell rebuilds its fleet, mixing single- and
# five-zone buildings, clean and faulted steps, thermostat and PID.
CAMPAIGN = {
    "scenarios": ("baseline-tou", "heat-wave", "five-zone-office"),
    "controllers": ("thermostat", "pid"),
    "faults": ("none", "noisy-sensors"),
}
CAMPAIGN_SEEDS = 32


@dataclass
class Context:
    """What a workload needs: its input variant, directories and clock.

    ``clock`` times the work; the run length is wall time, so a run
    never outlasts ``seconds`` by more than one unit of work.
    """

    variant: int
    seconds: float
    inputs: Path  # prepared inputs, read only
    scratch: Path  # writable, removed after the run
    clock: Callable[[], float] = time.perf_counter
    started: Optional[float] = None
    stopped: Optional[float] = None
    unit_ends: List[float] = field(default_factory=list)
    _deadline: float = 0.0

    def start(self) -> None:
        self._deadline = time.monotonic() + self.seconds
        self.started = self.clock()

    def stop(self) -> None:
        self.stopped = self.clock()

    def more(self) -> bool:
        """Called after each unit of work: whether to run another."""
        self.unit_ends.append(self.clock())
        return time.monotonic() < self._deadline


@dataclass
class Outcome:
    """What a workload did and what it produced."""

    units: int  # units of work run: replays, trainings or campaigns
    attempted: int  # operations: requests, episodes or cells
    failed: int
    outputs: dict  # the first unit's outputs, compared with the reference
    problems: List[str]  # invariant violations
    details: dict = field(default_factory=dict)
    serve: Dict[str, float] = field(default_factory=dict)


def fleet_seeds(variant: int, size: int) -> List[int]:
    return list(range(variant * size, (variant + 1) * size))


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ serve-replay
def serve_trace_spec():
    """``dr-double-spike`` stretched to ``SERVE_DAYS`` with daily spikes."""
    base = get_workload("dr-double-spike")
    return base.with_overrides(
        name=f"{base.name}-{SERVE_DAYS}d",
        duration_s=SERVE_DAYS * DAY_S,
        spike_starts_s=tuple(
            day * DAY_S + start
            for day in range(SERVE_DAYS)
            for start in base.spike_starts_s
        ),
    )


def prepare_serve(variant: int, inputs: Path) -> None:
    """Write the request trace and a seed-initialized DQN checkpoint."""
    trace = generate_trace(serve_trace_spec(), n_clients=SERVE_FLEET, seed=variant)
    trace.save(str(inputs / "trace.json"))
    probe = sim.get_scenario(SCENARIO).build(0)
    agent = DQNAgent(probe.obs_dim, probe.action_space, rng=variant)
    store = ExperimentStore.create(inputs / "store", kind="perfbench-serve")
    store.save_checkpoint(SERVE_CHECKPOINT, agent.state_dict(include_buffer=False))


def serve_replay(ctx: Context) -> Outcome:
    trace = WorkloadTrace.load(str(ctx.inputs / "trace.json"))
    store = ExperimentStore.open(ctx.inputs / "store")
    ctx.start()
    registry = default_registry()
    version = registry.load_from_store(store, checkpoint=SERVE_CHECKPOINT)
    fleet = sim.VectorHVACEnv(
        sim.build_fleet(SCENARIO, fleet_seeds(ctx.variant, SERVE_FLEET)),
        autoreset=True,
    )
    gateway = FleetGateway(
        fleet,
        registry,
        version.name,
        config=MicroBatcherConfig(deterministic=True),
        resilience=ResilienceConfig(
            deadline_s=SERVE_DEADLINE_S, fallbacks=SERVE_FALLBACKS, seed=ctx.variant
        ),
    )
    replays = []
    while not replays or ctx.more():
        replays.append(replay_trace(trace, gateway))
    ctx.stop()

    stats = gateway.stats
    attempted = trace.n_requests * len(replays)
    answered = stats.requests_per_policy.get(version.key, 0) - stats.total_errors
    problems = [
        f"replay {i} served {r.n_requests} of {trace.n_requests} requests"
        for i, r in enumerate(replays)
        if r.n_requests != trace.n_requests or r.trace_sha256 != trace.sha256
    ]
    return Outcome(
        units=len(replays),
        attempted=attempted,
        failed=attempted - answered,
        outputs={
            "fingerprint": replays[0].fingerprint,
            "trace_sha256": trace.sha256,
            "n_requests": trace.n_requests,
        },
        problems=problems,
        details={"requests": attempted, "ticks": trace.n_ticks * len(replays)},
        serve={
            "serve.flushes": stats.total_batches,
            "serve.requests": stats.total_requests,
            "serve.request_p50_ms": stats.latency_quantiles_ms()["p50"],
            "serve.fallbacks": stats.total_fallbacks,
            "serve.retries": stats.retries,
            "serve.errors": stats.total_errors,
        },
    )


# ------------------------------------------------------------- train-fleet
def weights_sha256(agent: DQNAgent) -> str:
    digest = hashlib.sha256()
    for param in agent.online.parameters():
        digest.update(param.value.tobytes())
    return digest.hexdigest()


def train_fleet(ctx: Context) -> Outcome:
    seeds = fleet_seeds(ctx.variant, TRAIN_FLEET)
    ctx.start()
    fleet = sim.VectorHVACEnv(sim.build_fleet(SCENARIO, seeds), autoreset=True)
    runs = []
    while not runs or ctx.more():
        agent = DQNAgent(
            int(fleet.obs_dims[0]), fleet.single_action_space, rng=ctx.variant
        )
        trainer = VectorTrainer(
            fleet, agent, config=TrainerConfig(n_episodes=TRAIN_EPISODES)
        )
        runs.append((agent, trainer.train()))
    ctx.stop()

    problems = []
    logged = 0
    for i, (agent, logger) in enumerate(runs):
        logged += len(logger.series("episode_return"))
        losses = logger.series("loss")
        if not losses or not all(math.isfinite(x) for x in losses):
            problems.append(f"training {i}: missing or non-finite losses")
        if not all(np.all(np.isfinite(p.value)) for p in agent.online.parameters()):
            problems.append(f"training {i}: non-finite Q-network weights")
    agent, logger = runs[0]
    attempted = TRAIN_EPISODES * len(runs)
    return Outcome(
        units=len(runs),
        attempted=attempted,
        failed=attempted - logged,
        outputs={
            "weights_sha256": weights_sha256(agent),
            "episodes": len(logger.series("episode_return")),
        },
        problems=problems,
    )


# ----------------------------------------------------------- campaign-cold
def cell_name(row) -> str:
    return f"{row.scenario}/{row.controller}/{row.fault}"


def campaign_cold(ctx: Context) -> Outcome:
    spec = sim.CampaignSpec(
        seeds=tuple(fleet_seeds(ctx.variant, CAMPAIGN_SEEDS)), **CAMPAIGN
    )
    runs = []
    ctx.start()
    while not runs or ctx.more():
        store = ExperimentStore.create(
            ctx.scratch / f"campaign-{len(runs)}", kind="perfbench-campaign"
        )
        runs.append((store, sim.run_campaign(spec, store=store)))
    ctx.stop()

    n_cells = len(sim.expand_campaign(spec))
    first = {cell_name(row): sha256_json(row.as_dict()) for row in runs[0][1].rows}
    problems = []
    failed = 0
    for i, (store, result) in enumerate(runs):
        # iter_cells, not get_cell: the read-back must not add store spans.
        stored = {
            f"{c['scenario']}/{c['controller']}/{c['fault']}": c["row"]
            for c in store.iter_cells()
        }
        if len(result.rows) != n_cells:
            problems.append(f"campaign {i}: {len(result.rows)} of {n_cells} cells")
        for row in result.rows:
            name = cell_name(row)
            ok = (
                row.n_seeds == CAMPAIGN_SEEDS
                and all(math.isfinite(v) for v in row.mean.values())
                and stored.get(name) == row.as_dict()
                and sha256_json(row.as_dict()) == first[name]
            )
            if not ok:
                failed += 1
                problems.append(f"campaign {i}: cell {name} failed its checks")
    return Outcome(
        units=len(runs),
        attempted=n_cells * len(runs),
        failed=failed,
        outputs={"cells": first},
        problems=problems,
    )


WORKLOADS = {
    "serve-replay": serve_replay,
    "train-fleet": train_fleet,
    "campaign-cold": campaign_cold,
}

#: Input preparation, run in its own process before the workload's.
PREPARE = {"serve-replay": prepare_serve}
