"""Golden-trajectory digests: hashed rollouts that pin the dynamics.

A golden record is a SHA-256 digest over the byte-exact trajectory a
scenario produces under a fixed seed and a fixed action sequence —
observations, rewards, done flags, zone temperatures, and per-step cost.
The batched :class:`~repro.sim.vector_env.VectorHVACEnv` and ``n_envs``
scalar :class:`~repro.env.hvac_env.HVACEnv` stepped in lockstep go
through one control-step kernel, and both rollouts hash each step's
arrays stacked in fleet order, so they must produce the *same* digest:
one record per scenario pins both.  The committed fixtures
(``tests/golden/trajectories.json``) are checked in tier-1, so *any*
silent drift in the dynamics, the observation pipeline, the tariffs, or
the RNG plumbing fails loudly with the scenario name attached.

Regenerate fixtures (only when a behavior change is intended) with::

    PYTHONPATH=src python tools/make_golden.py

The record carries per-env probe values (final temperatures, total
reward) alongside the digest so a mismatch points at *what* moved, not
just that something did.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.scenarios import build_fleet, get_scenario, list_scenarios
from repro.sim.vector_env import VectorHVACEnv

# Seeds are part of the golden contract: changing either invalidates
# every committed fixture.
GOLDEN_ENV_SEED = 7000
GOLDEN_ACTION_SEED = 9001
GOLDEN_N_ENVS = 2
GOLDEN_N_STEPS = 24


def golden_actions(
    scenario_name: str, n_envs: int = GOLDEN_N_ENVS, n_steps: int = GOLDEN_N_STEPS
) -> List[np.ndarray]:
    """The fixed per-env action sequences, ``(n_steps, n_zones)`` each.

    Each env draws from its own generator (seeded by scenario name and
    env index), so the scalar and vector rollouts can replay identical
    action streams env for env.  One probe env supplies the action space
    (it is seed-independent within a scenario).
    """
    space = get_scenario(scenario_name).build(GOLDEN_ENV_SEED).action_space
    # Digest-derived salt: byte-sum salting collides on anagram names
    # (the bug fixed in repro.utils.seeding.derive_rng), so scenario
    # names hash through sha256 here too.
    digest = hashlib.sha256(scenario_name.encode("utf-8")).digest()
    salt = int.from_bytes(digest[:8], "little")
    actions = []
    for k in range(n_envs):
        rng = np.random.default_rng([GOLDEN_ACTION_SEED, salt, k])
        actions.append(np.stack([space.sample(rng) for _ in range(n_steps)]))
    return actions


def _update(digest: "hashlib._Hash", *arrays: np.ndarray) -> None:
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())


def _update_step(digest, obs, rewards, dones, temps_c, cost_usd) -> None:
    """Hash one step's ``(n_envs, ...)`` arrays in the fixed order."""
    _update(
        digest,
        np.asarray(obs, dtype=np.float64),
        np.asarray(rewards, dtype=np.float64),
        np.asarray(dones, dtype=np.uint8),
        np.asarray(temps_c, dtype=np.float64),
        np.asarray(cost_usd, dtype=np.float64),
    )


def golden_scalar_record(
    scenario_name: str,
    n_envs: int = GOLDEN_N_ENVS,
    n_steps: int = GOLDEN_N_STEPS,
    actions: Optional[List[np.ndarray]] = None,
) -> Dict[str, object]:
    """Digest + probes of ``n_envs`` scalar envs stepped in lockstep.

    Each step's per-env results are stacked in fleet order before
    hashing, so the digest must equal :func:`golden_vector_record`'s.
    """
    scenario = get_scenario(scenario_name)
    if actions is None:
        actions = golden_actions(scenario_name, n_envs, n_steps)
    envs = [scenario.build(GOLDEN_ENV_SEED + k) for k in range(n_envs)]
    digest = hashlib.sha256()
    _update(digest, np.stack([env.reset() for env in envs]).astype(np.float64))
    totals = np.zeros(n_envs)
    for t in range(n_steps):
        obs, rewards, dones, infos = zip(
            *(env.step(actions[k][t]) for k, env in enumerate(envs))
        )
        _update_step(
            digest,
            np.stack(obs),
            rewards,
            dones,
            np.stack([info["temps_c"] for info in infos]),
            [info["cost_usd"] for info in infos],
        )
        totals += rewards
        if all(dones):
            break
    return {
        "sha256": digest.hexdigest(),
        "final_temps_c": [[float(v) for v in env.zone_temps_c] for env in envs],
        "total_reward": [float(v) for v in totals],
    }


def golden_vector_record(
    scenario_name: str,
    n_envs: int = GOLDEN_N_ENVS,
    n_steps: int = GOLDEN_N_STEPS,
    actions: Optional[List[np.ndarray]] = None,
) -> Dict[str, object]:
    """Digest + probes of one batched fleet rollout of a scenario."""
    scenario = get_scenario(scenario_name)
    if actions is None:
        actions = golden_actions(scenario_name, n_envs, n_steps)
    seeds = [GOLDEN_ENV_SEED + k for k in range(n_envs)]
    vec = VectorHVACEnv(build_fleet(scenario, seeds), autoreset=False)
    digest = hashlib.sha256()
    _update(digest, vec.reset().astype(np.float64))
    totals = np.zeros(n_envs)
    for t in range(n_steps):
        obs, rewards, dones, info = vec.step([actions[k][t] for k in range(n_envs)])
        _update_step(digest, obs, rewards, dones, info.temps_c, info.cost_usd)
        totals += rewards
        if np.all(vec.dones):
            break
    return {
        "sha256": digest.hexdigest(),
        "final_temps_c": [[float(v) for v in row] for row in vec.zone_temps_c],
        "total_reward": [float(v) for v in totals],
    }


#: The two rollouts one fixture record pins.
GOLDEN_ROLLOUTS = {"scalar": golden_scalar_record, "vector": golden_vector_record}


def compute_golden_records(
    names: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Both rollouts' records for every (or the given) scenario preset."""
    records: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in names if names is not None else list_scenarios():
        actions = golden_actions(name)  # once per scenario, shared by both
        records[name] = {
            kind: rollout(name, actions=actions)
            for kind, rollout in GOLDEN_ROLLOUTS.items()
        }
    return records
