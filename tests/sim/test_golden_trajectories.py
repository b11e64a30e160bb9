"""Golden-trajectory regression: hashed rollouts per scenario preset.

The committed fixtures (``tests/golden/trajectories.json``) pin the
byte-exact trajectories every registered scenario produces under fixed
seeds and actions: one record per scenario, which the vector env and the
scalar envs stepped in lockstep must both reproduce.  A digest
mismatch means the dynamics, observation pipeline, tariff pricing, or
RNG plumbing silently drifted — regenerate deliberately with
``tools/make_golden.py`` and review the fixture diff.
"""

import json
from pathlib import Path

import pytest

from repro.sim import list_scenarios
from repro.sim.golden import (
    GOLDEN_ACTION_SEED,
    GOLDEN_ENV_SEED,
    GOLDEN_N_ENVS,
    GOLDEN_N_STEPS,
    GOLDEN_ROLLOUTS,
)

FIXTURE_PATH = Path(__file__).resolve().parent.parent / "golden" / "trajectories.json"


@pytest.fixture(scope="module")
def fixtures():
    payload = json.loads(FIXTURE_PATH.read_text())
    meta = payload["meta"]
    # The fixtures are only comparable under the seeds they were made with.
    assert meta["env_seed"] == GOLDEN_ENV_SEED
    assert meta["action_seed"] == GOLDEN_ACTION_SEED
    assert meta["n_envs"] == GOLDEN_N_ENVS
    assert meta["n_steps"] == GOLDEN_N_STEPS
    return payload["scenarios"]


def test_every_registered_scenario_has_a_fixture(fixtures):
    missing = [name for name in list_scenarios() if name not in fixtures]
    assert not missing, (
        f"no golden fixture for {missing}; run tools/make_golden.py and "
        "commit the result"
    )


def _check(fixtures, scenario, kind):
    record = GOLDEN_ROLLOUTS[kind](scenario)
    stored = fixtures[scenario]
    assert record["sha256"] == stored["sha256"], (
        f"{kind} dynamics drift in {scenario!r}: probes now "
        f"{record['final_temps_c']} / {record['total_reward']}, fixture has "
        f"{stored['final_temps_c']} / {stored['total_reward']}"
    )


@pytest.mark.parametrize("scenario", sorted(list_scenarios()))
def test_scalar_trajectory_matches_golden(fixtures, scenario):
    _check(fixtures, scenario, "scalar")


@pytest.mark.parametrize("scenario", sorted(list_scenarios()))
def test_vector_trajectory_matches_golden(fixtures, scenario):
    _check(fixtures, scenario, "vector")
