"""Fault-model plumbing: the model contract and the per-fleet injector.

A :class:`FaultModel` perturbs what a controller *senses* (observation
channels) or what the plant *executes* (per-zone airflow levels); the
building dynamics themselves stay truthful, so comfort and energy
accounting always describe what physically happened.  Models are
seedable, composable (an injector applies a list of them in order), and
checkpointable (``state_dict``/``load_state_dict``), so faulted runs
interrupt and resume exactly like clean ones.

Models act on *row blocks*: the injector groups a fleet's rows by
observation layout (:class:`repro.env.observation.ObsLayout`), so a
model edits one block's column slices with masked array operations.

Determinism contract: each env in a fleet owns one dedicated fault RNG
stream and draws from it only, in model order (:meth:`FaultModel._draw`
is the one per-row loop), so a faulted row does not depend on its
fleet-mates, and the injector state (RNG positions, step counters, held
sensor values) round-trips through JSON.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.env.observation import ObsLayout
from repro.utils.seeding import RandomState, rng_state, set_rng_state

# Salt folded into every fault stream seed so fault randomness is
# independent of the env's own reset/forecast streams under equal seeds.
_FAULT_STREAM_SALT = 0xFA017


def fault_stream(seed: int) -> RandomState:
    """The dedicated fault RNG stream for an env seeded with ``seed``."""
    return np.random.default_rng([_FAULT_STREAM_SALT, int(seed)])


class FaultModel:
    """One composable fault; subclasses override the hooks they need.

    Configuration lives in constructor arguments; the fleet's fault
    streams arrive via :meth:`bind`.  Registered profiles hold *unbound*
    template instances — :meth:`repro.faults.profiles.FaultProfile.build`
    deep-copies them per run, so one profile can drive many concurrent
    runs.

    Each hook gets a block of rows sharing one layout ``lay``: ``rows``
    index per-env state and :attr:`rngs`, ``steps`` are their episode
    step counts.
    """

    kind: str = "fault"

    def __init__(self) -> None:
        self.rngs: List[RandomState] = []
        self.n_envs = 0

    def bind(self, rngs: Sequence[RandomState]) -> None:
        """Attach the fleet's per-env fault streams; allocates state."""
        self.rngs = list(rngs)
        self.n_envs = len(self.rngs)
        self._allocate()

    def _allocate(self) -> None:
        """Allocate per-env runtime state (called from :meth:`bind`)."""

    def on_reset(self, rows: np.ndarray) -> None:
        """Episode boundary for ``rows``."""

    def apply_action(self, lay: ObsLayout, rows, steps, levels: np.ndarray) -> None:
        """Perturb the block's per-zone levels, ``(len(rows), lay.n_zones)``,
        in place before the plant executes them; the result must stay in
        ``[0, lay.n_levels)``."""

    def apply_obs(self, lay: ObsLayout, rows, steps, obs: np.ndarray) -> None:
        """Perturb the block's observations, ``(len(rows), lay.obs_dim)``,
        in place; ``steps`` is 0 for a reset observation, then 1, 2, …"""

    def in_window(self, steps, start_step: int, duration_steps: Optional[int]):
        """Which ``steps`` fall in a ``[start, start+duration)`` window
        (``duration_steps=None`` → open-ended), as a mask."""
        if duration_steps is None:
            return steps >= start_step
        return (steps >= start_step) & (steps < start_step + int(duration_steps))

    def _draw(self, rows, draw: Callable[[RandomState], np.ndarray]) -> np.ndarray:
        """``draw(rng)`` from each row's own fault stream, stacked in row
        order — the one per-row loop of the fault layer."""
        return np.array([draw(self.rngs[k]) for k in rows.tolist()])

    # ---------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Per-env runtime state (not configuration), JSON-safe."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into a bound model."""
        if state:
            raise ValueError(
                f"{type(self).__name__} carries no state, got {sorted(state)}"
            )

    def describe(self) -> str:
        """One-line human description (used by CLI listings)."""
        return self.kind


class FaultInjector:
    """Applies a composed list of bound fault models to one fleet.

    Owns the per-env fault RNG streams and episode-step counters.  Its
    hooks take an index array of fleet rows and the fleet's padded
    ``(n_envs, max_zones)`` level or ``(n_envs, max_obs_dim)``
    observation matrix; it splits the rows into blocks of one layout and
    runs every model over each block, in model order.  The fleet wrapper
    calls :meth:`on_reset` / :meth:`apply_action` /
    :meth:`apply_reset_obs` / :meth:`apply_step_obs` on the active rows
    of each step.
    """

    def __init__(
        self,
        models: Sequence[FaultModel],
        layouts: Sequence[ObsLayout],
        rngs: Sequence[RandomState],
    ) -> None:
        if not models:
            raise ValueError("injector needs at least one fault model")
        if len(layouts) != len(rngs):
            raise ValueError(
                f"need one RNG per env: {len(layouts)} layouts, {len(rngs)} rngs"
            )
        self.models = [copy.deepcopy(m) for m in models]
        self.layouts = list(layouts)
        self.rngs = list(rngs)
        for model in self.models:
            model.bind(self.rngs)
        self.n_envs = len(self.layouts)
        self._steps = np.zeros(self.n_envs, dtype=int)
        # Each distinct layout with a mask of the rows that have it.
        self._groups = [
            (lay, np.array([row == lay for row in self.layouts]))
            for lay in dict.fromkeys(self.layouts)
        ]
        # Telemetry counters only — they never touch the fault RNG
        # streams or perturbation math, so faulted trajectories stay
        # bit-identical with telemetry on or off.
        from repro.obs import get_telemetry

        tel = get_telemetry()
        self._tel_enabled = tel.enabled
        activations = tel.metric("faults.activations_total")
        self._c_activations = [
            activations.labels(model=model.kind) for model in self.models
        ]
        self._c_episodes = tel.metric("faults.episodes_total")

    def _run(self, hook: str, rows: np.ndarray, matrix: np.ndarray, width: str) -> None:
        """Every model's ``hook`` over each layout block of ``rows`` in the
        padded fleet ``matrix`` (a row's live columns: its layout's
        ``width`` attribute), written back in place."""
        for lay, member in self._groups:
            block_rows = rows[member[rows]]
            if not block_rows.size:
                continue
            cols = slice(0, getattr(lay, width))
            block = matrix[block_rows, cols]
            steps = self._steps[block_rows]
            for model in self.models:
                getattr(model, hook)(lay, block_rows, steps, block)
            matrix[block_rows, cols] = block
        if self._tel_enabled:
            for counter in self._c_activations:
                counter.inc(rows.size)

    def on_reset(self, rows: np.ndarray) -> None:
        """Start a new episode in ``rows`` (resets window clocks)."""
        rows = np.asarray(rows, dtype=int)
        self._steps[rows] = 0
        for model in self.models:
            model.on_reset(rows)
        if self._tel_enabled:
            self._c_episodes.inc(rows.size)

    def apply_action(self, rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Faulted copy of the ``(n_envs, max_zones)`` levels: ``rows``
        perturbed, every other row as commanded (input not mutated)."""
        levels = np.array(levels, dtype=np.int64)
        self._run("apply_action", np.asarray(rows, dtype=int), levels, "n_zones")
        return levels

    def apply_reset_obs(self, rows: np.ndarray, obs: np.ndarray) -> None:
        """Fault ``rows``' fresh-episode observations in ``obs`` (in place),
        at step 0: call it after :meth:`on_reset` of those rows."""
        self._run("apply_obs", np.asarray(rows, dtype=int), obs, "obs_dim")

    def apply_step_obs(self, rows: np.ndarray, obs: np.ndarray) -> None:
        """Advance ``rows``' episode clocks and fault their new
        observations in ``obs`` (in place)."""
        rows = np.asarray(rows, dtype=int)
        self._steps[rows] += 1
        self._run("apply_obs", rows, obs, "obs_dim")

    # ---------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Serialize counters, RNG positions, and model state (JSON-safe)."""
        return {
            "steps": self._steps.tolist(),
            "rngs": [rng_state(rng) for rng in self.rngs],
            "models": [
                {"kind": model.kind, "state": model.state_dict()}
                for model in self.models
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this injector."""
        steps = list(state["steps"])
        if len(steps) != self.n_envs:
            raise ValueError(
                f"state covers {len(steps)} envs, injector has {self.n_envs}"
            )
        model_states: List[Dict] = list(state["models"])
        if len(model_states) != len(self.models):
            raise ValueError(
                f"state holds {len(model_states)} models, injector has "
                f"{len(self.models)}"
            )
        for model, entry in zip(self.models, model_states):
            if entry.get("kind") != model.kind:
                raise ValueError(
                    f"model kind mismatch: injector has {model.kind!r}, "
                    f"state has {entry.get('kind')!r}"
                )
        self._steps = np.asarray(steps, dtype=int)
        for rng, snapshot in zip(self.rngs, state["rngs"]):
            set_rng_state(rng, snapshot)
        for model, entry in zip(self.models, model_states):
            model.load_state_dict(entry["state"])
