"""Fault-model plumbing: the model contract and the per-fleet injector.

A :class:`FaultModel` perturbs what a controller *senses* (observation
channels) or what the plant *executes* (per-zone airflow levels); the
building dynamics themselves stay truthful, so comfort and energy
accounting always describe what physically happened.  Models are
seedable, composable (an injector applies a list of them in order), and
checkpointable (``state_dict``/``load_state_dict``), so faulted runs
interrupt and resume exactly like clean ones.

Determinism contract: each env in a fleet owns one dedicated fault RNG
stream, and every model draws from env ``k``'s stream only when acting
on env ``k`` — the same pattern the vector env uses for forecast noise —
so a batched faulted fleet is bit-identical to the corresponding scalar
faulted envs, and the injector state (RNG positions, step counters,
held sensor values) round-trips through JSON.

Models locate the channels they perturb through the env's observation
layout (:class:`repro.env.observation.ObsLayout`) and convert °C
perturbations with its unit conversions (``temp_to_obs``,
``out_temp_to_obs``).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

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

    Configuration lives in constructor arguments; fleet context arrives
    via :meth:`bind`.  Registered profiles hold *unbound* template
    instances — :meth:`repro.faults.profiles.FaultProfile.build` deep-
    copies them per run, so one profile can drive many concurrent runs.
    """

    kind: str = "fault"

    def __init__(self) -> None:
        self.layouts: List[ObsLayout] = []
        self.rngs: List[RandomState] = []
        self.n_envs = 0

    def bind(self, layouts: Sequence[ObsLayout], rngs: Sequence[RandomState]) -> None:
        """Attach fleet context; allocates per-env state."""
        if len(layouts) != len(rngs):
            raise ValueError(
                f"need one RNG per env: {len(layouts)} layouts, {len(rngs)} rngs"
            )
        self.layouts = list(layouts)
        self.rngs = list(rngs)
        self.n_envs = len(self.layouts)
        self._allocate()

    def _allocate(self) -> None:
        """Allocate per-env runtime state (called from :meth:`bind`)."""

    def on_reset(self, k: int) -> None:
        """Episode boundary for env ``k``."""

    def apply_action(self, k: int, levels: np.ndarray, step: int) -> np.ndarray:
        """Perturb env ``k``'s per-zone levels before the plant executes
        them; ``step`` counts completed env steps this episode."""
        return levels

    def apply_obs(self, k: int, obs_row: np.ndarray, step: int) -> None:
        """Perturb env ``k``'s (unpadded) observation row in place;
        ``step`` is 0 for the reset observation, then 1, 2, …"""

    def in_window(self, step: int, start_step: int, duration_steps: Optional[int]) -> bool:
        """Whether ``step`` falls in a ``[start, start+duration)`` window
        (``duration_steps=None`` → open-ended)."""
        if step < start_step:
            return False
        return duration_steps is None or step < start_step + int(duration_steps)

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

    Owns the per-env fault RNG streams and episode-step counters; the
    env wrappers call :meth:`on_reset` / :meth:`apply_action` /
    :meth:`apply_reset_obs` / :meth:`apply_step_obs` at the exact same
    points in scalar and vector execution, which is what makes the two
    paths bit-identical.
    """

    def __init__(
        self,
        models: Sequence[FaultModel],
        layouts: Sequence[ObsLayout],
        rngs: Sequence[RandomState],
    ) -> None:
        if not models:
            raise ValueError("injector needs at least one fault model")
        self.models = [copy.deepcopy(m) for m in models]
        self.layouts = list(layouts)
        self.rngs = list(rngs)
        for model in self.models:
            model.bind(self.layouts, self.rngs)
        self.n_envs = len(self.layouts)
        self._steps = np.zeros(self.n_envs, dtype=int)
        # Telemetry counters only — they never touch the fault RNG
        # streams or perturbation math, so faulted trajectories stay
        # bit-identical with telemetry on or off.
        from repro.obs import get_telemetry

        tel = get_telemetry()
        self._tel_enabled = tel.enabled
        activations = tel.metric("faults.activations_total")
        self._c_activations = {
            id(model): activations.labels(model=model.kind)
            for model in self.models
        }
        self._c_episodes = tel.metric("faults.episodes_total")

    def on_reset(self, k: int) -> None:
        """Start a new episode for env ``k`` (resets window clocks)."""
        self._steps[k] = 0
        for model in self.models:
            model.on_reset(k)
        if self._tel_enabled:
            self._c_episodes.inc()

    def apply_action(self, k: int, levels: np.ndarray) -> np.ndarray:
        """Faulted per-zone levels for env ``k`` (input not mutated)."""
        levels = np.array(levels, dtype=int, copy=True)
        step = int(self._steps[k])
        for model in self.models:
            levels = model.apply_action(k, levels, step)
            if self._tel_enabled:
                self._c_activations[id(model)].inc()
        return np.clip(levels, 0, self.layouts[k].n_levels - 1)

    def apply_reset_obs(self, k: int, obs_row: np.ndarray) -> None:
        """Fault env ``k``'s fresh-episode observation (in place)."""
        for model in self.models:
            model.apply_obs(k, obs_row, 0)
            if self._tel_enabled:
                self._c_activations[id(model)].inc()

    def apply_step_obs(self, k: int, obs_row: np.ndarray) -> None:
        """Advance env ``k``'s episode clock and fault its new
        observation (in place)."""
        self._steps[k] += 1
        step = int(self._steps[k])
        for model in self.models:
            model.apply_obs(k, obs_row, step)
            if self._tel_enabled:
                self._c_activations[id(model)].inc()

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
