"""Fault-injecting env wrappers: a faulted fleet, and a one-row one.

:class:`FaultyVectorHVACEnv` wraps a whole
:class:`~repro.sim.vector_env.VectorHVACEnv` fleet and applies the
injector's row-block hooks to its active rows: the action hook before
the plant, the observation hook after the step, and — for autoreset
rows — the terminal observation's step hook, ``on_reset`` and the reset
observation's hook.  :class:`FaultyHVACEnv` *is* a one-row faulted fleet
(as the scalar :class:`~repro.env.hvac_env.HVACEnv` is a one-row fleet),
so a batched faulted fleet reproduces the corresponding scalar faulted
envs bit for bit — including RNG consumption — exactly when a row does
not depend on its fleet-mates; a clean profile (``"none"``) leaves the
wrapped env's trajectories untouched.

The wrappers *are* the sensing boundary: ``unwrapped()`` returns the
wrapper itself and ``zone_temps_c`` reports what the (possibly faulted)
sensors read, so state-reading baselines (thermostat, PID) bound to a
faulted env react to faulted measurements like a real local controller
would.  True temperatures remain available from the inner env and in
``info["temps_c"]`` — comfort/energy accounting always describes
physical reality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from repro.env.core import StepResult
from repro.env.hvac_env import HVACEnv
from repro.env.observation import ObsLayout, obs_to_temp_c
from repro.faults.base import FaultInjector
from repro.faults.profiles import FaultProfile, get_fault_profile

if TYPE_CHECKING:  # import cycle guard: repro.sim wires faults into campaigns
    from repro.sim.vector_env import BatchStepInfo, VectorHVACEnv

ProfileLike = Union[str, FaultProfile]


def _resolve(profile: ProfileLike) -> FaultProfile:
    return get_fault_profile(profile) if isinstance(profile, str) else profile


class FaultyHVACEnv:
    """One HVAC env behind a composable fault injector: a one-row
    :class:`FaultyVectorHVACEnv` over the env's own one-row fleet.

    Parameters
    ----------
    env:
        The clean environment (owns all dynamics and its own RNGs).
    profile:
        A :class:`~repro.faults.profiles.FaultProfile` or registered
        profile name; ``"none"`` makes this wrapper a bit-exact pass-
        through.
    seed:
        Seed of the env's dedicated fault stream — pass the env's build
        seed so scalar and vector runs line up.
    """

    def __init__(self, env: HVACEnv, profile: ProfileLike, *, seed: int = 0) -> None:
        self.env = env
        self._faulted = FaultyVectorHVACEnv(env._fleet, profile, seeds=[seed])
        self.profile = self._faulted.profile
        self.injector: Optional[FaultInjector] = self._faulted.injector
        self.observation_space = env.observation_space
        self.action_space = env.action_space

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> np.ndarray:
        return self._faulted.reset()[0]

    def step(self, action) -> StepResult:
        obs, reward, done, info = self._faulted.step(self.env._fleet_levels(action))
        env_info = info.per_env(0, self.env.building.n_zones)
        if self.injector is not None:
            env_info["commanded_levels"] = info.commanded_levels[0]
            env_info["sensed_temps_c"] = self.zone_temps_c
        return obs[0], float(reward[0]), bool(done[0]), env_info

    def close(self) -> None:
        self.env.close()

    def unwrapped(self) -> "FaultyHVACEnv":
        # The wrapper is the sensing boundary: controllers that read
        # zone_temps_c through unwrapped() must see faulted sensors.
        return self

    # ------------------------------------------------------------- sensing
    @property
    def zone_temps_c(self) -> np.ndarray:
        """Zone temperatures as the (faulted) sensors read them."""
        return self._faulted.sensed_zone_temps_c[0]

    @property
    def true_zone_temps_c(self) -> np.ndarray:
        """Physical zone temperatures (unfaulted ground truth)."""
        return self.env.zone_temps_c

    def __getattr__(self, name: str):
        # Static surface (building, comfort, config, obs_dim, ...) comes
        # from the inner env; dynamic sensing is overridden above.
        return getattr(self.env, name)

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Env state plus injector state (counters, fault RNGs, latches)
        and the faulted last observation."""
        state = {"env": self.env.state_dict()}
        if self.injector is not None:
            last = self._faulted._last_obs
            state["faults"] = self.injector.state_dict()
            state["last_obs"] = None if last is None else last[0].tolist()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.env.load_state_dict(state["env"])
        if self.injector is not None:
            self.injector.load_state_dict(state["faults"])
            last = state.get("last_obs")
            self._faulted._last_obs = (
                None if last is None else np.asarray([last], dtype=np.float64)
            )

    def __repr__(self) -> str:
        return f"FaultyHVACEnv(profile={self.profile.name!r})"


class FaultyVectorHVACEnv:
    """A vector fleet behind per-env fault injection.

    Presents the :class:`~repro.sim.vector_env.VectorHVACEnv` surface
    (``reset``/``step``/``env_view``/``state_dict``); injection is
    mask-aware — frozen (done, ``autoreset=False``) rows neither draw
    fault randomness nor advance their fault windows, exactly like a
    scalar env that is no longer stepped.  ``step`` rejects out-of-range
    levels with the fleet's own check before any fault acts, and reports
    the commanded ``(n_envs, max_zones)`` matrix as
    ``info.commanded_levels``.

    Parameters
    ----------
    vec_env:
        The clean fleet.
    profile:
        Fault profile (or registered name) applied to every member.
    seeds:
        One fault-stream seed per env — pass the fleet's build seeds.
    """

    def __init__(
        self,
        vec_env: VectorHVACEnv,
        profile: ProfileLike,
        *,
        seeds: Sequence[int],
    ) -> None:
        self.vec_env = vec_env
        self.profile = _resolve(profile)
        if len(seeds) != vec_env.n_envs:
            raise ValueError(
                f"need one fault seed per env: fleet has {vec_env.n_envs}, "
                f"got {len(seeds)}"
            )
        self.layouts = [ObsLayout.from_env(env) for env in vec_env.envs]
        self.injector: Optional[FaultInjector] = self.profile.build(
            self.layouts, [int(s) for s in seeds]
        )
        self._last_obs: Optional[np.ndarray] = None
        # Where each row's zone temperatures sit in the flattened
        # observation batch (padded zones point at the row's first entry).
        temps_at = np.array([lay.temps.start for lay in self.layouts])
        row_at = np.arange(vec_env.n_envs) * vec_env.max_obs_dim
        self._sensed_at = row_at[:, None] + np.where(
            vec_env.zone_mask, temps_at[:, None] + np.arange(vec_env.max_zones), 0
        )

    # ----------------------------------------------------------- delegation
    def __getattr__(self, name: str):
        return getattr(self.vec_env, name)

    def __len__(self) -> int:
        return self.vec_env.n_envs

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> np.ndarray:
        obs = self.vec_env.reset()
        if self.injector is not None:
            rows = self.vec_env._rows
            self.injector.on_reset(rows)
            self.injector.apply_reset_obs(rows, obs)
            # Private copy: the caller owns the returned batch (the inner
            # fleet's return-a-copy contract), and may mutate it.
            self._last_obs = obs.copy()
        return obs

    def step(
        self, actions
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, BatchStepInfo]:
        if self.injector is None:
            return self.vec_env.step(actions)
        vec = self.vec_env
        commanded = vec._coerce_actions(actions)
        levels = self.injector.apply_action(np.flatnonzero(~vec._done), commanded)
        obs, rewards, dones, info = vec.step(levels)

        # Frozen rows (done, autoreset=False) keep the inner fleet's clean
        # observation; a scalar faulted env that is no longer stepped
        # keeps its last faulted one, so restore ours.
        if not info.active.all():
            frozen = ~info.active
            obs[frozen] = self._last_obs[frozen]

        # Post-step observations: autoreset rows fault their terminal
        # observation, roll the episode clock, then fault the fresh row —
        # the scalar wrapper's step → reset sequence.
        stepped = np.flatnonzero(info.active)
        if vec.autoreset and dones.any():
            reset = np.flatnonzero(dones)
            self.injector.apply_step_obs(reset, info.terminal_obs)
            self.injector.on_reset(reset)
            self.injector.apply_reset_obs(reset, obs)
            stepped = np.flatnonzero(~dones)
        self.injector.apply_step_obs(stepped, obs)
        info.commanded_levels = commanded  # type: ignore[attr-defined]
        self._last_obs = obs.copy()
        return obs, rewards, dones, info

    # ------------------------------------------------------------- sensing
    @property
    def sensed_zone_temps_c(self) -> np.ndarray:
        """Per-env sensed temperatures, ``(n_envs, max_zones)``: one gather
        from the last faulted observation, with the physical values in
        padded zones and where no observation exists yet."""
        temps = self.vec_env.zone_temps_c
        if self.injector is None or self._last_obs is None:
            return temps
        sensed = obs_to_temp_c(self._last_obs.take(self._sensed_at))
        return np.where(self.vec_env.zone_mask, sensed, temps)

    def env_view(self, index: int) -> "_FaultedEnvView":
        """Scalar-shaped live view whose ``zone_temps_c`` is the faulted
        sensor reading (what a local thermostat/PID would act on)."""
        return _FaultedEnvView(self, index)

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Fleet state plus injector state (and the faulted last
        observation, which the clean fleet snapshot cannot reproduce)."""
        from repro.nn.serialization import encode_array

        state = {"vec_env": self.vec_env.state_dict()}
        if self.injector is not None:
            state["faults"] = self.injector.state_dict()
            state["last_obs"] = (
                None if self._last_obs is None else encode_array(self._last_obs)
            )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.nn.serialization import decode_array

        self.vec_env.load_state_dict(state["vec_env"])
        if self.injector is not None:
            self.injector.load_state_dict(state["faults"])
            last = state.get("last_obs")
            self._last_obs = None if last is None else decode_array(last)
        else:
            self._last_obs = self.vec_env._last_obs.copy()

    def __repr__(self) -> str:
        return (
            f"FaultyVectorHVACEnv(n_envs={self.vec_env.n_envs}, "
            f"profile={self.profile.name!r})"
        )


class _FaultedEnvView:
    """Scalar-env window into a faulted fleet (see ``env_view``)."""

    def __init__(self, wrapper: FaultyVectorHVACEnv, index: int) -> None:
        self._wrapper = wrapper
        self._k = int(index)
        self._inner_view = wrapper.vec_env.env_view(index)

    def unwrapped(self) -> "_FaultedEnvView":
        return self

    @property
    def zone_temps_c(self) -> np.ndarray:
        m = self._wrapper.layouts[self._k].n_zones
        return self._wrapper.sensed_zone_temps_c[self._k, :m]

    @property
    def time_index(self) -> int:
        return self._inner_view.time_index

    def __getattr__(self, name: str):
        return getattr(self._inner_view, name)
