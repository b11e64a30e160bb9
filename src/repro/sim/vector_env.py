"""Vectorized fleet simulation: N HVAC environments stepped as one batch.

:class:`VectorHVACEnv` advances N independent buildings — possibly with
different climates, tariffs, schedules, comfort bands, and zone counts —
in a single array program per control step.  Time-varying inputs
(clock, weather, price, occupancy, gains) are precomputed into
time-indexed tables at construction
(:func:`repro.env.observation.time_tables`), the step arithmetic runs
once for the whole fleet through the control-step kernel
(:mod:`repro.env.kernel`) and the observation rows once through the
shared encoder (:func:`repro.env.observation.encode`), so aggregate
throughput scales far better than stepping N scalar envs sequentially
(see ``benchmarks/perf_vector_sim.py``).

Heterogeneity is handled by padding: zone-indexed arrays are padded to
the widest building and masked.  Observation rows are encoded in the
fleet's widest layout (most zones, longest forecast horizon) and mapped
onto each env's own layout by one precomputed per-env column index;
rows are right-padded with zeros to the longest observation vector.

Parity: a fleet of N identical configs reproduces N independent scalar
envs' trajectories byte-identically, including RNG consumption — the
vector env drives each scalar env's own generators for resets and
forecast noise, and both go through the same kernel
(:func:`repro.env.kernel.step_rows`) and observation code
(:mod:`repro.env.observation`), the fleet with one row per env and the
scalar env with a single row.

Fleet state is structure-of-arrays: the static per-env kernel columns
(:func:`repro.env.kernel.step_columns`) and time tables built once at
construction, plus the dynamic state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.hvac_env import HVACEnv
from repro.env.kernel import step_columns, step_rows
from repro.env.observation import ObsLayout, encode, forecast, time_tables
from repro.sim.batch_thermal import BatchRCNetwork


@dataclass
class BatchStepInfo:
    """Step diagnostics for the whole fleet, as stacked arrays.

    Zone-indexed arrays have shape ``(n_envs, max_zones)`` with padded
    entries zeroed; use :meth:`per_env` to recover a scalar-env-shaped
    info dict for one environment.
    """

    energy_kwh: np.ndarray
    cost_usd: np.ndarray
    power_w: np.ndarray
    violation_deg_hours: np.ndarray
    violation_per_zone_deg: np.ndarray
    reward_per_zone: np.ndarray
    temps_c: np.ndarray
    temp_out_c: np.ndarray
    ghi_w_m2: np.ndarray
    price_per_kwh: np.ndarray
    levels: np.ndarray
    occupied: np.ndarray
    day_of_year: np.ndarray
    hour_of_day: np.ndarray
    active: np.ndarray
    terminal_obs: Optional[np.ndarray] = None

    def per_env(self, k: int, n_zones: int) -> Dict[str, object]:
        """One environment's info dict (zone arrays trimmed to its width)."""
        m = int(n_zones)
        return {
            "energy_kwh": float(self.energy_kwh[k]),
            "cost_usd": float(self.cost_usd[k]),
            "power_w": float(self.power_w[k]),
            "violation_deg_hours": float(self.violation_deg_hours[k]),
            "violation_per_zone_deg": self.violation_per_zone_deg[k, :m].copy(),
            "reward_per_zone": self.reward_per_zone[k, :m].copy(),
            "temps_c": self.temps_c[k, :m].copy(),
            "temp_out_c": float(self.temp_out_c[k]),
            "ghi_w_m2": float(self.ghi_w_m2[k]),
            "price_per_kwh": float(self.price_per_kwh[k]),
            "levels": self.levels[k, :m].copy(),
            "occupied": self.occupied[k, :m].copy(),
            "day_of_year": int(self.day_of_year[k]),
            "hour_of_day": float(self.hour_of_day[k]),
        }


class _EnvView:
    """A live single-env window into the fleet.

    Presents the scalar-env surface that state-reading controllers
    (thermostat, PID) need — ``zone_temps_c`` and ``time_index`` track the
    **batch** state, everything else delegates to the underlying scalar
    env's static attributes.
    """

    def __init__(self, vec_env: "VectorHVACEnv", index: int) -> None:
        self._vec = vec_env
        self._k = int(index)
        self._env = vec_env.envs[index]

    def unwrapped(self) -> "_EnvView":
        return self

    @property
    def zone_temps_c(self) -> np.ndarray:
        m = self._env.building.n_zones
        return self._vec._temps[self._k, :m].copy()

    @property
    def time_index(self) -> int:
        return int(self._vec._idx[self._k])

    def __getattr__(self, name: str):
        return getattr(self._env, name)


class VectorHVACEnv:
    """Batched ``reset``/``step`` over a fleet of scalar HVAC environments.

    Parameters
    ----------
    envs:
        The scalar environments to batch.  They remain the owners of all
        configuration and randomness; the vector env precomputes their
        time-varying inputs into tables and advances their dynamics as
        stacked arrays.  All envs must share one control-step length.
    autoreset:
        When True (default), an environment that terminates is reset
        immediately and the returned observation row is the fresh
        episode's first observation; the terminal observation is kept in
        ``info.terminal_obs``.  When False, finished environments freeze
        (zero reward, ``done`` stays True) until :meth:`reset`.
    """

    def __init__(
        self,
        envs: Sequence[HVACEnv],
        *,
        autoreset: bool = True,
    ) -> None:
        if not envs:
            raise ValueError("need at least one environment")
        for env in envs:
            if not isinstance(env, HVACEnv):
                raise TypeError(
                    f"VectorHVACEnv batches HVACEnv instances, got {type(env).__name__}"
                )
        dts = {float(env.weather.dt_seconds) for env in envs}
        if len(dts) != 1:
            raise ValueError(f"all envs must share one dt_seconds, got {sorted(dts)}")

        self.envs: List[HVACEnv] = list(envs)
        self.autoreset = bool(autoreset)
        n = self.n_envs = len(self.envs)
        self.dt_seconds = dts.pop()

        self.batch_net = BatchRCNetwork([env.building.network for env in self.envs])
        z = self.max_zones = self.batch_net.max_zones
        self._cols = step_columns(self.envs)
        self.n_zones = self._cols.n_zones
        self.zone_mask = self._cols.zone_mask
        self._episode_steps = np.array([env.episode_steps for env in self.envs])
        self._n_levels = np.array([env.vav.n_levels for env in self.envs])

        self._tables = time_tables(self.envs)
        self._build_obs_columns()

        # ------------------------------------------------------ dynamic state
        self._temps = np.zeros((n, z))
        self._idx = np.zeros(n, dtype=int)
        self._steps_taken = np.zeros(n, dtype=int)
        self._done = np.zeros(n, dtype=bool)
        self._last_obs = np.zeros((n, self.max_obs_dim))
        self._needs_reset = True

    def _build_obs_columns(self) -> None:
        """Map the fleet's widest layout onto each env's own layout.

        Rows are encoded in one layout with the most zones and the
        longest forecast horizon of the fleet, plus one trailing zero
        column; ``_obs_columns[k]`` picks env ``k``'s channels out of it
        and points its right-padding at the zero column.  The forecast
        noise scales are copied into ``(n_envs, 2 * max_horizon)``
        columns (zero past each env's horizon), so the forecast of every
        row is one call too.
        """
        layouts = [env.layout for env in self.envs]
        n = self.n_envs
        h_max = max(lay.horizon for lay in layouts)
        wide = self._wide = ObsLayout(self.max_zones, h_max, int(self._n_levels.max()))
        self.obs_dims = np.array([lay.obs_dim for lay in layouts], dtype=int)
        self.max_obs_dim = int(self.obs_dims.max())
        self._obs_columns = np.full((n, self.max_obs_dim), wide.obs_dim)
        columns = {lay: lay.columns_in(wide) for lay in set(layouts)}
        self._forecasters = []
        self._f_scales = np.zeros((n, 2 * h_max))
        for k, (env, lay) in enumerate(zip(self.envs, layouts)):
            self._obs_columns[k, : lay.obs_dim] = columns[lay]
            provider = env._forecast
            self._forecasters.append(provider if lay.horizon else None)
            self._f_scales[k, : 2 * lay.horizon] = provider.scales

    # ----------------------------------------------------------- properties
    @property
    def homogeneous(self) -> bool:
        """True when every env shares one observation layout and action set."""
        first = self.envs[0]
        return all(
            env.obs_dim == first.obs_dim
            and np.array_equal(env.action_space.nvec, first.action_space.nvec)
            for env in self.envs[1:]
        )

    @property
    def single_action_space(self):
        """The shared per-env action space (requires a homogeneous fleet)."""
        if not self.homogeneous:
            raise ValueError("fleet is heterogeneous: no single action space")
        return self.envs[0].action_space

    @property
    def single_observation_space(self):
        """The shared per-env observation space (requires homogeneity)."""
        if not self.homogeneous:
            raise ValueError("fleet is heterogeneous: no single observation space")
        return self.envs[0].observation_space

    @property
    def zone_temps_c(self) -> np.ndarray:
        """Current zone temperatures, ``(n_envs, max_zones)`` (copy)."""
        return self._temps.copy()

    @property
    def time_indices(self) -> np.ndarray:
        """Current per-env weather-trace indices (copy)."""
        return self._idx.copy()

    @property
    def dones(self) -> np.ndarray:
        """Which envs are finished (meaningful with ``autoreset=False``)."""
        return self._done.copy()

    def env_view(self, index: int) -> _EnvView:
        """A scalar-env-shaped live view of one fleet member (for
        state-reading controllers like the thermostat and PID baselines)."""
        return _EnvView(self, index)

    def split_obs(self, obs_batch: np.ndarray) -> List[np.ndarray]:
        """Per-env observation rows with the padding trimmed off.

        ``obs_batch`` is a stacked ``(n_envs, max_obs_dim)`` array as
        returned by :meth:`reset`/:meth:`step`; row ``k`` of the result
        has exactly ``obs_dims[k]`` entries — the view a scalar consumer
        of env ``k`` (a serving client, a per-env controller) expects.
        """
        obs_batch = np.asarray(obs_batch)
        if obs_batch.shape != (self.n_envs, self.max_obs_dim):
            raise ValueError(
                f"obs_batch must have shape ({self.n_envs}, {self.max_obs_dim}), "
                f"got {obs_batch.shape}"
            )
        return [
            obs_batch[k, : self.obs_dims[k]].copy() for k in range(self.n_envs)
        ]

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> np.ndarray:
        """Reset every env; returns the stacked initial observations."""
        for k, env in enumerate(self.envs):
            self._reset_env(k)
        self._done[:] = False
        self._needs_reset = False
        self._assemble_obs(np.arange(self.n_envs))
        return self._last_obs.copy()

    def _reset_env(self, k: int) -> None:
        env = self.envs[k]
        env.reset_state()  # consumes env._rng exactly as a scalar reset
        m = env.building.n_zones
        self._temps[k, :] = 0.0
        self._temps[k, :m] = env._temps
        self._idx[k] = env._index
        self._steps_taken[k] = 0

    def _assemble_obs(self, indices: np.ndarray) -> None:
        """Recompute observation rows for ``indices`` into ``_last_obs``."""
        if indices.size == 0:
            return
        tab = self._tables
        i = self._idx[indices]
        # The one irreducible per-env loop: the raw normal draws must come
        # from each env's own forecast generator, in env order, exactly
        # as the scalar envs would consume them.
        noise = np.zeros((indices.size, 2 * self._wide.horizon))
        for p, k in enumerate(indices.tolist()):
            provider = self._forecasters[k]
            if provider is not None:
                noise[p, : 2 * provider.horizon] = provider.draw_noise()
        f_temp, f_ghi = forecast(
            tab, indices, i, self._f_scales[indices], noise
        )
        wide = encode(
            self._wide, tab.clock[indices, i], tab.occupied[indices, i],
            self._temps[indices], tab.exo[indices, i], f_temp, f_ghi, pad=1,
        )
        self._last_obs[indices] = np.take_along_axis(
            wide, self._obs_columns[indices], axis=1
        )

    # -------------------------------------------------------------- stepping
    def _coerce_actions(self, actions) -> np.ndarray:
        if isinstance(actions, (list, tuple)) and actions and np.ndim(actions[0]) > 0:
            levels = np.zeros((self.n_envs, self.max_zones), dtype=int)
            if len(actions) != self.n_envs:
                raise ValueError(
                    f"need {self.n_envs} per-env actions, got {len(actions)}"
                )
            for k, a in enumerate(actions):
                a = np.asarray(a, dtype=int)
                m = int(self.n_zones[k])
                if a.shape != (m,):
                    raise ValueError(
                        f"env {k} expects {m} zone levels, got shape {a.shape}"
                    )
                levels[k, :m] = a
        else:
            levels = np.asarray(actions, dtype=int)
            if levels.ndim == 1 and self.max_zones == 1:
                levels = levels[:, None]
            if levels.shape != (self.n_envs, self.max_zones):
                raise ValueError(
                    f"actions must have shape ({self.n_envs}, {self.max_zones}), "
                    f"got {levels.shape}"
                )
            levels = np.where(self.zone_mask, levels, 0)
        if np.any(levels < 0) or np.any(levels >= self._n_levels[:, None]):
            raise ValueError("an action level is outside its env's valid range")
        return levels

    def step(self, actions) -> Tuple[np.ndarray, np.ndarray, np.ndarray, BatchStepInfo]:
        """Apply per-env, per-zone airflow levels for one control step.

        Returns ``(obs, rewards, dones, info)`` where ``obs`` is
        ``(n_envs, max_obs_dim)`` (rows right-padded with zeros for
        shorter layouts), ``rewards``/``dones`` are ``(n_envs,)``, and
        ``info`` is a :class:`BatchStepInfo` of stacked diagnostics.
        """
        if self._needs_reset:
            raise RuntimeError("call reset() before step()")
        levels = self._coerce_actions(actions)
        n = self.n_envs
        rows = np.arange(n)
        active = ~self._done
        i = self._idx
        tab = self._tables
        temp_out, ghi, price = tab.exo[rows, i].T
        occupied = tab.occupied[rows, i]
        gains = tab.gains[rows, i]
        day = tab.day[rows, i]
        hour = tab.hour[rows, i]
        net = self.batch_net
        decay, gain = net._propagators(self.dt_seconds)
        stepped, power_w, out = step_rows(
            self._cols, net, decay, gain, levels, self._temps,
            temp_out, ghi, price, occupied, gains, self.dt_seconds,
        )

        # Freeze finished envs (autoreset=False) and advance the rest.
        new_temps = np.where(active[:, None], stepped, self._temps)
        self._temps = new_temps
        self._idx = i + active.astype(int)
        self._steps_taken += active.astype(int)
        newly_done = active & (
            (self._steps_taken >= self._episode_steps) | (self._idx >= tab.last)
        )
        self._assemble_obs(rows[active])

        info = BatchStepInfo(
            energy_kwh=np.where(active, out.energy_kwh, 0.0),
            cost_usd=np.where(active, out.cost_usd, 0.0),
            power_w=np.where(active, power_w, 0.0),
            violation_deg_hours=np.where(active, out.violation_deg_hours, 0.0),
            violation_per_zone_deg=out.violations * active[:, None],
            reward_per_zone=out.reward_per_zone * active[:, None],
            temps_c=new_temps.copy(),
            temp_out_c=temp_out,
            ghi_w_m2=ghi,
            price_per_kwh=price,
            levels=levels.copy(),
            occupied=occupied & active[:, None],
            day_of_year=day,
            hour_of_day=hour,
            active=active.copy(),
        )

        if self.autoreset:
            if np.any(newly_done):
                info.terminal_obs = self._last_obs.copy()
                for k in rows[newly_done]:
                    self._reset_env(k)
                self._assemble_obs(rows[newly_done])
        else:
            self._done |= newly_done
        dones = newly_done | (~active)
        reward = np.where(active, out.reward, 0.0)
        return self._last_obs.copy(), reward, dones, info

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Serialize fleet dynamic state (and every member env's RNG
        streams) to a JSON-safe dict.

        Like the scalar env, configuration is not stored: restore into a
        ``VectorHVACEnv`` built over an identically constructed fleet.
        """
        from repro.nn.serialization import encode_array

        return {
            "n_envs": self.n_envs,
            "temps": encode_array(self._temps),
            "idx": encode_array(self._idx),
            "steps_taken": encode_array(self._steps_taken),
            "done": encode_array(self._done),
            "last_obs": encode_array(self._last_obs),
            "needs_reset": bool(self._needs_reset),
            "envs": [env.state_dict() for env in self.envs],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this fleet."""
        from repro.nn.serialization import decode_array

        if int(state["n_envs"]) != self.n_envs:
            raise ValueError(
                f"fleet size mismatch: have {self.n_envs} envs, "
                f"state has {state['n_envs']}"
            )
        for name, attr in (
            ("temps", "_temps"),
            ("idx", "_idx"),
            ("steps_taken", "_steps_taken"),
            ("done", "_done"),
            ("last_obs", "_last_obs"),
        ):
            value = decode_array(state[name])
            current = getattr(self, attr)
            if value.shape != current.shape:
                raise ValueError(
                    f"vector-env state {name} has shape {value.shape}, "
                    f"expected {current.shape}"
                )
            np.copyto(current, value)
        self._needs_reset = bool(state["needs_reset"])
        for env, env_state in zip(self.envs, state["envs"]):
            env.load_state_dict(env_state)

    def close(self) -> None:
        """Release resources (no-op; mirrors the scalar env surface)."""

    def __len__(self) -> int:
        return self.n_envs

    def __repr__(self) -> str:
        return (
            f"VectorHVACEnv(n_envs={self.n_envs}, max_zones={self.max_zones}, "
            f"autoreset={self.autoreset})"
        )
