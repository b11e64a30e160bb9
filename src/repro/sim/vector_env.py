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

Parity: the scalar :class:`~repro.env.hvac_env.HVACEnv` *is* a one-row
fleet — its ``reset``/``step``/checkpoint drive a ``VectorHVACEnv([env],
autoreset=False)`` — so a fleet of N envs reproduces N scalar envs'
trajectories byte-identically exactly when a row's trajectory does not
depend on its fleet-mates.  Every random draw comes from the member
env's own generators, in env order: the reset draws (start day, then
initial temperatures) from ``env._rng`` and the forecast noise from
``env._forecast``.

Fleet state is structure-of-arrays: the static per-env kernel columns
(:func:`repro.env.kernel.step_columns`) and time tables built once at
construction, plus the dynamic state (zone temperatures, trace indices,
episode bounds, done flags), which the fleet alone owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.hvac_env import HVACEnv
from repro.env.kernel import Outcome, StepRows, step_columns, step_rows
from repro.env.observation import ObsLayout, encode, forecast, time_tables
from repro.sim.batch_thermal import BatchRCNetwork
from repro.utils.seeding import rng_state, set_rng_state


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
            "energy_kwh": self.energy_kwh.item(k),
            "cost_usd": self.cost_usd.item(k),
            "power_w": self.power_w.item(k),
            "violation_deg_hours": self.violation_deg_hours.item(k),
            "violation_per_zone_deg": self.violation_per_zone_deg[k, :m].copy(),
            "reward_per_zone": self.reward_per_zone[k, :m].copy(),
            "temps_c": self.temps_c[k, :m].copy(),
            "temp_out_c": self.temp_out_c.item(k),
            "ghi_w_m2": self.ghi_w_m2.item(k),
            "price_per_kwh": self.price_per_kwh.item(k),
            "levels": self.levels[k, :m].copy(),
            "occupied": self.occupied[k, :m].copy(),
            "day_of_year": self.day_of_year.item(k),
            "hour_of_day": self.hour_of_day.item(k),
        }


#: What an env view refuses, and the fleet call to make instead: on the
#: member env these act on its own one-row fleet, not on its fleet row.
_FLEET_ONLY = {
    "reset": "fleet.reset()",
    "step": "fleet.step()",
    "state_dict": "fleet.state_dict()",
    "load_state_dict": "fleet.load_state_dict()",
    "_fleet": "fleet",
    "_tables": "fleet._tables",
    "_cols": "fleet._cols",
    "_step_rows": "fleet._step_rows()",
}


class _EnvView:
    """A live single-env window into the fleet.

    Presents the scalar-env surface that state-reading controllers
    (thermostat, PID) need — ``zone_temps_c`` and ``time_index`` track the
    **batch** state, everything else delegates to the underlying scalar
    env's static attributes.  The stateful surface (``reset``, ``step``,
    checkpoints, the member's own one-row fleet and its tables) raises
    :class:`AttributeError` naming the fleet call to use instead.
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
        if name in _FLEET_ONLY:
            raise AttributeError(
                f"an env view has no {name!r}: on the member env it would act "
                f"on that env's own one-row fleet, not on fleet row {self._k}; "
                f"use the fleet that made the view ({_FLEET_ONLY[name]})"
            )
        return getattr(self._env, name)


class VectorHVACEnv:
    """Batched ``reset``/``step`` over a fleet of scalar HVAC environments.

    Parameters
    ----------
    envs:
        The scalar environments to batch.  They remain the owners of all
        configuration and randomness; the vector env precomputes their
        time-varying inputs into tables, owns their episode state and
        advances it as stacked arrays.  All envs must share one
        control-step length.
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
        self.n_levels = np.array([env.vav.n_levels for env in self.envs])
        self._level_limit = self.n_levels[:, None].astype(np.uint64)
        self._padded = not self.zone_mask.all()
        self._rows = np.arange(n)
        # What each reset draws from: the env's generator, the last start
        # day it may draw (0 when it does not randomize), steps per day,
        # the occupied band's midpoint, the initial-temperature half-width
        # and the zone count.
        self._reset_draws = [
            (
                env._rng,
                int(len(env.weather) / env.steps_per_day - env.config.episode_days)
                if env.config.randomize_start_day else 0,
                env.steps_per_day,
                0.5 * (env.comfort.occupied_low_c + env.comfort.occupied_high_c),
                env.config.initial_temp_noise_c,
                env.building.n_zones,
            )
            for env in self.envs
        ]

        tab = self._tables = time_tables(self.envs)
        # Flat ``(n * T, ...)`` views of the tables: row k's sample i sits
        # at ``_row_start[k] + i``, so a step gathers with one index array
        # (``take`` along axis 0 is the fastest gather for small fleets).
        self._row_start = self._rows * tab.day.shape[1]
        self._last_at = self._row_start + tab.last
        self._flat_exo = tab.exo.reshape(-1, 3)
        self._flat_clock = tab.clock.reshape(-1, 3)
        self._flat_occupied = tab.occupied.reshape(-1, z)
        self._flat_gains = tab.gains.reshape(-1, z)
        self._flat_day = tab.day.reshape(-1)
        self._flat_hour = tab.hour.reshape(-1)
        self._build_obs_columns()

        # ------------------------------------------------------ dynamic state
        # Before the first reset every zone sits mid-band (padding at 0).
        mid = [draw[3] for draw in self._reset_draws]
        self._temps = np.where(self.zone_mask, np.array(mid)[:, None], 0.0)
        # Each row's trace index, and the indices its episode started at
        # and ends at (``episode_steps`` later, or the trace's last sample).
        self._idx = np.zeros(n, dtype=int)
        self._start = np.zeros(n, dtype=int)
        self._end = np.minimum(self._episode_steps, tab.last)
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
        wide = self._wide = ObsLayout(self.max_zones, h_max, int(self.n_levels.max()))
        self.obs_dims = np.array([lay.obs_dim for lay in layouts], dtype=int)
        self.max_obs_dim = int(self.obs_dims.max())
        self._obs_columns = np.full((n, self.max_obs_dim), wide.obs_dim)
        columns = {lay: lay.columns_in(wide) for lay in set(layouts)}
        # Every row in the wide layout itself: the mapping is a slice.
        self._obs_identity = set(layouts) == {wide}
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
    def zone_temps_c(self) -> np.ndarray:
        """Current zone temperatures, ``(n_envs, max_zones)`` (copy)."""
        return self._temps.copy()

    #: Zone temperatures as the buildings' own sensors read them: the
    #: physical ones here (a faulted fleet reads its faulted sensors).
    sensed_zone_temps_c = zone_temps_c

    @property
    def time_indices(self) -> np.ndarray:
        """Current per-env weather-trace indices (copy)."""
        return self._idx.copy()

    @property
    def _steps_taken(self) -> np.ndarray:
        """Steps each row has taken this episode."""
        return self._idx - self._start

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
        self._reset_rows(self._rows)
        self._done[:] = False
        self._needs_reset = False
        self._assemble_obs()
        return self._last_obs.copy()

    def _reset_rows(self, rows: np.ndarray) -> None:
        """Start a new episode in each of ``rows``, in env order: each env's
        generator draws the start day (when it randomizes it), then the
        initial zone temperatures."""
        starts = []
        for k in rows.tolist():
            rng, max_start_day, steps_per_day, mid, noise, m = self._reset_draws[k]
            start_day = int(rng.integers(0, max_start_day + 1)) if max_start_day > 0 else 0
            starts.append(start_day * steps_per_day)
            self._temps[k, :m] = mid + rng.uniform(-noise, noise, size=m)
            self._temps[k, m:] = 0.0
        self._place(rows, starts, 0)

    def _place(self, rows, index, steps_taken) -> None:
        """Put ``rows`` at trace ``index``, ``steps_taken`` into episodes."""
        self._idx[rows] = index
        start = self._start[rows] = np.asarray(index) - steps_taken
        self._end[rows] = np.minimum(
            start + self._episode_steps[rows], self._tables.last[rows]
        )

    def _assemble_obs(self, rows: Optional[np.ndarray] = None) -> None:
        """Recompute the observation of ``rows`` (default: every row) into
        ``_last_obs``."""
        pick = slice(None) if rows is None else rows
        ks = self._rows[pick].tolist()
        if not ks:
            return
        at = self._row_start[pick] + self._idx[pick]
        # The one irreducible per-env loop: the raw normal draws must come
        # from each env's own forecast generator, in env order.
        noise = np.zeros((len(ks), 2 * self._wide.horizon))
        for p, k in enumerate(ks):
            provider = self._forecasters[k]
            if provider is not None:
                noise[p, : 2 * provider.horizon] = provider.draw_noise()
        f_temp, f_ghi = forecast(
            self._flat_exo, at, self._last_at[pick], self._f_scales[pick], noise
        )
        wide = encode(
            self._wide, self._flat_clock.take(at, 0), self._flat_occupied.take(at, 0),
            self._temps[pick], self._flat_exo.take(at, 0), f_temp, f_ghi, pad=1,
        )
        if self._obs_identity:
            self._last_obs[pick] = wide[:, : self.max_obs_dim]
        else:
            self._last_obs[pick] = np.take_along_axis(
                wide, self._obs_columns[pick], axis=1
            )

    # -------------------------------------------------------------- stepping
    def _coerce_actions(self, actions) -> np.ndarray:
        """``actions`` as a new, range-checked ``(n_envs, max_zones)`` int64
        matrix with padded zones at 0."""
        if isinstance(actions, (list, tuple)) and actions and np.ndim(actions[0]) > 0:
            levels = np.zeros((self.n_envs, self.max_zones), dtype=np.int64)
            if len(actions) != self.n_envs:
                raise ValueError(
                    f"need {self.n_envs} per-env actions, got {len(actions)}"
                )
            for k, a in enumerate(actions):
                a = np.asarray(a, dtype=np.int64)
                m = int(self.n_zones[k])
                if a.shape != (m,):
                    raise ValueError(
                        f"env {k} expects {m} zone levels, got shape {a.shape}"
                    )
                levels[k, :m] = a
        else:
            levels = np.array(actions, dtype=np.int64)
            if levels.ndim == 1 and self.max_zones == 1:
                levels = levels[:, None]
            if levels.shape != (self.n_envs, self.max_zones):
                raise ValueError(
                    f"actions must have shape ({self.n_envs}, {self.max_zones}), "
                    f"got {levels.shape}"
                )
            if self._padded:
                levels *= self.zone_mask
        # Viewed unsigned, a negative level is huge: one test checks both bounds.
        if np.count_nonzero(levels.view(np.uint64) >= self._level_limit):
            raise ValueError("an action level is not in its env's valid range")
        return levels

    def _step_rows(self, levels: np.ndarray) -> Tuple[StepRows, tuple]:
        """The kernel's step of ``levels`` from the current state, and its
        inputs ``(at, temp_out, ghi, price, occupied)`` (``at``: flat table
        indices).  Nothing moves; a one-row fleet scores any number of
        candidate ``levels`` rows at once (the lookahead oracle)."""
        at = self._row_start + self._idx
        temp_out, ghi, price = self._flat_exo.take(at, 0).T
        occupied = self._flat_occupied.take(at, 0)
        net = self.batch_net
        decay, gain = net._propagators(self.dt_seconds)
        rows = step_rows(
            self._cols, net, decay, gain, levels, self._temps,
            temp_out, ghi, price, occupied, self._flat_gains.take(at, 0), self.dt_seconds,
        )
        return rows, (at, temp_out, ghi, price, occupied)

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
        (new_temps, power_w, out), (at, temp_out, ghi, price, occupied) = (
            self._step_rows(levels)
        )
        active = ~self._done
        moving = None  # every row
        frozen = np.count_nonzero(self._done)
        if frozen:
            # Freeze finished envs (autoreset=False): they keep their
            # state and report zeros.
            moving = self._rows[active]
            col = active[:, None]
            new_temps = np.where(col, new_temps, self._temps)
            power_w = np.where(active, power_w, 0.0)
            occupied = occupied & col
            out = Outcome(
                energy_kwh=np.where(active, out.energy_kwh, 0.0),
                cost_usd=np.where(active, out.cost_usd, 0.0),
                violations=out.violations * col,
                violation_deg_hours=np.where(active, out.violation_deg_hours, 0.0),
                reward=np.where(active, out.reward, 0.0),
                reward_per_zone=out.reward_per_zone * col,
            )
        self._temps = new_temps
        self._idx += active
        newly_done = self._idx >= self._end
        if frozen:
            newly_done &= active
        self._assemble_obs(moving)

        info = BatchStepInfo(
            energy_kwh=out.energy_kwh,
            cost_usd=out.cost_usd,
            power_w=power_w,
            violation_deg_hours=out.violation_deg_hours,
            violation_per_zone_deg=out.violations,
            reward_per_zone=out.reward_per_zone,
            temps_c=new_temps.copy(),
            temp_out_c=temp_out,
            ghi_w_m2=ghi,
            price_per_kwh=price,
            levels=levels,
            occupied=occupied,
            day_of_year=self._flat_day[at],
            hour_of_day=self._flat_hour[at],
            active=active,
        )

        if self.autoreset:
            if np.count_nonzero(newly_done):
                info.terminal_obs = self._last_obs.copy()
                finished = self._rows[newly_done]
                self._reset_rows(finished)
                self._assemble_obs(finished)
        else:
            self._done |= newly_done
        dones = newly_done | ~active if frozen else newly_done
        return self._last_obs.copy(), out.reward, dones, info

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Serialize fleet dynamic state and every member env's RNG
        streams to a JSON-safe dict.

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
            "envs": [
                {"rng": rng_state(env._rng), "forecast_rng": rng_state(env._forecast._rng)}
                for env in self.envs
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this fleet.

        Snapshots that also hold each member's scalar episode state (the
        layout before the fleet owned it) load too; only their RNG
        streams are read.
        """
        from repro.nn.serialization import decode_array

        if int(state["n_envs"]) != self.n_envs:
            raise ValueError(
                f"fleet size mismatch: have {self.n_envs} envs, "
                f"state has {state['n_envs']}"
            )
        arrays = {}
        for name, current in (
            ("temps", self._temps),
            ("idx", self._idx),
            ("steps_taken", self._idx),
            ("done", self._done),
            ("last_obs", self._last_obs),
        ):
            arrays[name] = decode_array(state[name])
            if arrays[name].shape != current.shape:
                raise ValueError(
                    f"vector-env state {name} has shape {arrays[name].shape}, "
                    f"expected {current.shape}"
                )
        np.copyto(self._temps, arrays["temps"])
        np.copyto(self._done, arrays["done"])
        np.copyto(self._last_obs, arrays["last_obs"])
        self._place(self._rows, arrays["idx"], arrays["steps_taken"])
        self._needs_reset = bool(state["needs_reset"])
        for env, env_state in zip(self.envs, state["envs"]):
            set_rng_state(env._rng, env_state["rng"])
            set_rng_state(env._forecast._rng, env_state["forecast_rng"])

    def close(self) -> None:
        """Release resources (no-op; mirrors the scalar env surface)."""

    def __len__(self) -> int:
        return self.n_envs

    def __repr__(self) -> str:
        return (
            f"VectorHVACEnv(n_envs={self.n_envs}, max_zones={self.max_zones}, "
            f"autoreset={self.autoreset})"
        )
