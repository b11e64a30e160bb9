"""Vectorized fleet simulation: N HVAC environments stepped as one batch.

:class:`VectorHVACEnv` advances N independent buildings — possibly with
different climates, tariffs, schedules, comfort bands, and zone counts —
in a single array program per control step.  The per-env work that the
scalar :class:`~repro.env.hvac_env.HVACEnv` does in Python (occupancy
lookups, tariff pricing) is precomputed into time-indexed tables at
construction, and the step arithmetic runs once for the whole fleet
through the control-step kernel (:mod:`repro.env.kernel`), so aggregate
throughput scales far better than stepping N scalar envs sequentially
(see ``benchmarks/perf_vector_sim.py``).

Heterogeneity is handled by padding: zone-indexed arrays are padded to
the widest building and masked, observation rows are padded to the
longest observation vector.  Environments are grouped by observation
signature ``(n_zones, forecast_horizon)`` so row assembly stays
vectorized per group.

Parity: a fleet of N identical configs reproduces N independent scalar
envs' trajectories byte-identically, including RNG consumption — the
vector env drives each scalar env's own generators for resets and
forecast noise, and both step through the same kernel
(:func:`repro.env.kernel.step_rows`), the fleet with one row per env and
the scalar env with a single row.

Fleet state is structure-of-arrays: the static per-env kernel columns
(:func:`repro.env.kernel.step_columns`) built once at construction, plus
the time tables and the dynamic state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.hvac_env import (
    _GHI_SCALE,
    _OUT_CENTER_C,
    _OUT_SCALE_C,
    _PRICE_SCALE,
    _TEMP_CENTER_C,
    _TEMP_SCALE_C,
    HVACEnv,
)
from repro.env.kernel import step_columns, step_rows
from repro.sim.batch_thermal import BatchRCNetwork
from repro.weather.series import SECONDS_PER_DAY, SECONDS_PER_HOUR


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


@dataclass(frozen=True)
class _ObsGroup:
    """Envs sharing one observation layout ``(n_zones, horizon)``."""

    indices: np.ndarray
    n_zones: int
    horizon: int


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


def _price_row(tariff, days: List[int], hours: List[float]) -> np.ndarray:
    """A tariff's $/kWh at every ``(day, hour)`` sample of a trace clock."""
    return np.array(
        [tariff.price_per_kwh(d, h) for d, h in zip(days, hours)], dtype=float
    )


def _schedule_rows(
    sched, days: List[int], hours: List[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """A schedule's occupancy flags and gains (W/m²) at every sample."""
    occupied = [sched.occupied(d, h) for d, h in zip(days, hours)]
    gains = [sched.gains_w_per_m2(d, h) for d, h in zip(days, hours)]
    return np.array(occupied, dtype=bool), np.array(gains, dtype=float)


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
        self._trace_len = np.array([len(env.weather) for env in self.envs])
        self._n_levels = np.array([env.vav.n_levels for env in self.envs])

        self._build_time_tables()
        self._build_obs_groups()
        self._build_forecast_columns()

        # ------------------------------------------------------ dynamic state
        self._temps = np.zeros((n, z))
        self._idx = np.zeros(n, dtype=int)
        self._steps_taken = np.zeros(n, dtype=int)
        self._done = np.zeros(n, dtype=bool)
        self._last_obs = np.zeros((n, self.max_obs_dim))
        self._needs_reset = True

    # --------------------------------------------------------------- tables
    def _build_time_tables(self) -> None:
        """Precompute every time-indexed input as ``(n_envs, T)`` tables.

        A tariff's price row and a schedule's occupancy/gains rows depend
        only on the component and the trace clock ``(start_day, T, dt)``,
        so each distinct row is built once per construction — keyed on the
        (frozen, value-hashable) component and its clock — and copied to
        every env that uses it.  Fleets of similar buildings thus pay the
        per-sample Python cost once per shared clock.  An unhashable
        custom component gets its rows built for its own env.
        """
        n = self.n_envs
        t_max = int(self._trace_len.max())
        z = self.max_zones
        self._temp_out = np.zeros((n, t_max))
        self._ghi = np.zeros((n, t_max))
        self._price = np.zeros((n, t_max))
        self._occupied = np.zeros((n, t_max, z), dtype=bool)
        self._gains = np.zeros((n, t_max, z))
        self._sin_hour = np.zeros((n, t_max))
        self._cos_hour = np.zeros((n, t_max))
        self._workday = np.zeros((n, t_max))
        self._day = np.zeros((n, t_max), dtype=int)
        self._hour = np.zeros((n, t_max))

        rows: Dict[tuple, object] = {}

        def component_rows(component, sample_rows, clock, days, hours):
            try:
                return rows[(component, clock)]
            except TypeError:  # unhashable custom component: no memoization
                return sample_rows(component, days.tolist(), hours.tolist())
            except KeyError:
                built = sample_rows(component, days.tolist(), hours.tolist())
                rows[(component, clock)] = built
                return built

        for k, env in enumerate(self.envs):
            t = len(env.weather)
            dt = env.weather.dt_seconds
            seconds = np.arange(t) * dt
            hours = (seconds % SECONDS_PER_DAY) / SECONDS_PER_HOUR
            days = (
                (env.weather.start_day_of_year - 1 + (seconds // SECONDS_PER_DAY).astype(int))
                % 365
            ) + 1
            self._hour[k, :t] = hours
            self._day[k, :t] = days
            self._sin_hour[k, :t] = np.sin(2.0 * np.pi * hours / 24.0)
            self._cos_hour[k, :t] = np.cos(2.0 * np.pi * hours / 24.0)
            self._workday[k, :t] = np.where((days - 1) % 7 >= 5, 0.0, 1.0)
            self._temp_out[k, :t] = env.weather.temp_out_c
            self._ghi[k, :t] = env.weather.ghi_w_m2
            # Pad past the trace end with the last sample so gathers at a
            # frozen terminal index stay in range; `done` fires before any
            # padded value can influence an active env.
            if t < t_max:
                self._temp_out[k, t:] = env.weather.temp_out_c[-1]
                self._ghi[k, t:] = env.weather.ghi_w_m2[-1]
                self._hour[k, t:] = hours[-1]
                self._day[k, t:] = days[-1]

            clock = (env.weather.start_day_of_year, t, dt)
            self._price[k, :t] = component_rows(
                env.tariff, _price_row, clock, days, hours
            )
            for j, (zone, sched) in enumerate(
                zip(env.building.zones, env.building.schedules)
            ):
                occupied, gains = component_rows(
                    sched, _schedule_rows, clock, days, hours
                )
                self._occupied[k, :t, j] = occupied
                self._gains[k, :t, j] = gains * zone.floor_area_m2

    def _build_obs_groups(self) -> None:
        signatures: Dict[Tuple[int, int], List[int]] = {}
        for k, env in enumerate(self.envs):
            sig = (env.building.n_zones, env.config.forecast_horizon)
            signatures.setdefault(sig, []).append(k)
        self._groups = [
            _ObsGroup(indices=np.asarray(idx, dtype=int), n_zones=zones, horizon=horizon)
            for (zones, horizon), idx in sorted(signatures.items())
        ]
        self.obs_dims = np.array(
            [env.obs_dim for env in self.envs], dtype=int
        )
        self.max_obs_dim = int(self.obs_dims.max())
        self.max_horizon = max(env.config.forecast_horizon for env in self.envs)

    def _build_forecast_columns(self) -> None:
        """Columnar per-lead noise scales so forecast math batches.

        Each member env owns a :class:`~repro.weather.forecast.ForecastProvider`
        with per-lead noise stds; copying those scales into ``(n_envs,
        max_horizon)`` columns lets :meth:`_assemble_obs` do the forecast
        arithmetic for a whole observation group at once.  Only the raw
        standard-normal draws stay per-env (they must consume each env's
        own forecast generator, exactly as a scalar env would).
        """
        n, h_max = self.n_envs, self.max_horizon
        self._horizons = np.array(
            [env.config.forecast_horizon for env in self.envs], dtype=int
        )
        self._f_temp_scales = np.zeros((n, max(h_max, 1)))
        self._f_ghi_scales = np.zeros((n, max(h_max, 1)))
        for k, env in enumerate(self.envs):
            h = env.config.forecast_horizon
            if h > 0:
                self._f_temp_scales[k, :h] = env._forecast._temp_scales
                self._f_ghi_scales[k, :h] = env._forecast._ghi_scales
        self._f_leads = np.arange(1, h_max + 1)

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
        i = self._idx[indices]
        sin_h = self._sin_hour[indices, i]
        cos_h = self._cos_hour[indices, i]
        workday = self._workday[indices, i]
        occupied = self._occupied[indices, i].astype(np.float64)
        temps_scaled = (self._temps[indices] - _TEMP_CENTER_C) / _TEMP_SCALE_C
        tout_scaled = (self._temp_out[indices, i] - _OUT_CENTER_C) / _OUT_SCALE_C
        ghi_scaled = self._ghi[indices, i] / _GHI_SCALE
        price_scaled = self._price[indices, i] / _PRICE_SCALE

        noise = None
        if self.max_horizon > 0:
            # The one irreducible per-env loop: the raw normal draws must
            # come from each env's own forecast generator, in env order,
            # exactly as the scalar envs would consume them.  All forecast
            # *arithmetic* happens columnarly per group below.
            noise = np.zeros((self.n_envs, 2 * self.max_horizon))
            for k in indices:
                if self._horizons[k] > 0:
                    h = self._horizons[k]
                    noise[k, : 2 * h] = self.envs[k]._forecast.draw_noise()

        member = np.zeros(self.n_envs, dtype=bool)
        member[indices] = True
        pos = np.full(self.n_envs, -1, dtype=int)
        pos[indices] = np.arange(indices.size)
        obs = self._last_obs
        for group in self._groups:
            sel = group.indices[member[group.indices]]
            if sel.size == 0:
                continue
            p = pos[sel]
            zc, h = group.n_zones, group.horizon
            obs[sel, 0] = sin_h[p]
            obs[sel, 1] = cos_h[p]
            obs[sel, 2] = workday[p]
            obs[sel, 3 : 3 + zc] = occupied[np.ix_(p, range(zc))]
            obs[sel, 3 + zc : 3 + 2 * zc] = temps_scaled[np.ix_(p, range(zc))]
            col = 3 + 2 * zc
            obs[sel, col] = tout_scaled[p]
            obs[sel, col + 1] = ghi_scaled[p]
            obs[sel, col + 2] = price_scaled[p]
            if h > 0:
                # Forecast base values come from the fleet weather tables
                # (bit-equal to each provider's series); leads past the
                # trace end persist the last sample, as the scalar
                # provider does.
                j = np.minimum(
                    self._idx[sel][:, None] + self._f_leads[:h][None, :],
                    (self._trace_len[sel] - 1)[:, None],
                )
                f_temp = self._temp_out[sel[:, None], j] + (
                    0.0 + self._f_temp_scales[sel, :h] * noise[sel, 0 : 2 * h : 2]
                )
                f_ghi = np.maximum(
                    self._ghi[sel[:, None], j]
                    * (1.0 + (0.0 + self._f_ghi_scales[sel, :h] * noise[sel, 1 : 2 * h : 2])),
                    0.0,
                )
                obs[sel, col + 3 : col + 3 + h] = (
                    f_temp - _OUT_CENTER_C
                ) / _OUT_SCALE_C
                obs[sel, col + 3 + h : col + 3 + 2 * h] = f_ghi / _GHI_SCALE

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
        temp_out = self._temp_out[rows, i]
        ghi = self._ghi[rows, i]
        price = self._price[rows, i]
        occupied = self._occupied[rows, i]
        gains = self._gains[rows, i]
        day = self._day[rows, i]
        hour = self._hour[rows, i]
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
            (self._steps_taken >= self._episode_steps)
            | (self._idx >= self._trace_len - 1)
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
