"""Declarative scenario registry for fleet simulation campaigns.

A :class:`Scenario` is a frozen, picklable description of one simulated
world — building, climate, tariff, comfort band, episode shape — that can
``build()`` a fully wired :class:`~repro.env.hvac_env.HVACEnv` from a
seed.  Named presets (heat wave, mild winter, demand-response event,
flat-vs-TOU tariffs, 1–5 zone buildings) live in a registry so campaigns
can be specified as plain strings on the command line.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.building.building import Building
from repro.building.presets import (
    four_zone_office,
    five_zone_perimeter_core,
    single_zone_building,
)
from repro.env.comfort import ComfortBand
from repro.env.hvac_env import HVACEnv, HVACEnvConfig
from repro.hvac.tariffs import (
    DemandResponseTariff,
    FlatTariff,
    Tariff,
    TimeOfUseTariff,
)
from repro.utils.validation import check_positive
from repro.weather.events import inject_heat_wave
from repro.weather.series import WeatherSeries
from repro.weather.synthetic import (
    SyntheticWeatherConfig,
    generate_weather,
    mild_config,
    summer_config,
)

_BUILDINGS: Dict[str, Callable[[], Building]] = {
    "single_zone": single_zone_building,
    "four_zone": four_zone_office,
    "five_zone": five_zone_perimeter_core,
}

_CLIMATES: Dict[str, Callable[[], SyntheticWeatherConfig]] = {
    "summer": summer_config,
    "mild": mild_config,
}

_TARIFFS = ("flat", "tou", "dr")


@dataclass(frozen=True)
class Scenario:
    """One named simulated world, buildable into an env from a seed.

    Attributes
    ----------
    building / climate / tariff:
        Registry keys: buildings ``single_zone | four_zone | five_zone``,
        climates ``summer | mild``, tariffs ``flat | tou | dr``.
    start_day_of_year / weather_days:
        The weather trace window (day 213 ≈ August 1st).
    episode_days / comfort_weight / forecast_horizon / randomize_start_day:
        Passed through to :class:`HVACEnvConfig`.
    comfort_low_c / comfort_high_c:
        The occupied comfort band.
    heat_wave:
        When True a multi-day anomaly is superimposed on the trace
        (amplitude/start/duration via the ``heat_wave_*`` fields).
    dr_event_days:
        Absolute days-of-year of demand-response events (``tariff="dr"``);
        empty selects two weekdays early in the trace.
    """

    name: str
    description: str = ""
    building: str = "single_zone"
    climate: str = "summer"
    tariff: str = "tou"
    start_day_of_year: int = 213
    weather_days: float = 8.0
    episode_days: float = 1.0
    comfort_weight: float = 4.0
    forecast_horizon: int = 3
    randomize_start_day: bool = False
    comfort_low_c: float = 22.0
    comfort_high_c: float = 26.0
    heat_wave: bool = False
    heat_wave_start_day: int = 0
    heat_wave_days: float = 3.0
    heat_wave_amplitude_c: float = 6.0
    dr_event_days: Tuple[int, ...] = ()
    dr_event_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.building not in _BUILDINGS:
            raise ValueError(
                f"unknown building {self.building!r}; choose from {sorted(_BUILDINGS)}"
            )
        if self.climate not in _CLIMATES:
            raise ValueError(
                f"unknown climate {self.climate!r}; choose from {sorted(_CLIMATES)}"
            )
        if self.tariff not in _TARIFFS:
            raise ValueError(
                f"unknown tariff {self.tariff!r}; choose from {sorted(_TARIFFS)}"
            )
        check_positive("weather_days", self.weather_days)
        check_positive("episode_days", self.episode_days)
        if self.comfort_high_c <= self.comfort_low_c:
            raise ValueError("comfort_high_c must exceed comfort_low_c")
        object.__setattr__(
            self, "dr_event_days", tuple(int(d) for d in self.dr_event_days)
        )

    # ------------------------------------------------------------- building
    def _make_tariff(self) -> Tariff:
        if self.tariff == "flat":
            return FlatTariff()
        if self.tariff == "tou":
            return TimeOfUseTariff()
        event_days = self.dr_event_days
        if not event_days:
            # Default: the first two weekdays of the trace — starting at
            # day 0 so the event intersects even a single-day episode —
            # wrapping the day-of-year like the weather clock does so
            # scenarios starting near day 365 still see their events.
            candidates = (
                (self.start_day_of_year - 1 + offset) % 365 + 1
                for offset in range(0, 7)
            )
            event_days = tuple(d for d in candidates if (d - 1) % 7 < 5)[:2]
        return DemandResponseTariff(
            event_days=frozenset(event_days),
            event_multiplier=self.dr_event_multiplier,
        )

    def _weather(self, climate: SyntheticWeatherConfig, seed: int) -> WeatherSeries:
        """The weather trace of ``seed`` (a deterministic function of the
        scenario and the seed), drawn through the module's
        ``generate_weather``."""
        weather = generate_weather(
            climate,
            start_day_of_year=self.start_day_of_year,
            n_days=self.weather_days,
            rng=seed + 1,
        )
        if self.heat_wave:
            weather = inject_heat_wave(
                weather,
                start_day=self.heat_wave_start_day,
                n_days=self.heat_wave_days,
                peak_amplitude_c=self.heat_wave_amplitude_c,
                latitude_deg=climate.latitude_deg,
            )
        return weather

    def build(self, seed: int = 0) -> HVACEnv:
        """Instantiate the scenario as a scalar env, deterministic in ``seed``
        (the one-seed case of :func:`build_fleet`)."""
        return build_fleet(self, [seed])[0]

    def with_overrides(self, **changes) -> "Scenario":
        """A copy of the scenario with fields replaced."""
        return replace(self, **changes)


# ---------------------------------------------------------------- registry
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> None:
    """Add a scenario to the global registry (error on duplicates unless
    ``overwrite``)."""
    if scenario.name in _REGISTRY and not overwrite:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(list_scenarios())}"
        ) from None


def list_scenarios() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def _register_presets() -> None:
    presets = [
        Scenario(
            name="baseline-tou",
            description="single-zone office, hot summer, time-of-use tariff",
        ),
        Scenario(
            name="flat-tariff",
            description="baseline building under a flat tariff (no price signal)",
            tariff="flat",
        ),
        Scenario(
            name="heat-wave",
            description="baseline building through a 3-day +6C heat wave",
            heat_wave=True,
        ),
        Scenario(
            name="mild-winter",
            description="mild climate in mid-January (low cooling load)",
            climate="mild",
            start_day_of_year=10,
        ),
        Scenario(
            name="dr-event",
            description="TOU tariff with 4x demand-response event pricing",
            tariff="dr",
        ),
        Scenario(
            name="four-zone-office",
            description="four perimeter quadrants with interzone coupling",
            building="four_zone",
        ),
        Scenario(
            name="five-zone-office",
            description="perimeter-plus-core office (hardest coordination)",
            building="five_zone",
        ),
        Scenario(
            name="relaxed-comfort",
            description="baseline with a wide 21-27C occupied band",
            comfort_low_c=21.0,
            comfort_high_c=27.0,
        ),
    ]
    for scenario in presets:
        register_scenario(scenario, overwrite=True)


_register_presets()


#: The open run's weather series by (scenario, seed) (see
#: :func:`run_weather`); ``None`` outside a run.
_RUN_WEATHER: ContextVar[Optional[Dict[Tuple[Scenario, int], WeatherSeries]]] = (
    ContextVar("run_weather", default=None)
)


@contextmanager
def run_weather() -> Iterator[None]:
    """Share weather series between the :func:`build_fleet` calls in this
    block.

    A series is a deterministic function of (scenario, seed) and nothing
    writes to it, so a run that builds a scenario's fleet once per cell
    generates each seed's weather once, whatever order its cells run in.
    The memo keeps every series the block built (12 KB of arrays per
    8-day series, so ~1.2 MB for the 96 of perfbench's campaign-cold)
    and closes with the block, also when the block raises; nothing is
    shared across runs.
    """
    token = _RUN_WEATHER.set({})
    try:
        yield
    finally:
        _RUN_WEATHER.reset(token)


def build_fleet(
    scenario: Scenario | str, seeds: Iterable[int]
) -> List[HVACEnv]:
    """Build one env per seed for a scenario (or registered name).

    The seed-independent world — climate, building (with its RC network),
    tariff, comfort band and env config — is built once per call and
    shared by every env; each seed gets its own weather trace and a fresh
    env seeded by it.  Inside :func:`run_weather` a seed's weather comes
    from the run's memo when an earlier call built it.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    memo = _RUN_WEATHER.get()
    if memo is None:
        memo = {}

    climate = _CLIMATES[scenario.climate]()
    building = _BUILDINGS[scenario.building]()
    tariff = scenario._make_tariff()
    comfort = ComfortBand(
        occupied_low_c=scenario.comfort_low_c,
        occupied_high_c=scenario.comfort_high_c,
    )
    config = HVACEnvConfig(
        episode_days=scenario.episode_days,
        comfort_weight=scenario.comfort_weight,
        forecast_horizon=scenario.forecast_horizon,
        randomize_start_day=scenario.randomize_start_day,
    )
    envs = []
    for seed in seeds:
        weather = memo.get((scenario, seed))
        if weather is None:
            weather = memo[scenario, seed] = scenario._weather(climate, seed)
        envs.append(
            HVACEnv(
                building,
                weather,
                tariff=tariff,
                comfort=comfort,
                config=config,
                rng=seed,
            )
        )
    return envs


# --------------------------------------------------------- fault presets
# Importing the faults package registers its preset profiles; re-export
# the registry here so campaigns resolve scenarios and faults through
# one module.  (The import sits at the bottom because the fault wrappers
# import repro.sim.vector_env.)
from repro.faults.profiles import (  # noqa: E402
    NO_FAULT,
    FaultProfile,
    get_fault_profile,
    list_fault_profiles,
    register_fault_profile,
)


def build_faulted_env(
    scenario: Scenario | str, fault: str | FaultProfile, seed: int = 0
):
    """One scalar env for a scenario with a fault profile applied.

    The fault stream is seeded by the env's build seed, so this env is
    bit-identical to the corresponding member of a faulted fleet.
    """
    from repro.faults.wrappers import FaultyHVACEnv

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return FaultyHVACEnv(scenario.build(int(seed)), fault, seed=int(seed))
