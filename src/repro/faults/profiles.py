"""Named fault profiles: composable fault sets with a string registry.

A :class:`FaultProfile` pairs a name with a tuple of *template*
:class:`~repro.faults.base.FaultModel` instances.  ``build()`` deep-
copies the templates and binds them to a concrete fleet with per-env
fault RNG streams, so one registered profile can drive any number of
concurrent runs.  Presets cover the robustness families the campaign
grid sweeps: noisy/biased/stuck/dead sensors, jammed and degraded
actuators, broken forecasts, and occupancy surprises.

The reserved profile ``"none"`` is the clean baseline every robustness
comparison is measured against; it builds no injector at all, so the
no-fault path stays bit-identical to an unwrapped env.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.env.observation import ObsLayout
from repro.faults.base import FaultInjector, FaultModel, fault_stream
from repro.faults.models import (
    ActuatorFault,
    ForecastFault,
    OccupancyFault,
    SensorNoise,
    StuckSensor,
)

NO_FAULT = "none"


@dataclass(frozen=True)
class FaultProfile:
    """A named, composable set of fault-model templates."""

    name: str
    description: str = ""
    faults: Tuple[FaultModel, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fault profile needs a non-empty name")
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultModel):
                raise TypeError(
                    f"profile {self.name!r} holds a {type(fault).__name__}, "
                    "expected FaultModel instances"
                )

    @property
    def is_clean(self) -> bool:
        """Whether this profile injects nothing (the baseline)."""
        return not self.faults

    def build(
        self, layouts: Sequence[ObsLayout], seeds: Sequence[int]
    ) -> Optional[FaultInjector]:
        """An injector bound to a fleet (``None`` for a clean profile).

        ``seeds`` are the fleet's env seeds; each env's fault stream is
        derived from its seed, so env ``k`` faulted alone (scalar) and
        env ``k`` inside a batch draw identical fault randomness.
        """
        if self.is_clean:
            return None
        if len(layouts) != len(seeds):
            raise ValueError(
                f"need one seed per env: {len(layouts)} layouts, "
                f"{len(seeds)} seeds"
            )
        rngs = [fault_stream(int(seed)) for seed in seeds]
        return FaultInjector(self.faults, layouts, rngs)

    def describe_faults(self) -> List[str]:
        """One line per composed fault model."""
        return [fault.describe() for fault in self.faults]


# ---------------------------------------------------------------- registry
_REGISTRY: Dict[str, FaultProfile] = {}


def register_fault_profile(profile: FaultProfile, *, overwrite: bool = False) -> None:
    """Add a profile to the global registry (error on duplicates unless
    ``overwrite``)."""
    if profile.name in _REGISTRY and not overwrite:
        raise ValueError(f"fault profile {profile.name!r} already registered")
    _REGISTRY[profile.name] = profile


def get_fault_profile(name: str) -> FaultProfile:
    """Look up a registered fault profile by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; available: "
            f"{', '.join(list_fault_profiles())}"
        ) from None


def list_fault_profiles() -> List[str]:
    """Registered profile names, sorted, with ``"none"`` first."""
    names = sorted(_REGISTRY)
    if NO_FAULT in names:
        names.remove(NO_FAULT)
        names.insert(0, NO_FAULT)
    return names


def _register_presets() -> None:
    presets = [
        FaultProfile(NO_FAULT, "clean baseline — no faults injected"),
        FaultProfile(
            "noisy-sensors",
            "Gaussian noise on zone/outdoor temperature and irradiance sensing",
            (
                SensorNoise(
                    temp_std_c=0.5, out_std_c=1.0, ghi_rel_std=0.10
                ),
            ),
        ),
        FaultProfile(
            "biased-thermistor",
            "every zone thermistor reads 1.5°C hot (mis-calibration)",
            (SensorNoise(temp_bias_c=1.5),),
        ),
        FaultProfile(
            "stuck-thermistor",
            "zone-0 thermistor latches its reading from step 16 onward",
            (StuckSensor(zone=0, start_step=16, mode="hold"),),
        ),
        FaultProfile(
            "dead-thermistor",
            "zone-0 thermistor reads zero (dead channel) from step 16 onward",
            (StuckSensor(zone=0, start_step=16, mode="drop"),),
        ),
        FaultProfile(
            "stuck-damper",
            "zone-0 damper jams at minimum airflow from step 24 onward",
            (ActuatorFault(zone=0, mode="stuck", stuck_level=0, start_step=24),),
        ),
        FaultProfile(
            "degraded-capacity",
            "plant capacity degraded to 50% (compressor/fan derate)",
            (ActuatorFault(mode="degraded", capacity_factor=0.5),),
        ),
        FaultProfile(
            "bad-forecast",
            "forecast feed biased +3°C with 1°C extra noise",
            (ForecastFault(temp_bias_c=3.0, temp_std_c=1.0),),
        ),
        FaultProfile(
            "occupancy-surprise",
            "occupancy feed inverted from step 32 for 24 steps (6 hours)",
            (OccupancyFault(surprise_start=32, surprise_duration=24),),
        ),
        FaultProfile(
            "compound-degraded",
            "noisy sensors + 60% capacity + biased forecast, together",
            (
                SensorNoise(temp_std_c=0.3, out_std_c=0.5),
                ActuatorFault(mode="degraded", capacity_factor=0.6),
                ForecastFault(temp_bias_c=2.0),
            ),
        ),
    ]
    for profile in presets:
        register_fault_profile(profile, overwrite=True)


_register_presets()
