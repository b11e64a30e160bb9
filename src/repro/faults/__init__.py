"""Fault injection for robustness campaigns.

A controller that only ever sees a healthy building is an untested
controller.  This package perturbs the sensing/actuation boundary of the
HVAC MDP — noisy, biased, stuck, or dead sensors; jammed dampers and
derated plant capacity; broken forecast feeds; occupancy surprises —
while the building dynamics stay truthful, so the comfort and energy
metrics always describe what physically happened under the fault.

* :class:`~repro.faults.base.FaultModel` — the composable unit: a
  seedable, checkpointable perturbation with action/observation hooks.
* :mod:`~repro.faults.models` — the concrete taxonomy (``SensorNoise``,
  ``StuckSensor``, ``ActuatorFault``, ``ForecastFault``,
  ``OccupancyFault``).
* :class:`~repro.faults.profiles.FaultProfile` — named fault sets with a
  string registry (``noisy-sensors``, ``stuck-damper``, …) so campaigns
  can name them on the command line.
* :mod:`~repro.faults.wrappers` — ``FaultyHVACEnv`` (scalar) and
  ``FaultyVectorHVACEnv`` (batched, mask-aware, bit-identical to the
  scalar path under equal seeds).

The campaign runner sweeps ``scenario × fault × controller × seed`` and
``repro-hvac robustness`` reports clean-vs-faulted metric deltas; see
``docs/robustness.md``.
"""

from repro.env.observation import ObsLayout
from repro.faults.base import FaultInjector, FaultModel, fault_stream
from repro.faults.models import (
    ActuatorFault,
    ForecastFault,
    OccupancyFault,
    SensorNoise,
    StuckSensor,
)
from repro.faults.profiles import (
    NO_FAULT,
    FaultProfile,
    get_fault_profile,
    list_fault_profiles,
    register_fault_profile,
)
from repro.faults.wrappers import FaultyHVACEnv, FaultyVectorHVACEnv

__all__ = [
    "FaultModel",
    "FaultInjector",
    "ObsLayout",
    "fault_stream",
    "SensorNoise",
    "StuckSensor",
    "ActuatorFault",
    "ForecastFault",
    "OccupancyFault",
    "FaultProfile",
    "NO_FAULT",
    "register_fault_profile",
    "get_fault_profile",
    "list_fault_profiles",
    "FaultyHVACEnv",
    "FaultyVectorHVACEnv",
]
