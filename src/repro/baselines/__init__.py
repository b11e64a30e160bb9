"""Baseline controllers the paper compares against (plus references).

* :class:`ThermostatController` — the conventional rule-based ON/OFF
  (two-position, hysteresis) control the paper uses as its primary
  baseline; :class:`FleetThermostat` runs it for every building of a
  fleet in one array step.
* :class:`TabularQAgent` — Q-learning on a discretized state space, the
  paper's classical-RL comparison point.
* :class:`PIDController` — proportional-integral-derivative tracking of a
  setpoint, a stronger conventional baseline; :class:`FleetPID` is its
  fleet form.
* :class:`RandomController` — the sanity floor.
* :class:`LookaheadController` — a model-based myopic oracle that picks
  the one-step-reward-optimal action using the true simulator model; a
  reference the model-free agents should approach on myopic behaviour.
* :class:`MPCController` — receding-horizon planning over an identified
  (or true) zone model; the classical model-based alternative whose
  model requirement is the paper's motivation for model-free DRL.
"""

from repro.baselines.rule_based import FleetThermostat, ThermostatController
from repro.baselines.pid import FleetPID, PIDController
from repro.baselines.random_policy import RandomController
from repro.baselines.tabular_q import ObsDiscretizer, TabularQAgent, TabularQConfig
from repro.baselines.lookahead import LookaheadController
from repro.baselines.mpc import MPCController

__all__ = [
    "ThermostatController",
    "FleetThermostat",
    "PIDController",
    "FleetPID",
    "RandomController",
    "ObsDiscretizer",
    "TabularQAgent",
    "TabularQConfig",
    "LookaheadController",
    "MPCController",
]
