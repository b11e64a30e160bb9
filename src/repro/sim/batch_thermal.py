"""Batched RC thermal dynamics: N buildings advanced in one array program.

The scalar :class:`~repro.building.thermal.RCNetwork` advances one
building's zone temperatures with a cached matrix-exponential propagator.
:class:`BatchRCNetwork` stacks N such networks — padded to the widest
zone count — so a whole fleet advances in a single batched ``matmul``:

    T'[n] = decay[n] @ T[n] + gain[n] @ forcing[n]        for all n at once

The per-network propagators are taken **from the scalar networks' own
caches**, so a batched step reproduces the scalar update to floating-point
round-off.
Zones beyond a network's true width are masked: their capacitance is 1,
all conductances and heat inputs are 0, and their propagator rows are 0,
so padded temperatures stay identically 0 forever.

Fleet state is stored structure-of-arrays (columnar ``capacitance``,
``ua_ambient``).  The fleet advances by handing these columns and
:meth:`BatchRCNetwork._propagators` to :func:`repro.env.kernel.advance`,
the control-step kernel's RC advance, so the repo has one RC update.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.building.thermal import RCNetwork
from repro.env.kernel import require_exact_propagator


class BatchRCNetwork:
    """N independent RC networks as stacked arrays.

    Parameters
    ----------
    networks:
        The scalar per-building networks.  Each must have a non-singular
        dynamics matrix (every zone coupled to ambient through some path)
        — the same condition under which the scalar step uses its exact
        propagator rather than the Euler fallback.
    """

    def __init__(self, networks: Sequence[RCNetwork]) -> None:
        if not networks:
            raise ValueError("need at least one network")
        for k, net in enumerate(networks):
            require_exact_propagator(net, k)
        self.networks: List[RCNetwork] = list(networks)
        self.n_envs = len(networks)
        self.max_zones = max(net.n_zones for net in networks)

        n, z = self.n_envs, self.max_zones
        self.capacitance = np.ones((n, z))
        self.ua_ambient = np.zeros((n, z))
        for k, net in enumerate(networks):
            m = net.n_zones
            self.capacitance[k, :m] = net.capacitance
            self.ua_ambient[k, :m] = net.ua_ambient
        # Only the last dt's pair is kept: a vector env steps with one dt
        # for its whole life, and each pair costs two (n, z, z) arrays.
        self._last_dt: Optional[float] = None
        self._last_props: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------ propagators
    def _propagators(self, dt_seconds: float) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked, zero-padded ``(decay, gain)`` for a step length.

        Repeated calls with the same ``dt`` return the identical pair; a
        new ``dt`` rebuilds it.
        """
        key = float(dt_seconds)
        if key != self._last_dt:
            n, z = self.n_envs, self.max_zones
            decay = np.zeros((n, z, z))
            gain = np.zeros((n, z, z))
            for k, net in enumerate(self.networks):
                m = net.n_zones
                d, g = net._propagator(key)
                decay[k, :m, :m] = d
                gain[k, :m, :m] = g
            self._last_dt = key
            self._last_props = (decay, gain)
        return self._last_props  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"BatchRCNetwork(n_envs={self.n_envs}, max_zones={self.max_zones})"
        )
