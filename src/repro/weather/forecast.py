"""Weather forecast noise.

The DAC'17 state vector augments current weather with forecasts of the
next few control steps.  :class:`ForecastProvider` owns what makes
those forecasts imperfect: one generator and lead-time-proportional
noise scales.  The forecast arithmetic itself — reading the future
trace and applying the noise — is
:func:`repro.env.observation.forecast`, shared by the scalar env and
the fleet.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import RandomState, ensure_rng
from repro.utils.validation import check_positive


class ForecastProvider:
    """Noise source of forecasts of ambient temperature and GHI.

    Forecast error grows with lead time: step ``k`` ahead has standard
    deviation ``k * noise_std_per_step`` for temperature and the same
    relative noise on irradiance.  ``scales`` holds those stds in the
    order :meth:`draw_noise` draws its values.
    """

    def __init__(
        self,
        *,
        horizon: int,
        temp_noise_std_per_step: float = 0.25,
        ghi_relative_noise_per_step: float = 0.05,
        rng: RandomState | int | None = None,
    ) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        check_positive("temp_noise_std_per_step", temp_noise_std_per_step, strict=False)
        check_positive("ghi_relative_noise_per_step", ghi_relative_noise_per_step, strict=False)
        self.horizon = int(horizon)
        self.temp_noise_std_per_step = float(temp_noise_std_per_step)
        self.ghi_relative_noise_per_step = float(ghi_relative_noise_per_step)
        self._rng = ensure_rng(rng)
        leads = np.arange(1, self.horizon + 1)
        self.scales = np.ravel(
            [self.temp_noise_std_per_step * leads, self.ghi_relative_noise_per_step * leads],
            order="F",
        )

    def draw_noise(self) -> np.ndarray:
        """Draw the raw standard normals one forecast consumes.

        Returns ``2 * horizon`` values interleaved (temp, ghi) per lead —
        the exact stream consumption of the historical per-lead
        ``normal()`` call pairs, so every forecast stays bit-identical
        to the trajectories recorded before the draw was split from the
        arithmetic.
        """
        return self._rng.standard_normal(2 * self.horizon)
