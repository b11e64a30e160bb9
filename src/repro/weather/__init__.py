"""Weather substrate: the TMY3 substitute.

The DAC'17 evaluation drives EnergyPlus with TMY3 weather files.  We
replace those with a synthetic typical-meteorological-year generator that
produces the same channels the controller observes — ambient dry-bulb
temperature and global horizontal irradiance — with realistic seasonal and
diurnal structure, clear-sky solar geometry, stochastic cloud attenuation,
and AR(1) temperature noise.  A forecast provider draws the noise of the
short-horizon forecasts the paper feeds into the RL state.
"""

from repro.weather.series import WeatherSeries
from repro.weather.solar import (
    clear_sky_ghi,
    solar_declination_deg,
    solar_elevation_deg,
)
from repro.weather.synthetic import SyntheticWeatherConfig, generate_weather
from repro.weather.forecast import ForecastProvider
from repro.weather.io import weather_from_csv, weather_to_csv

__all__ = [
    "WeatherSeries",
    "solar_declination_deg",
    "solar_elevation_deg",
    "clear_sky_ghi",
    "SyntheticWeatherConfig",
    "generate_weather",
    "ForecastProvider",
    "weather_from_csv",
    "weather_to_csv",
]
