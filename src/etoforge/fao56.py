"""Daily grass-reference evapotranspiration physics.

Implements the standard daily combination-equation chain for a clipped
grass reference surface (0.12 m, albedo 0.23): vapour-pressure relations,
top-of-atmosphere and net radiation, logarithmic wind-profile adjustment
to 2 m, the reference-ET equation itself, and crop scaling.

Every function is element-wise, as FAO-56 (Allen et al. 1998, ch. 3-4)
states the equations: inputs are floats or broadcasting numpy arrays,
one day is the length-1 case of N days, and a day's result does not
depend on its batch. A failing check raises the same typed error for an
array as for one day and names the first bad row.

Units are fixed throughout: temperatures degC, humidity percent (0-100),
pressure kPa, wind m/s, radiation MJ m-2 day-1 (use :func:`sr_wm2_to_mj`
to convert daily-mean W/m2), latitude radians, ET mm/day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, RangeError

SOLAR_CONSTANT = 0.0820        # MJ m-2 min-1
STEFAN_BOLTZMANN = 4.903e-9    # MJ K-4 m-2 day-1
ALBEDO = 0.23
KELVIN_OFFSET = 273.16         # for the longwave T^4 terms
WM2_TO_MJ = 0.0864             # 86400 s/day * 1e-6 MJ/J

HUMIDITY_MODES = ("extremes", "average")


def _reject(bad, error, message: str, *values) -> None:
    """Raise `error` for the first row where `bad` holds, with that row's `values`.

    Array input names the row; a scalar check raises without one.
    """
    bad = np.asarray(bad)
    if bad.any():
        row = int(np.argmax(bad.reshape(-1)))
        shown = [np.asarray(v).reshape(-1)[row if np.size(v) > 1 else 0].item()
                 for v in values]
        raise error(message.format(*shown), row=row if bad.ndim else None)


def _column(x):
    """A contiguous float64 array of at least one dimension (None stays None)."""
    return None if x is None else np.ascontiguousarray(x, dtype=np.float64)


def _unwrap(result, *inputs):
    """`result` as a float when every input was one value, else as is.

    One value is computed as a length-1 array: numpy's 0-d path for power
    can differ from its array path in the last bit.
    """
    return float(result[0]) if all(np.ndim(x) == 0 for x in inputs) else result


def saturation_vapor_pressure(t):
    """Saturation vapour pressure e0(t) in kPa at air temperature t [degC].

    Strictly increasing; defined for t > -237.3 (the formula's pole).
    """
    _reject(np.asarray(t) <= -237.3, DomainError,
            "saturation vapour pressure undefined at t={} degC", t)
    t1 = _column(t)
    return _unwrap(0.6108 * np.exp(17.27 * t1 / (t1 + 237.3)), t)


def svp_slope(t):
    """Slope of the saturation vapour-pressure curve [kPa/degC] at t.

    Analytic derivative of :func:`saturation_vapor_pressure`, with its domain.
    """
    t1 = _column(t)
    return _unwrap(4098.0 * saturation_vapor_pressure(t1) / (t1 + 237.3) ** 2, t)


def atmospheric_pressure(elevation):
    """Standard-atmosphere pressure [kPa] at elevation [m above sea level]."""
    _reject(np.asarray(elevation) >= 45000.0, DomainError,
            "pressure formula invalid at elevation={} m", elevation)
    return _unwrap(101.3 * ((293.0 - 0.0065 * _column(elevation)) / 293.0) ** 5.26,
                   elevation)


def psychrometric_constant(pressure):
    """Psychrometric constant [kPa/degC] from atmospheric pressure [kPa]."""
    _reject(np.asarray(pressure) <= 0.0, DomainError, "pressure must be positive")
    return _unwrap(0.665e-3 * _column(pressure), pressure)


def _check_rh(name: str, value) -> None:
    value = np.asarray(value)
    _reject(~((value >= 0.0) & (value <= 100.0)), RangeError,
            name + "={} outside [0, 100] %", value)


def _check_humidity(mode: str, rh_max=None, rh_min=None, rh_avg=None) -> None:
    """The one humidity validation: mode known, its fields present, in range.

    "extremes" needs rh_max and rh_min with rh_min <= rh_max; "average"
    needs rh_avg. Every value must lie in [0, 100] %.
    """
    if mode == "extremes":
        if rh_max is None or rh_min is None:
            raise RangeError("extremes mode needs rh_max and rh_min")
        _check_rh("rh_max", rh_max)
        _check_rh("rh_min", rh_min)
        _reject(np.asarray(rh_min) > np.asarray(rh_max), RangeError,
                "rh_min={} > rh_max={}", rh_min, rh_max)
    elif mode == "average":
        if rh_avg is None:
            raise RangeError("average mode needs rh_avg")
        _check_rh("rh_avg", rh_avg)
    else:
        raise RangeError(f"unknown humidity mode: {mode!r}")


def actual_vapor_pressure(
    temp_max,
    temp_min,
    *,
    rh_max=None,
    rh_min=None,
    rh_avg=None,
    mode: str = "extremes",
):
    """Actual vapour pressure e_a [kPa] from relative humidity.

    Two modes: "extremes" combines rh_max/rh_min with the saturation
    pressures at the opposite temperature extremes; "average" uses the
    mean humidity against the mean saturation pressure (the only option
    when a source reports a single daily humidity value).
    """
    _check_humidity(mode, rh_max, rh_min, rh_avg)
    es_tmax = saturation_vapor_pressure(_column(temp_max))
    es_tmin = saturation_vapor_pressure(_column(temp_min))
    if mode == "extremes":
        ea = (es_tmin * _column(rh_max) / 100.0 + es_tmax * _column(rh_min) / 100.0) / 2.0
    else:
        ea = _column(rh_avg) / 100.0 * (es_tmax + es_tmin) / 2.0
    return _unwrap(ea, temp_max, temp_min, rh_max, rh_min, rh_avg)


def _check_geometry(latitude, day_of_year) -> None:
    day_of_year = np.asarray(day_of_year)
    _reject(~((day_of_year >= 1) & (day_of_year <= 366)), RangeError,
            "day_of_year={} outside 1..366", day_of_year)
    _reject(np.abs(latitude) > math.pi / 2, RangeError,
            "latitude={} rad outside +/- pi/2", latitude)


def extraterrestrial_radiation(latitude, day_of_year):
    """Top-of-atmosphere radiation R_a [MJ m-2 day-1].

    latitude is in radians. The sunset-hour-angle cosine is clamped to
    [-1, 1] so polar night yields exactly zero and midnight sun a full
    rotation, instead of a math-domain failure.
    """
    _check_geometry(latitude, day_of_year)
    lat = _column(latitude)
    b = 2.0 * math.pi * np.atleast_1d(day_of_year) / 365.0
    inv_distance = 1.0 + 0.033 * np.cos(b)
    declination = 0.409 * np.sin(b - 1.39)
    cos_ws = np.clip(-np.tan(lat) * np.tan(declination), -1.0, 1.0)
    sunset_angle = np.arccos(cos_ws)
    ra = (24.0 * 60.0 / math.pi) * SOLAR_CONSTANT * inv_distance * (
        sunset_angle * np.sin(lat) * np.sin(declination)
        + np.cos(lat) * np.cos(declination) * np.sin(sunset_angle)
    )
    return _unwrap(np.maximum(ra, 0.0), latitude, day_of_year)


def clear_sky_radiation(ra, elevation):
    """Clear-sky shortwave radiation R_so [MJ m-2 day-1]."""
    return (0.75 + 2e-5 * elevation) * ra


@dataclass(frozen=True)
class NetRadiation:
    rn: float
    rns: float
    rnl: float
    rso: float


def net_radiation(solar_rad, ra, ea, temp_max, temp_min, elevation) -> NetRadiation:
    """Net radiation R_n = R_ns - R_nl at the grass reference surface.

    Shortwave uses the fixed 0.23 albedo. Longwave uses the Stefan-
    Boltzmann form with the relative-shortwave ratio R_s/R_so capped at
    1.0 (lower side left free). With zero R_a and zero measured shortwave
    (polar night) the ratio defaults to 1; zero R_a with positive
    shortwave is physically inconsistent and raises DomainError.
    """
    inputs = (solar_rad, ra, ea, temp_max, temp_min, elevation)
    _reject((np.asarray(ra) < 0.0) | (np.asarray(solar_rad) < 0.0), RangeError,
            "radiation inputs must be non-negative")
    solar_rad, ra, ea, temp_max, temp_min, elevation = map(_column, inputs)
    rso = clear_sky_radiation(ra, elevation)
    rns = (1.0 - ALBEDO) * solar_rad
    dark = rso <= 0.0
    _reject(dark & (solar_rad > 0.0), DomainError,
            "measured shortwave with zero extraterrestrial radiation")
    ratio = np.where(dark, 1.0, np.minimum(solar_rad / np.where(dark, 1.0, rso), 1.0))
    tk4 = ((temp_max + KELVIN_OFFSET) ** 4 + (temp_min + KELVIN_OFFSET) ** 4) / 2.0
    rnl = STEFAN_BOLTZMANN * tk4 * (0.34 - 0.14 * np.sqrt(ea)) * (1.35 * ratio - 0.35)
    return NetRadiation(rn=_unwrap(rns - rnl, *inputs), rns=_unwrap(rns, *inputs),
                        rnl=_unwrap(rnl, *inputs), rso=_unwrap(rso, *inputs))


def wind_profile_holds(height):
    """Where the log profile of wind_to_2m holds: finite heights above about 0.0947 m."""
    return (67.8 * np.asarray(height) - 5.42 > 1.0) & (np.asarray(height) < np.inf)


def wind_to_2m(u, height):
    """Wind speed at 2 m from a measurement at `height` m (log profile)."""
    _reject(np.asarray(u) < 0.0, RangeError, "wind speed u={} must be non-negative", u)
    _reject(~wind_profile_holds(height), DomainError,
            "wind profile undefined at measurement height {} m", height)
    return _unwrap(_column(u) * 4.87 / np.log(67.8 * _column(height) - 5.42), u, height)


@dataclass(frozen=True)
class Et0Inputs:
    """One day, or N days as arrays, of inputs for the reference-ET equation.

    Every numeric field is a float or an array; arrays broadcast against
    each other and scalars (one site's latitude and elevation, say).
    Humidity is interpreted per `humidity_mode`: "extremes" requires
    rh_max/rh_min, "average" requires rh_avg. solar_rad is the measured
    (or estimated) daily shortwave in MJ m-2 day-1; wind is already at 2 m.
    """

    temp_max: float
    temp_min: float
    wind_2m: float
    solar_rad: float
    latitude: float
    elevation: float
    day_of_year: int
    humidity_mode: str = "extremes"
    rh_max: float | None = None
    rh_min: float | None = None
    rh_avg: float | None = None

    def __post_init__(self):
        _reject(np.asarray(self.temp_min) > np.asarray(self.temp_max), RangeError,
                "temp_min={} > temp_max={}", self.temp_min, self.temp_max)
        _reject(np.asarray(self.wind_2m) < 0.0, RangeError, "wind_2m must be non-negative")
        _reject(np.asarray(self.solar_rad) < 0.0, RangeError,
                "solar_rad must be non-negative")
        _check_geometry(self.latitude, self.day_of_year)
        _check_humidity(self.humidity_mode, self.rh_max, self.rh_min, self.rh_avg)


@dataclass(frozen=True)
class Et0Result:
    """Reference ET plus every intermediate for audit.

    `et0` is clamped at zero; `intermediates` carries the raw value under
    "et0_raw" and a "clamped" flag (0/1) alongside delta, gamma, es, ea,
    pressure, ra, rso, rns, rnl and rn. Values are floats for one-day
    inputs and arrays of the broadcast shape for array inputs.
    """

    et0: float
    humidity_mode: str
    intermediates: dict = field(default_factory=dict)

    @property
    def clamped(self):
        return self.intermediates.get("clamped", 0.0) == 1.0


def et0_fao56pm(inputs: Et0Inputs) -> Et0Result:
    """Daily reference evapotranspiration [mm/day] for the grass surface.

    Soil heat flux is taken as zero (daily time step); the mean
    temperature is the extremes' midpoint; saturation pressure is the
    mean of the values at the extremes. Negative raw results are clamped
    to zero and flagged. A one-day input is computed as a length-1 array
    and returned as floats.
    """
    temp_max, temp_min = _column(inputs.temp_max), _column(inputs.temp_min)
    wind_2m = _column(inputs.wind_2m)
    elevation = _column(inputs.elevation)
    mode = inputs.humidity_mode

    t_mean = (temp_max + temp_min) / 2.0
    delta = svp_slope(t_mean)
    pressure = atmospheric_pressure(elevation)
    gamma = psychrometric_constant(pressure)
    es = (saturation_vapor_pressure(temp_max) + saturation_vapor_pressure(temp_min)) / 2.0
    ea = actual_vapor_pressure(temp_max, temp_min, rh_max=inputs.rh_max,
                               rh_min=inputs.rh_min, rh_avg=inputs.rh_avg, mode=mode)
    ra = extraterrestrial_radiation(inputs.latitude, np.atleast_1d(inputs.day_of_year))
    rad = net_radiation(_column(inputs.solar_rad), ra, ea, temp_max, temp_min, elevation)

    numerator = (
        0.408 * delta * rad.rn
        + gamma * (900.0 / (t_mean + 273.0)) * wind_2m * (es - ea)
    )
    denominator = delta + gamma * (1.0 + 0.34 * wind_2m)
    et0_raw = numerator / denominator
    et0 = np.maximum(et0_raw, 0.0)

    intermediates = {
        "delta": delta,
        "gamma": gamma,
        "pressure": pressure,
        "es": es,
        "ea": ea,
        "ra": ra,
        "rso": rad.rso,
        "rns": rad.rns,
        "rnl": rad.rnl,
        "rn": rad.rn,
        "et0_raw": et0_raw,
        "clamped": np.where(et0_raw < 0.0, 1.0, 0.0),
    }
    for name, value in intermediates.items():
        _reject(~np.isfinite(value), DomainError,
                "non-finite intermediate " + name + "={}", value)
    if all(np.ndim(getattr(inputs, f.name)) == 0 for f in fields(inputs)):
        return Et0Result(et0=float(et0[0]), humidity_mode=mode,
                         intermediates={k: float(v[0]) for k, v in intermediates.items()})
    return Et0Result(et0=et0, humidity_mode=mode, intermediates={
        k: np.broadcast_to(v, et0.shape) for k, v in intermediates.items()})


def crop_et(et0, kc):
    """Crop evapotranspiration: the reference value scaled by a crop coefficient."""
    _reject(np.asarray(kc) < 0.0, RangeError,
            "crop coefficient kc={} must be non-negative", kc)
    return et0 * kc


def sr_wm2_to_mj(sr_avg):
    """Convert a daily-mean shortwave flux [W/m2] to MJ m-2 day-1."""
    _reject(np.asarray(sr_avg) < 0.0, RangeError,
            "solar radiation {} W/m2 must be non-negative", sr_avg)
    return sr_avg * WM2_TO_MJ
