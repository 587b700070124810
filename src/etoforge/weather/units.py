"""The canonical system: each quantity's unit, valid range and conversions.

Canonical units: degC, percent, m/s, W/m2, mm, kPa. Converting a value
already in its canonical unit is an exact identity, so normalization is
idempotent.
"""

from __future__ import annotations

import math

from ..errors import UnitError

# quantity -> canonical unit key
CANONICAL = {
    "temp": "degC",
    "rh": "percent",
    "wind": "m/s",
    "sr": "W/m2",
    "precip": "mm",
    "pressure": "kPa",
}

# quantity -> closed valid range (low, high) in its canonical unit
RANGE = {"temp": (-math.inf, math.inf), "rh": (0.0, 100.0), "wind": (0.0, math.inf),
         "sr": (0.0, math.inf), "precip": (0.0, math.inf), "pressure": (0.0, math.inf)}

FIELD_QUANTITY = {
    "temp_max": "temp",
    "temp_min": "temp",
    "temp_avg": "temp",
    "rh_max": "rh",
    "rh_min": "rh",
    "rh_avg": "rh",
    "wind_avg": "wind",
    "sr_avg": "sr",
    "sr_max": "sr",
    "pressure_avg": "pressure",
    "precip": "precip",
}

_CONVERSIONS = {
    ("temp", "degC"): lambda x: x,
    ("temp", "degF"): lambda x: (x - 32.0) * 5.0 / 9.0,
    ("temp", "K"): lambda x: x - 273.15,
    ("rh", "percent"): lambda x: x,
    ("rh", "fraction"): lambda x: x * 100.0,
    ("wind", "m/s"): lambda x: x,
    ("wind", "km/h"): lambda x: x / 3.6,
    ("wind", "mph"): lambda x: x * 0.44704,
    ("wind", "kn"): lambda x: x * 0.514444,
    ("sr", "W/m2"): lambda x: x,
    ("sr", "kW/m2"): lambda x: x * 1000.0,
    ("precip", "mm"): lambda x: x,
    ("precip", "cm"): lambda x: x * 10.0,
    ("precip", "in"): lambda x: x * 25.4,
    ("pressure", "kPa"): lambda x: x,
    ("pressure", "hPa"): lambda x: x / 10.0,
    ("pressure", "mbar"): lambda x: x / 10.0,
    ("pressure", "Pa"): lambda x: x / 1000.0,
}

_ALIASES = {
    "degc": "degC", "c": "degC", "°c": "degC", "celsius": "degC",
    "degf": "degF", "f": "degF", "°f": "degF", "fahrenheit": "degF",
    "k": "K", "kelvin": "K",
    "percent": "percent", "%": "percent", "pct": "percent",
    "fraction": "fraction",
    "m/s": "m/s", "ms-1": "m/s", "mps": "m/s",
    "km/h": "km/h", "kmh": "km/h", "kph": "km/h",
    "mph": "mph",
    "kn": "kn", "kt": "kn", "knots": "kn",
    "w/m2": "W/m2", "wm-2": "W/m2", "w/m^2": "W/m2", "w/m²": "W/m2",
    "kw/m2": "kW/m2",
    "mm": "mm", "cm": "cm", "in": "in", "inch": "in",
    "kpa": "kPa", "hpa": "hPa", "mbar": "mbar", "mb": "mbar", "pa": "Pa",
}


def converter(quantity: str, unit: str):
    """The function taking `quantity` values in `unit` to its canonical unit."""
    if unit is None:
        raise UnitError("no unit declared")
    key = unit.strip().lower()
    if key not in _ALIASES:
        raise UnitError(f"unknown unit {unit!r}")
    fn = _CONVERSIONS.get((quantity, _ALIASES[key]))
    if fn is None:
        raise UnitError(f"unit {unit!r} is not a {quantity} unit")
    return fn
