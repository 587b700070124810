"""Canonical weather record types and horizon alignment.

Canonical units everywhere: degC, percent (0-100), m/s, W/m2 (daily
mean), mm/day, kPa. Dates are calendar dates; a forecast's horizon is
always derived from its issue and target dates, never read from a
provider label.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from ..errors import RangeError

PROVIDERS = ("VC", "OWM")
MAX_HORIZON = 15


def read_text(path) -> str:
    """A UTF-8 input file's text; RangeError naming the file if it does not decode."""
    return decode_utf8(Path(path).read_bytes(), path)


def decode_utf8(data: bytes, source) -> str:
    """`data` as UTF-8 text; RangeError naming `source` if it does not decode."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RangeError(f"{source} is not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class SiteMetadata:
    """Everything the reference-ET physics needs beyond daily weather."""

    site_id: str
    latitude: float            # degrees, +north
    longitude: float           # degrees, +east
    elevation: float           # m above sea level
    wind_sensor_height: float  # m above ground

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise RangeError(f"latitude={self.latitude} outside +/- 90 degrees")
        if not math.isfinite(self.elevation):
            raise RangeError("elevation must be finite")
        if not self.wind_sensor_height > 0.0:
            raise RangeError("wind_sensor_height must be > 0")

    @property
    def latitude_rad(self) -> float:
        return math.radians(self.latitude)

    @property
    def solar_tz_offset_hours(self) -> float:
        """Local-solar-time offset from UTC implied by the longitude."""
        return self.longitude / 15.0


def _require_range(name, value, low=None, high=None):
    if value is None or not math.isfinite(value):
        raise RangeError(f"{name}={value} is not a finite number")
    if low is not None and value < low:
        raise RangeError(f"{name}={value} below {low}")
    if high is not None and value > high:
        raise RangeError(f"{name}={value} above {high}")


@dataclass(frozen=True)
class DailyObservation:
    """One calendar day of ground-truth weather-station measurements."""

    date: dt.date
    temp_max: float
    temp_min: float
    temp_avg: float
    rh_max: float
    rh_min: float
    rh_avg: float
    wind_avg: float
    sr_avg: float
    precip: float = 0.0
    sr_max: float | None = None
    pressure_avg: float | None = None

    def __post_init__(self):
        _require_range("temp_max", self.temp_max)
        _require_range("temp_min", self.temp_min)
        _require_range("temp_avg", self.temp_avg)
        if not self.temp_min <= self.temp_avg <= self.temp_max:
            raise RangeError(
                f"temperature ordering violated: min={self.temp_min} "
                f"avg={self.temp_avg} max={self.temp_max}")
        for name in ("rh_max", "rh_min", "rh_avg"):
            _require_range(name, getattr(self, name), 0.0, 100.0)
        if not self.rh_min <= self.rh_avg <= self.rh_max:
            raise RangeError(
                f"humidity ordering violated: min={self.rh_min} "
                f"avg={self.rh_avg} max={self.rh_max}")
        _require_range("wind_avg", self.wind_avg, 0.0)
        _require_range("sr_avg", self.sr_avg, 0.0)
        _require_range("precip", self.precip, 0.0)
        if self.sr_max is not None:
            _require_range("sr_max", self.sr_max, 0.0)
        if self.pressure_avg is not None:
            _require_range("pressure_avg", self.pressure_avg, 0.0)


@dataclass(frozen=True)
class ForecastRecord:
    """One provider's forecast of a target date, tagged with its issue date.

    d0 means issued at local midnight of the target date; dX was issued X
    days earlier. Fields a provider did not supply are None; any raw
    payload keys beyond the canonical fields ride along in `extras`.
    """

    provider: str
    target_date: dt.date
    issue_date: dt.date
    temp_max: float
    temp_min: float
    rh_avg: float | None = None
    wind_avg: float | None = None
    precip: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.provider not in PROVIDERS:
            raise RangeError(f"unknown provider {self.provider!r}; expected one of {PROVIDERS}")
        if not 0 <= self.horizon <= MAX_HORIZON:
            raise RangeError(
                f"horizon {self.horizon} (issued {self.issue_date}, target "
                f"{self.target_date}) outside 0..{MAX_HORIZON}")
        _require_range("temp_max", self.temp_max)
        _require_range("temp_min", self.temp_min)
        if self.temp_min > self.temp_max:
            raise RangeError(f"temp_min={self.temp_min} > temp_max={self.temp_max}")
        if self.rh_avg is not None:
            _require_range("rh_avg", self.rh_avg, 0.0, 100.0)
        if self.wind_avg is not None:
            _require_range("wind_avg", self.wind_avg, 0.0)
        if self.precip is not None:
            _require_range("precip", self.precip, 0.0)

    @property
    def horizon(self) -> int:
        """Forecast age in whole days, by date arithmetic."""
        return (self.target_date - self.issue_date).days


@dataclass(frozen=True)
class AlignedPair:
    """An observation joined with one forecast for the same date."""

    date: dt.date
    observed: DailyObservation
    forecast: ForecastRecord

    def __post_init__(self):
        if not (self.forecast.target_date == self.date == self.observed.date):
            raise RangeError(
                f"aligned pair dates disagree: {self.date}, observed "
                f"{self.observed.date}, forecast target {self.forecast.target_date}")


class AlignResult(NamedTuple):
    pairs: list
    coverage: float
    matched: int
    total_observed: int


def index_forecasts(forecasts) -> dict:
    """Group forecasts in one pass: {(provider, horizon): {target_date: record}}.

    This decides which record answers a (provider, horizon, target date)
    key: when a key repeats, the first record in input order wins.
    """
    index = {}
    for fc in forecasts:
        index.setdefault((fc.provider, fc.horizon), {}).setdefault(fc.target_date, fc)
    return index


def pair_on_date(ordered, index, horizon, providers):
    """Join date-sorted observations to the horizon-`horizon` forecasts of `index`.

    Returns ([(observation, forecast)], coverage), one lookup per observation;
    a date takes the record of the first of `providers` that has one.
    """
    if not 0 <= horizon <= MAX_HORIZON:
        raise RangeError(f"horizon {horizon} outside 0..{MAX_HORIZON}")
    by_date = {}
    for provider in reversed(providers):
        by_date.update(index.get((provider, horizon), {}))
    pairs = [(obs, fc) for obs in ordered if (fc := by_date.get(obs.date)) is not None]
    return pairs, len(pairs) / len(ordered) if ordered else 0.0


def align_horizons(observations, forecasts, horizon) -> AlignResult:
    """Join observations with horizon-`horizon` forecasts on the date.

    Only dates present on both sides appear in the result, sorted by
    date; gaps on either side are silently dropped and accounted for in
    the coverage statistic (matched / total observed). A date takes the
    record of the first provider in sorted name order (callers wanting a
    single provider should filter first) and, when a (provider, target
    date) key repeats, the first record in input order: only then does
    the result depend on input ordering.
    """
    index = index_forecasts(forecasts)
    joined, coverage = pair_on_date(sorted(observations, key=lambda o: o.date), index,
                                    horizon, sorted({provider for provider, _ in index}))
    pairs = [AlignedPair(date=obs.date, observed=obs, forecast=fc) for obs, fc in joined]
    return AlignResult(pairs=pairs, coverage=coverage,
                       matched=len(pairs), total_observed=len(observations))
