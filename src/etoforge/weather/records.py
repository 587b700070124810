"""Canonical weather record types and horizon alignment.

Canonical units everywhere: degC, percent (0-100), m/s, W/m2 (daily
mean), mm/day, kPa. Dates are calendar dates; a forecast's horizon is
always derived from its issue and target dates, never read from a
provider label.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import fao56
from ..errors import FeatureMismatch, MissingField, RangeError
from . import units

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
        if not -180.0 <= self.longitude <= 180.0:
            raise RangeError(f"longitude={self.longitude} outside +/- 180 degrees")
        if not math.isfinite(self.elevation):
            raise RangeError("elevation must be finite")
        if not fao56.wind_profile_holds(self.wind_sensor_height):
            raise RangeError(f"wind_sensor_height={self.wind_sensor_height} must be finite and "
                             "above 0.0947 m")

    @property
    def latitude_rad(self) -> float:
        return math.radians(self.latitude)

    @property
    def solar_tz_offset_hours(self) -> float:
        """Local-solar-time offset from UTC implied by the longitude."""
        return self.longitude / 15.0


def _require_range(name, value):
    if value is None or value is True or value is False or not math.isfinite(value):
        raise RangeError(f"{name}={value} is not a finite number")
    low, high = units.RANGE[units.FIELD_QUANTITY[name]]
    if value < low:
        raise RangeError(f"{name}={value} below {low}")
    if value > high:
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
            _require_range(name, getattr(self, name))
        if not self.rh_min <= self.rh_avg <= self.rh_max:
            raise RangeError(
                f"humidity ordering violated: min={self.rh_min} "
                f"avg={self.rh_avg} max={self.rh_max}")
        _require_range("wind_avg", self.wind_avg)
        _require_range("sr_avg", self.sr_avg)
        _require_range("precip", self.precip)
        if self.sr_max is not None:
            _require_range("sr_max", self.sr_max)
        if self.pressure_avg is not None:
            _require_range("pressure_avg", self.pressure_avg)


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
        check_forecast_values(self.temp_max, self.temp_min, self.rh_avg, self.wind_avg,
                              self.precip)

    @property
    def horizon(self) -> int:
        """Forecast age in whole days, by date arithmetic."""
        return (self.target_date - self.issue_date).days


def check_forecast_values(temp_max, temp_min, rh_avg=None, wind_avg=None, precip=None):
    """Raise the RangeError a ForecastRecord with these field values raises, if any."""
    _require_range("temp_max", temp_max)
    _require_range("temp_min", temp_min)
    if temp_min > temp_max:
        raise RangeError(f"temp_min={temp_min} > temp_max={temp_max}")
    if rh_avg is not None:
        _require_range("rh_avg", rh_avg)
    if wind_avg is not None:
        _require_range("wind_avg", wind_avg)
    if precip is not None:
        _require_range("precip", precip)


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


FORECAST_FIELDS = ("temp_max", "temp_min", "rh_avg", "wind_avg", "precip")
OBSERVATION_FIELDS = tuple(f.name for f in fields(DailyObservation))[1:]
_FLOAT_OR_ABSENT = {float, type(None)}
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_NO_ROWS = np.zeros(0, dtype=np.intp)
# json.dumps(x, sort_keys=True) without building an encoder per call
sorted_json = json.JSONEncoder(sort_keys=True).encode


class DayTable:
    """Rows of daily records as columns: the date ordinal `day` of each row, one
    float64 column `values[name]` per field and the mask `present[name]` of the
    rows that carry it. `table[i]` is row i's record."""

    def __len__(self) -> int:
        return len(self.day)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @functools.cached_property
    def dates(self) -> list:
        """Each row's date."""
        return list(map(dt.date.fromordinal, self.day.tolist()))

    @functools.cached_property
    def day_of_year(self) -> np.ndarray:
        """Each row's day of the year, 1-based."""
        days = (self.day - _EPOCH_ORDINAL).astype("datetime64[D]")
        return (days - days.astype("datetime64[Y]")).astype(np.int64) + 1

    def column(self, name) -> np.ndarray:
        """One field's column; MissingField if any row lacks it."""
        if name not in self.values or not self.present[name].all():
            raise MissingField(name)
        return self.values[name]


class ObservationTable(DayTable):
    """Observation records in the given order; each was checked by its own
    DailyObservation. `day` holds their dates, and an absent optional field
    reads as NaN in `values`. `table[i]` is the record itself."""

    def __init__(self, records):
        self.records = list(records)
        if not all(isinstance(r, DailyObservation) for r in self.records):
            raise FeatureMismatch("observations must be DailyObservation records")
        self.day = np.array([r.date.toordinal() for r in self.records], dtype=np.int64)
        self.values = {name: np.array([getattr(r, name) for r in self.records], dtype=np.float64)
                       for name in OBSERVATION_FIELDS}
        self.present = {name: ~np.isnan(x) for name, x in self.values.items()}

    def __getitem__(self, i) -> DailyObservation:
        return self.records[i]


def by_date(observations) -> ObservationTable:
    """`observations` (a table or records) as a table in ascending date order:
    the table itself when it is in that order already."""
    if not isinstance(observations, ObservationTable):
        observations = ObservationTable(observations)
    if (np.diff(observations.day) >= 0).all():
        return observations
    return ObservationTable(sorted(observations, key=lambda o: o.date))


class ForecastTable(DayTable):
    """Forecast records as columns, one row per record, in input order.

    `provider` holds indices into PROVIDERS; `target` (the `day`) and
    `issue` hold date ordinals and `horizon` their difference. `values`
    has one column per field of FORECAST_FIELDS. An absent value is stored
    as 0.0 behind its mask, never as NaN, so a stored NaN still fails the
    checks. `extras[i]` is row i's `extras` as sorted-key JSON text; the
    row view `table[i]` is a new ForecastRecord made from the columns and
    that text, decoded only then.
    """

    def __init__(self, provider, target, issue, values, present, extras):
        self.provider = provider
        self.target = self.day = target
        self.issue = issue
        self.horizon = target - issue
        self.values = values
        self.present = present
        self.extras = extras
        self._cells = None

    @classmethod
    def from_json(cls, provider, target, issue, fields, extras, rows):
        """A table of decoded JSON columns, checked as ForecastRecord checks a record.

        `provider`, `target` and `issue` list provider indices and date
        ordinals; `fields[name]` lists each row's JSON value, None where
        absent, and `extras` each row's extras text. The checks run on
        whole columns; the first row that fails one raises the RangeError
        its ForecastRecord raises, naming `rows[i]`.
        """
        provider = np.array(provider, dtype=np.int64)
        target = np.array(target, dtype=np.int64)
        issue = np.array(issue, dtype=np.int64)
        bad = np.zeros(len(target), dtype=bool)
        values, present = {}, {}
        for name in FORECAST_FIELDS:
            raw = fields[name]
            if not set(map(type, raw)) <= _FLOAT_OR_ABSENT:
                typed = np.array([_holds_float(v) for v in raw], dtype=bool)
                bad |= ~typed
                raw = [v if ok else None for v, ok in zip(raw, typed)]
            column = np.array(raw, dtype=object)
            present[name] = column != None  # noqa: E711 - element-wise
            column[~present[name]] = 0.0
            values[name] = column.astype(np.float64)
        bad |= rejected_rows(provider, target - issue, values, present)
        if bad.any():
            i = int(np.argmax(bad))
            if _unknown_provider(provider[i]):
                raise RangeError(f"not a stored forecast record: provider code {provider[i]} "
                                 f"outside 0..{len(PROVIDERS) - 1}", row=rows[i])
            try:
                ForecastRecord(PROVIDERS[provider[i]], dt.date.fromordinal(target[i]),
                               dt.date.fromordinal(issue[i]),
                               **{name: fields[name][i] for name in FORECAST_FIELDS})
            except (OverflowError, RangeError, TypeError) as exc:
                raise RangeError(f"not a stored forecast record: {exc!r}", row=rows[i]) from exc
            raise RangeError("not a stored forecast record: a value does not fit a float",
                             row=rows[i])
        return cls(provider, target, issue, values, present, np.array(extras, dtype=object))

    @classmethod
    def from_records(cls, records) -> "ForecastTable":
        """The table of `records` (JSON-serialisable `extras`); row views equal them."""
        records = list(records)
        return cls.from_json([PROVIDERS.index(r.provider) for r in records],
                             [r.target_date.toordinal() for r in records],
                             [r.issue_date.toordinal() for r in records],
                             {name: [getattr(r, name) for r in records]
                              for name in FORECAST_FIELDS},
                             [sorted_json(r.extras) for r in records], range(len(records)))

    @classmethod
    def concat(cls, tables) -> "ForecastTable":
        """The rows of `tables`, one table after another."""
        if not tables:
            return cls.from_records([])
        def cat(pick):
            return np.concatenate([pick(t) for t in tables])
        return cls(cat(lambda t: t.provider), cat(lambda t: t.target), cat(lambda t: t.issue),
                   {name: cat(lambda t: t.values[name]) for name in FORECAST_FIELDS},
                   {name: cat(lambda t: t.present[name]) for name in FORECAST_FIELDS},
                   cat(lambda t: t.extras))

    def __getitem__(self, i) -> ForecastRecord:
        return ForecastRecord(
            PROVIDERS[self.provider[i]], dt.date.fromordinal(self.target[i]),
            dt.date.fromordinal(self.issue[i]), extras=json.loads(self.extras[i]),
            **{name: float(self.values[name][i]) if self.present[name][i] else None
               for name in FORECAST_FIELDS})

    def providers(self) -> list:
        """The providers with rows here, in name order."""
        return sorted(PROVIDERS[code] for code in np.unique(self.provider).tolist())

    def take(self, rows) -> "ForecastTable":
        """The table of `rows` (indices into this one)."""
        return ForecastTable(self.provider[rows], self.target[rows], self.issue[rows],
                             {name: v[rows] for name, v in self.values.items()},
                             {name: p[rows] for name, p in self.present.items()},
                             self.extras[rows])

    def cell(self, provider: str, horizon: int) -> np.ndarray:
        """Rows of one (provider, horizon) cell by ascending target date, one per date.

        Where a (provider, horizon, target date) key repeats, the first
        record in input order answers it. The index behind this is built
        once per table and shared by every caller.
        """
        if self._cells is None:
            self._cells = self._build_index()
        return self._cells.get((provider, horizon), _NO_ROWS)

    def _build_index(self) -> dict:
        """{(provider, horizon): rows}: one stable sort by (provider, horizon, target date)."""
        order = np.lexsort((self.target, self.horizon, self.provider))
        cell = (self.provider * (MAX_HORIZON + 1) + self.horizon)[order]
        target = self.target[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (cell[1:] != cell[:-1]) | (target[1:] != target[:-1])
        order, cell = order[first], cell[first]
        return {(PROVIDERS[c // (MAX_HORIZON + 1)], c % (MAX_HORIZON + 1)): order[cell == c]
                for c in np.unique(cell).tolist()}


def rejected_rows(provider, horizon, values, present) -> np.ndarray:
    """Mask of the rows whose ForecastRecord would raise, checked on whole columns:
    an unknown provider, a horizon outside 0..MAX_HORIZON, a held value that is
    not finite or out of range, a missing temperature, or temp_min > temp_max."""
    bad = _unknown_provider(provider) | (horizon < 0) | (horizon > MAX_HORIZON)
    for name in FORECAST_FIELDS:
        x = values[name]
        low, high = units.RANGE[units.FIELD_QUANTITY[name]]
        bad |= present[name] & ~(np.isfinite(x) & (x >= low) & (x <= high))
    return (bad | ~present["temp_max"] | ~present["temp_min"]
            | (values["temp_min"] > values["temp_max"]))


def _unknown_provider(code):
    """Whether a provider code (or each of an array of them) indexes no entry of PROVIDERS."""
    return (code < 0) | (code >= len(PROVIDERS))


def _holds_float(value) -> bool:
    """Whether a stored JSON value is absent (None) or a number a float64 holds."""
    return value is None or (type(value) in (float, int) and abs(value) <= sys.float_info.max)


def as_table(forecasts) -> ForecastTable:
    """`forecasts` as a ForecastTable: the table itself, or the table of its records."""
    if isinstance(forecasts, ForecastTable):
        return forecasts
    return ForecastTable.from_records(forecasts)


def join_days(table: ForecastTable, ordinals, horizon, providers):
    """Join date ordinals to the horizon-`horizon` forecasts of `table`.

    Returns (positions in `ordinals`, table rows, coverage), one binary
    search per provider cell; a date takes the row of the first of
    `providers` whose cell has it.
    """
    if not 0 <= horizon <= MAX_HORIZON:
        raise RangeError(f"horizon {horizon} outside 0..{MAX_HORIZON}")
    chosen = np.full(len(ordinals), -1, dtype=np.intp)
    for provider in reversed(providers):
        rows = table.cell(provider, horizon)
        if rows.size:
            targets = table.target[rows]
            at = np.minimum(np.searchsorted(targets, ordinals), rows.size - 1)
            hit = targets[at] == ordinals
            chosen[hit] = rows[at[hit]]
    matched = np.flatnonzero(chosen >= 0)
    return matched, chosen[matched], matched.size / len(ordinals) if len(ordinals) else 0.0


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
    table = as_table(forecasts)
    ordered = by_date(observations)
    matched, rows, coverage = join_days(table, ordered.day, horizon, table.providers())
    pairs = [AlignedPair(date=ordered[i].date, observed=ordered[i], forecast=table[r])
             for i, r in zip(matched.tolist(), rows.tolist())]
    return AlignResult(pairs=pairs, coverage=coverage,
                       matched=len(pairs), total_observed=len(ordered))
