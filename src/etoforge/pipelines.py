"""The two estimation workflows and their shared feature/target plumbing.

Direct route: a neural model maps a reduced forecastable feature set
straight to reference ET. Hybrid route: a neural model estimates solar
radiation from the same features, and the physics module turns that
estimate plus the raw temperature/humidity/wind into reference ET.

The feature set is fixed and ordered: the four forecast-friendly weather
parameters (max/min temperature, mean humidity, mean wind at source
height), a cyclic day-of-year encoding, and the top-of-atmosphere
radiation for the site/date. Wind stays at its source measurement height
in features; only the physics path normalizes it to 2 m.
"""

from __future__ import annotations

import datetime as dt
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fao56
from .errors import (DomainError, EtoforgeError, FeatureMismatch, MissingField,
                     RangeError)
from .regressor import MlpModel, predict_batch
from .weather.records import (DayTable, ForecastRecord, ForecastTable, ObservationTable,
                              SiteMetadata, by_date)

FEATURE_NAMES = ("temp_max", "temp_min", "rh_avg", "wind_avg",
                 "doy_sin", "doy_cos", "ra")
ESTIMATORS = ("ET0_ANN", "ET0_HYB", "SR_ANN")
HYBRID_ERRORS = (DomainError, MissingField, RangeError)   # what reading ET0_HYB may raise
TARGET_ET0 = "ET0"
TARGET_SR = "SR"

# assumed measurement height for provider wind fields, configurable per call
DEFAULT_FORECAST_WIND_HEIGHT = 10.0

DOY_PERIOD = 365.25


@dataclass(frozen=True)
class FeatureVector:
    """One ordered row of model inputs, tagged with its origin."""

    date: dt.date
    values: tuple
    names: tuple
    source: str                   # WS | VC | OWM
    horizon: int | None           # set when forecast-sourced

    def __post_init__(self):
        if len(self.values) != len(self.names):
            raise FeatureMismatch(
                f"{len(self.values)} values for {len(self.names)} names")
        if not all(math.isfinite(v) for v in self.values):
            raise RangeError(f"non-finite feature values on {self.date}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class TargetSeries:
    """Per-day training targets: reference ET in mm/day or SR in W/m2."""

    dates: tuple
    values: np.ndarray
    kind: str  # TARGET_ET0 | TARGET_SR

    def __post_init__(self):
        if self.kind not in (TARGET_ET0, TARGET_SR):
            raise RangeError(f"unknown target kind {self.kind!r}")
        if len(self.dates) != len(self.values):
            raise RangeError("dates and values lengths differ")
        if len(self.values) and float(np.min(self.values)) < 0.0:
            raise RangeError(f"negative {self.kind} target value")


class Prediction(NamedTuple):
    """A non-negative estimate plus whether the zero clamp fired."""

    value: float
    clamped: bool


@dataclass(frozen=True)
class ModelBundle:
    """The trained models the three estimators draw on."""

    et0_model: object = None
    sr_model: object = None


def _read_once(records):
    """`records` as columns read once: a table as it is, a list of forecast
    records as a ForecastTable, of observations as an ObservationTable, in input order."""
    if isinstance(records, DayTable):
        return records
    records = list(records)
    if records and all(isinstance(r, ForecastRecord) for r in records):
        return ForecastTable.from_records(records)
    return ObservationTable(records)


def feature_matrix(records, site: SiteMetadata, names=FEATURE_NAMES):
    """Feature rows for many records: (matrix, dates) in input order.

    `names` may select a subset of the canonical features (order is
    taken from `names` and must match between training and inference).
    Raises MissingField naming the first absent required field. The
    calendar features use a 365.25-day period, so Dec 31 and Jan 1 land
    next to each other on the cycle.
    """
    fields = _read_once(records)
    return _features(fields, site, names), fields.dates


def _features(fields, site: SiteMetadata, names) -> np.ndarray:
    """The feature matrix of :func:`feature_matrix`, from columns read once."""
    names = tuple(names)
    unknown = [n for n in names if n not in FEATURE_NAMES]
    if unknown:
        raise FeatureMismatch(f"unknown feature name(s) {unknown}")
    if len(set(names)) != len(names):
        raise FeatureMismatch(f"feature names repeat: {list(names)}")
    doy = fields.day_of_year
    if not len(doy):
        return np.zeros((0, len(names)))
    columns = {name: fields.column(name)
               for name in ("temp_max", "temp_min", "rh_avg", "wind_avg")
               if name in names}
    angle = 2.0 * math.pi * doy / DOY_PERIOD
    columns["doy_sin"] = np.sin(angle)
    columns["doy_cos"] = np.cos(angle)
    columns["ra"] = fao56.extraterrestrial_radiation(site.latitude_rad, doy)
    return np.column_stack([columns[n] for n in names])


def make_features(record, site: SiteMetadata, names=FEATURE_NAMES) -> FeatureVector:
    """Build the fixed-order feature row for one observation or forecast.

    The one-row case of :func:`feature_matrix`.
    """
    matrix, dates = feature_matrix([record], site, names)
    forecast = isinstance(record, ForecastRecord)
    return FeatureVector(date=dates[0], values=tuple(matrix[0].tolist()),
                         names=tuple(names), source=record.provider if forecast else "WS",
                         horizon=record.horizon if forecast else None)


def _physics_et0(records, sr_wm2, site: SiteMetadata, humidity_mode: str,
                 wind_height=None) -> fao56.Et0Result:
    """The one physics path every ET target and hybrid estimate goes through.

    `records` supply temperature, humidity and wind. Wind height defaults
    to the site sensor height for observations and to the provider
    assumption, DEFAULT_FORECAST_WIND_HEIGHT, for forecasts. A failing day
    is named by its date.
    """
    fields = _read_once(records)
    humidity = ("rh_max", "rh_min") if humidity_mode == "extremes" else ("rh_avg",)
    columns = {name: fields.column(name)
               for name in ("temp_max", "temp_min", *humidity, "wind_avg")}
    if wind_height is None:
        wind_height = (DEFAULT_FORECAST_WIND_HEIGHT if isinstance(fields, ForecastTable)
                       else site.wind_sensor_height)
    try:
        return fao56.et0_fao56pm(fao56.Et0Inputs(
            temp_max=columns["temp_max"],
            temp_min=columns["temp_min"],
            wind_2m=fao56.wind_to_2m(columns["wind_avg"], wind_height),
            solar_rad=fao56.sr_wm2_to_mj(sr_wm2),
            latitude=site.latitude_rad,
            elevation=site.elevation,
            day_of_year=fields.day_of_year,
            humidity_mode=humidity_mode,
            **{name: columns[name] for name in humidity}))
    except (DomainError, RangeError) as exc:
        if exc.row is None:
            raise
        raise type(exc)(f"{fields.dates[exc.row]}: {exc.detail}") from exc


def build_et0_target(observations, site: SiteMetadata,
                     humidity_mode: str = "extremes") -> TargetSeries:
    """Per-day reference ET computed from station data (the training truth).

    Wind is normalized from the site sensor height; solar radiation is
    the daily-mean flux converted to MJ. humidity_mode picks between the
    rh-extremes form (default, stations report extremes) and the
    mean-humidity form used on forecast-driven paths.
    """
    fields = by_date(observations)
    result = _physics_et0(fields, fields.column("sr_avg"), site, humidity_mode)
    return TargetSeries(dates=tuple(fields.dates), values=result.et0, kind=TARGET_ET0)


def build_sr_target(observations) -> TargetSeries:
    """Daily-mean solar radiation, straight from the station record."""
    fields = by_date(observations)
    return TargetSeries(dates=tuple(fields.dates), values=fields.column("sr_avg"),
                        kind=TARGET_SR)


def _check_target(model: MlpModel, target: str):
    if model.target_name != target:
        raise FeatureMismatch(
            f"model targets {model.target_name!r}, expected {target!r}")


class Estimates(Mapping):
    """{estimator: (values, clamped)} from one :func:`estimate` call.

    An estimator whose step failed raises that error when it is read, and
    only then: a day the hybrid physics rejects fails ET0_HYB alone.
    """

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, estimator):
        entry = self._entries[estimator]
        if isinstance(entry, EtoforgeError):
            raise entry
        return entry

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def estimate(bundle: ModelBundle, records, site: SiteMetadata,
             wind_height: float | None = None) -> Estimates:
    """Score `records` (observations, forecast records or a ForecastTable)
    with every estimator `bundle` serves.

    Returns {estimator: (values, clamped)}, arrays in record order:
    ET0_ANN from the ET0 model; SR_ANN and ET0_HYB from the SR model.
    Each model runs once. ET0_HYB feeds the clamped SR estimate into the
    physics, flagged if either clamp fired; if the physics rejects the
    input, reading ET0_HYB raises that error. Each value is the one its
    record would get if scored alone. Each field is read from the records
    once, and only if a model or the physics needs it.
    """
    fields = _read_once(records)
    out = {}
    for estimator, model, target in (("ET0_ANN", bundle.et0_model, TARGET_ET0),
                                     ("SR_ANN", bundle.sr_model, TARGET_SR)):
        if model is not None:
            _check_target(model, target)
            matrix = _features(fields, site, model.feature_names)
            raw = predict_batch(model, matrix)
            out[estimator] = np.maximum(raw, 0.0), raw < 0.0
    if "SR_ANN" in out:
        sr, sr_clamped = out["SR_ANN"]
        try:
            physics = _physics_et0(fields, sr, site, "average", wind_height)
            out["ET0_HYB"] = physics.et0, sr_clamped | physics.clamped
        except HYBRID_ERRORS as exc:
            out["ET0_HYB"] = exc
    return Estimates(out)


def et0_from_sr(sr_wm2: float, raw_weather, site: SiteMetadata,
                wind_height: float | None = None) -> Prediction:
    """Physics half of the hybrid route for one day: given SR, run the ET equation.

    `raw_weather` supplies temperature, mean humidity and wind (an
    observation or a forecast record); wind height defaults as in the
    hybrid route. Exposing this step separately lets a perfect SR value
    be substituted for the model output, which must reproduce the ET
    target exactly.
    """
    result = _physics_et0([raw_weather], np.array([sr_wm2], dtype=np.float64), site,
                          "average", wind_height)
    return Prediction(value=float(result.et0[0]), clamped=bool(result.clamped[0]))


def et0_hybrid_predict(sr_model: MlpModel, raw_weather, site: SiteMetadata,
                       wind_height: float | None = None) -> Prediction:
    """Hybrid reference-ET estimate for one day: the ET0_HYB of :func:`estimate`."""
    values, clamped = estimate(ModelBundle(sr_model=sr_model), [raw_weather], site,
                               wind_height)["ET0_HYB"]
    return Prediction(value=float(values[0]), clamped=bool(clamped[0]))


def predictions_csv(estimator: str, keys, values, clamped) -> str:
    """Render one estimator's :func:`estimate` columns as the documented CSV;
    `keys` holds a (date, source, horizon) per value."""
    lines = ["date,source,horizon,estimator,value,clamped"]
    for (day, source, horizon), value, flag in zip(keys, values.tolist(), clamped.tolist()):
        horizon = "" if horizon is None else str(horizon)
        lines.append(f"{day.isoformat()},{source},{horizon},{estimator},{value!r},{int(flag)}")
    return "\n".join(lines) + "\n"
