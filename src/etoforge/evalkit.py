"""Skill metrics, forecast-fidelity analysis, and the horizon sweep.

`metrics` computes the five regression measures (MAE, MAPE, MSE, RMSE,
R^2) exactly as defined, with correctly-rounded summation (math.fsum) so
results do not depend on sample order. The sweep machinery scores each
estimator against station-derived targets over forecast horizons d0..d15
per provider, the fidelity analysis scores the raw forecast features
themselves, and `usable_horizon` turns a quality threshold into the
largest horizon whose whole prefix satisfies it.

Negative R^2 values are reported as-is, never clipped. MAPE divides by
the actual value, so points with |actual| below a small epsilon (0.05
mm/day for ET, 1 W/m2 for SR) are excluded and counted.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from . import pipelines
from .errors import (DegenerateActuals, EmptyInput, LengthMismatch,
                     MissingCells, NoModels, NonFinite, RangeError)
from .pipelines import ESTIMATORS, TARGET_ET0, TARGET_SR, ModelBundle
from .weather.records import MAX_HORIZON, PROVIDERS, as_table, by_date, join_days

MAPE_EPSILON = {TARGET_ET0: 0.05, TARGET_SR: 1.0}
UNITS_NOTE = {TARGET_ET0: "mm/day", TARGET_SR: "W/m2"}

FIDELITY_FEATURES = ("TempMax", "TempMin", "HumidityAvg", "WindAvg",
                     "Precipitation")
_FEATURE_ATTR = {
    "TempMax": "temp_max",
    "TempMin": "temp_min",
    "HumidityAvg": "rh_avg",
    "WindAvg": "wind_avg",
    "Precipitation": "precip",
}


@dataclass(frozen=True)
class MetricReport:
    """The five measures over one (actual, predicted) series."""

    r2: float
    rmse: float
    mse: float
    mae: float
    mape: float          # percent; NaN when every point was epsilon-excluded
    n: int
    mape_excluded: int = 0
    units: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise RangeError(f"n={self.n} < 2")
        if abs(self.rmse * self.rmse - self.mse) > 1e-12 * max(self.mse, 1e-300):
            raise RangeError("rmse^2 does not match mse")
        if self.mae > self.rmse * (1.0 + 1e-12):
            raise RangeError("mae exceeds rmse")
        if self.r2 > 1.0:
            raise RangeError(f"r2={self.r2} > 1")
        if not math.isnan(self.mape) and self.mape < 0.0:
            raise RangeError(f"mape={self.mape} < 0")


def metrics(actual, predicted, *, mape_epsilon: float = 1e-9,
            units: str = "") -> MetricReport:
    """Score a prediction series against the measured one.

    Raises LengthMismatch unless both series have the same length >= 2,
    NonFinite on NaN/inf inputs, and DegenerateActuals when the actual
    series has zero variance (R^2 undefined).
    """
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    p = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if a.shape != p.shape:
        raise LengthMismatch(f"actual has {a.shape[0]} points, predicted {p.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise LengthMismatch(f"need at least 2 points, got {n}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise NonFinite("metrics inputs contain non-finite values")

    mean_a = math.fsum(a.tolist()) / n
    # float ** 2 (C pow) differs from d * d in the last bit on some inputs;
    # keeping it keeps every R^2 ever reported bit-identical
    sst = math.fsum([(y - mean_a) ** 2 for y in a.tolist()])
    if sst == 0.0:
        raise DegenerateActuals("actual series has zero variance; R^2 undefined")
    d = a - p
    sse = math.fsum((d * d).tolist())
    mae = math.fsum(np.abs(d).tolist()) / n
    mse = sse / n
    rmse = math.sqrt(mse)
    r2 = 1.0 - sse / sst

    keep = np.abs(a) >= mape_epsilon
    included = int(np.count_nonzero(keep))
    excluded = n - included
    if included:
        mape = math.fsum((np.abs(d[keep]) / np.abs(a[keep])).tolist()) / included * 100.0
    else:
        mape = math.nan
    return MetricReport(r2=r2, rmse=rmse, mse=mse, mae=mae, mape=mape,
                        n=n, mape_excluded=excluded, units=units)


_CELL_ERRORS = (LengthMismatch, DegenerateActuals, NonFinite, *pipelines.HYBRID_ERRORS)


def _aligned_cells(ordered, table, providers, horizons):
    """(provider, horizon, observation positions, table rows, coverage) per cell.

    `ordered` is the observation table in date order; each cell is one join
    on the forecast table's one cached (provider, horizon) index.
    """
    for provider in providers:
        for horizon in horizons:
            yield (provider, horizon, *join_days(table, ordered.day, horizon, (provider,)))


@dataclass(frozen=True)
class FidelityReport:
    """R^2 of the raw forecast features against the station measurements."""

    cells: dict            # (feature, provider, horizon) -> r2
    omissions: tuple = ()  # ((feature, provider, horizon), reason)


def compare_forecast_fidelity(observations, forecasts, providers=None,
                              horizons=range(MAX_HORIZON + 1)) -> FidelityReport:
    """Score each forecast feature per provider per horizon.

    Cells that cannot be scored (no overlap, constant actuals, feature
    never supplied) are recorded as omissions instead of aborting the
    sweep. Negative R^2 values are kept.
    """
    table = as_table(forecasts)
    if providers is None:
        providers = tuple(table.providers()) or PROVIDERS
    ordered = by_date(observations)
    cells = {}
    omissions = []
    for provider, horizon, matched, rows, _ in _aligned_cells(ordered, table, providers,
                                                               horizons):
        for feature in FIDELITY_FEATURES:
            attr = _FEATURE_ATTR[feature]
            key = (feature, provider, horizon)
            usable = table.present[attr][rows]
            try:
                if usable.sum() < 2:
                    raise LengthMismatch(f"only {usable.sum()} usable pairs")
                cells[key] = metrics(ordered.column(attr)[matched[usable]],
                                     table.values[attr][rows[usable]]).r2
            except (LengthMismatch, DegenerateActuals, NonFinite) as exc:
                omissions.append((key, str(exc)))
    return FidelityReport(cells=cells, omissions=tuple(omissions))


@dataclass(frozen=True)
class HorizonSweep:
    """MetricReports per (horizon, provider, estimator), plus coverage."""

    cells: dict            # (horizon, provider, estimator) -> MetricReport
    coverage: dict         # (horizon, provider, estimator) -> matched/total
    omissions: tuple = ()
    metadata: dict = field(default_factory=dict)
    # key -> (day ordinals int64, |error| float64) the cells were scored from
    errors: dict = field(default_factory=dict, compare=False, repr=False)

    def horizons(self, provider: str, estimator: str):
        return sorted(h for (h, p, e) in self.cells
                      if p == provider and e == estimator)


def horizon_sweep(models: ModelBundle, observations, forecasts, site,
                  horizons=range(MAX_HORIZON + 1), providers=PROVIDERS,
                  humidity_mode: str = "extremes",
                  forecast_wind_height: float | None = None) -> HorizonSweep:
    """Score every estimator over every (horizon, provider) cell.

    Inference only: models are read, never retrained, and both must be
    given (NoModels otherwise). The station targets are computed once and
    indexed by date. Every cell is joined first, then one pipelines.estimate
    call scores the matched dates of all cells whose forecast carries
    humidity and wind, and each cell takes its slice. Cells with fewer than
    two matched dates, that fail metric preconditions, or (ET0_HYB) whose
    physics rejects a day are left out and listed in `omissions` with the
    reason; the sweep never aborts on a cell. The per-day absolute errors of
    every scored cell are kept in `errors` as two columns, the days' ordinals
    and the errors (see :func:`error_distribution`).
    """
    if models.et0_model is None or models.sr_model is None:
        raise NoModels("the sweep needs trained ET0 and SR models")
    ordered = by_date(observations)
    table = as_table(forecasts)
    targets = {TARGET_ET0: pipelines.build_et0_target(ordered, site, humidity_mode).values,
               TARGET_SR: pipelines.build_sr_target(ordered).values}
    joined = []
    for provider, horizon, matched, rows, cell_coverage in _aligned_cells(
            ordered, table, providers, horizons):
        usable = table.present["rh_avg"][rows] & table.present["wind_avg"][rows]
        joined.append((provider, horizon, matched, matched[usable], rows[usable], cell_coverage))
    scored = np.concatenate([np.zeros(0, dtype=np.intp), *(rows for *_, rows, _ in joined)])
    estimates = pipelines.estimate(models, table.take(scored), site, forecast_wind_height)
    end = 0
    cells, coverage, omissions, errors = {}, {}, [], {}
    for provider, horizon, matched, positions, rows, cell_coverage in joined:
        cell = slice(end, end + rows.size)
        end = cell.stop
        for estimator in ESTIMATORS:
            key = (horizon, provider, estimator)
            kind = TARGET_SR if estimator == "SR_ANN" else TARGET_ET0
            try:
                try:
                    predicted = estimates[estimator][0][cell]
                except pipelines.HYBRID_ERRORS:  # a day failed: rerun this cell's physics only
                    sr = estimates["SR_ANN"][0][cell]
                    predicted = pipelines._physics_et0(table.take(rows), sr, site, "average",
                                                       forecast_wind_height).et0
                actual = targets[kind][positions]
                errors[key] = ordered.day[positions], np.abs(actual - predicted)
                if matched.size < 2:
                    raise LengthMismatch(f"only {matched.size} matched dates")
                cells[key] = metrics(actual, predicted, mape_epsilon=MAPE_EPSILON[kind],
                                     units=UNITS_NOTE[kind])
                coverage[key] = cell_coverage
            except _CELL_ERRORS as exc:
                omissions.append((key, str(exc)))
    wind_note = (pipelines.DEFAULT_FORECAST_WIND_HEIGHT
                 if forecast_wind_height is None else forecast_wind_height)
    return HorizonSweep(
        cells=cells, coverage=coverage, omissions=tuple(omissions),
        metadata={
            "humidity_mode": humidity_mode,
            "forecast_wind_height_m": wind_note,
            "metric_pooling": "all matched dates pooled across years",
        },
        errors=errors)


def usable_horizon(sweep: HorizonSweep, estimator: str, provider: str,
                   criterion) -> int:
    """Largest horizon h whose entire prefix d0..dh satisfies `criterion`.

    `criterion` is ("r2", tau) for R^2 >= tau or ("mape", tau) for
    MAPE <= tau. Returns -1 when d0 already fails. The skill curves are
    not monotone near the tail, so this is deliberately a prefix claim:
    one bad horizon caps everything after it.
    """
    name, tau = criterion
    if name not in ("r2", "mape"):
        raise RangeError(f"criterion must be ('r2', tau) or ('mape', tau), got {name!r}")
    hs = sweep.horizons(provider, estimator)
    if not hs or hs != list(range(hs[-1] + 1)):
        raise MissingCells(
            f"sweep lacks contiguous horizons from d0 for {provider}/{estimator}: {hs}")
    usable = -1
    for h in hs:
        report = sweep.cells[(h, provider, estimator)]
        value = report.r2 if name == "r2" else report.mape
        ok = value >= tau if name == "r2" else value <= tau
        if not ok:
            break
        usable = h
    return usable


def error_distribution(models: ModelBundle, observations, forecasts, site,
                       horizons=range(MAX_HORIZON + 1), providers=PROVIDERS,
                       humidity_mode: str = "extremes",
                       forecast_wind_height: float | None = None) -> dict:
    """Raw per-day absolute errors for external distribution plotting.

    Returns (horizon, provider, estimator) -> list of (date, |error|),
    with no binning or density estimation. It is a view of the sweep's
    scored rows (``horizon_sweep(...).errors``): every cell the sweep
    scored appears, also one whose metrics failed.
    """
    errors = horizon_sweep(models, observations, forecasts, site, horizons, providers,
                           humidity_mode, forecast_wind_height).errors
    return {key: list(zip(map(dt.date.fromordinal, days.tolist()), error.tolist()))
            for key, (days, error) in errors.items()}


# --- report emission --------------------------------------------------------

def _float_cell(x: float) -> str:
    return repr(float(x))


def _sweep_csv(sweep: HorizonSweep) -> str:
    lines = ["horizon,provider,estimator,n,coverage,r2,rmse,mse,mae,mape,mape_excluded"]
    for key in sorted(sweep.cells):
        h, p, e = key
        r = sweep.cells[key]
        cov = sweep.coverage.get(key, 0.0)
        lines.append(",".join([
            str(h), p, e, str(r.n), _float_cell(cov), _float_cell(r.r2),
            _float_cell(r.rmse), _float_cell(r.mse), _float_cell(r.mae),
            _float_cell(r.mape), str(r.mape_excluded)]))
    return "\n".join(lines) + "\n"


def _fidelity_csv(report: FidelityReport) -> str:
    lines = ["feature,provider,horizon,r2"]
    order = {f: i for i, f in enumerate(FIDELITY_FEATURES)}
    for key in sorted(report.cells, key=lambda k: (order.get(k[0], 99), k[1], k[2])):
        feature, provider, horizon = key
        lines.append(f"{feature},{provider},{horizon},{_float_cell(report.cells[key])}")
    return "\n".join(lines) + "\n"


def distribution_chunks(errors: dict):
    """`distributions.csv` of a sweep's `errors` columns as UTF-8 bytes, one chunk per cell."""
    yield b"horizon,provider,estimator,date,abs_error\n"
    iso = {}
    for key in sorted(errors):
        prefix, (days, error) = "{},{},{},".format(*key), errors[key]
        dates = [iso.get(day) or iso.setdefault(day, dt.date.fromordinal(day).isoformat())
                 for day in days.tolist()]
        yield "".join([f"{prefix}{date},{err!r}\n"
                       for date, err in zip(dates, error.tolist())]).encode("utf-8")


def emit_report(report, fmt: str = "csv") -> str:
    """Render a sweep, fidelity report, or error distribution as csv.

    csv is the one format; `fmt` names it, and any other value raises
    RangeError. Output is byte-stable for identical input: rows are emitted
    in sorted key order and floats with full round-trip precision.
    """
    if fmt != "csv":
        raise RangeError(f"unknown format {fmt!r}")
    if isinstance(report, HorizonSweep):
        if not report.cells:
            raise EmptyInput("sweep has no cells")
        return _sweep_csv(report)
    if isinstance(report, FidelityReport):
        if not report.cells:
            raise EmptyInput("fidelity report has no cells")
        return _fidelity_csv(report)
    if isinstance(report, dict):
        if not report:
            raise EmptyInput("error distribution is empty")
        columns = {key: (np.array([day.toordinal() for day, _ in rows], dtype=np.int64),
                         np.array([err for _, err in rows], dtype=np.float64))
                   for key, rows in report.items()}
        return b"".join(distribution_chunks(columns)).decode("utf-8")
    raise RangeError(f"cannot emit a report for {type(report).__name__}")
