"""Metric formulas, fidelity analysis, sweeps, thresholds, report emission."""

import datetime as dt
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etoforge import fao56, pipelines, regressor
from etoforge.errors import (DegenerateActuals, EmptyInput,
                             LengthMismatch, MissingCells, NoModels, NonFinite,
                             RangeError)
from etoforge.evalkit import (FIDELITY_FEATURES, FidelityReport, HorizonSweep,
                              MetricReport, ModelBundle, _aligned_cells,
                              compare_forecast_fidelity, distribution_chunks,
                              emit_report, error_distribution, horizon_sweep,
                              metrics, usable_horizon)
from etoforge.synthetic import (synthetic_forecasts, synthetic_observations,
                                synthetic_site)
from etoforge.weather import (ForecastTable, align_horizons, by_date, records_from_jsonl,
                              records_to_jsonl)

from .gen_golden import GOLDEN_PATH, build_report
from .test_pipelines import _polar_night, _zero_model


def _same_errors(a, b):
    """Whether two sweeps' `errors` hold the same cells, with the same (day ordinals,
    |error|) columns bit for bit."""
    return a.keys() == b.keys() and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for key in a for x, y in zip(a[key], b[key], strict=True))


def _brute_force(actual, predicted, eps=1e-9):
    """Plain-loop renditions of the five formulas, kept separate on purpose."""
    n = len(actual)
    mae = sum(abs(y - p) for y, p in zip(actual, predicted)) / n
    mse = sum((y - p) ** 2 for y, p in zip(actual, predicted)) / n
    rmse = mse ** 0.5
    mean = sum(actual) / n
    sst = sum((y - mean) ** 2 for y in actual)
    r2 = 1.0 - sum((y - p) ** 2 for y, p in zip(actual, predicted)) / sst
    kept = [(y, p) for y, p in zip(actual, predicted) if abs(y) >= eps]
    mape = (sum(abs(y - p) / abs(y) for y, p in kept) / len(kept) * 100.0
            if kept else math.nan)
    return dict(mae=mae, mse=mse, rmse=rmse, r2=r2, mape=mape)


# --- the five formulas ------------------------------------------------------------

def test_perfect_prediction():
    r = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (r.mae, r.mse, r.rmse, r.mape) == (0.0, 0.0, 0.0, 0.0)
    assert r.r2 == 1.0


def test_hand_worked_two_point_series():
    r = metrics([0.0, 2.0], [1.0, 1.0])
    assert r.mae == 1.0 and r.mse == 1.0 and r.rmse == 1.0
    assert r.r2 == 0.0
    assert r.mape == 50.0          # the y=0 point is excluded
    assert r.mape_excluded == 1


def test_mean_predictor_gives_exactly_zero_r2():
    actual = [3.0, 7.0, 5.0, 9.0]
    mean = sum(actual) / len(actual)
    r = metrics(actual, [mean] * 4)
    assert r.r2 == 0.0


def test_negative_r2_preserved():
    r = metrics([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert r.r2 < 0.0


def test_small_series_match_brute_force():
    cases = [
        ([1.0, 2.0], [1.5, 1.5]),
        ([0.3, 0.7, 1.1], [0.2, 0.9, 1.0]),
        ([5.0, 5.5, 6.0, 4.5], [5.2, 5.1, 6.3, 4.4]),
        ([-2.0, 1.0, 4.0], [-1.0, 0.0, 5.0]),
        ([10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [12, 18, 33, 39, 52, 58]),
    ]
    for actual, predicted in cases:
        r = metrics(actual, predicted)
        bf = _brute_force(actual, predicted)
        for name in ("mae", "mse", "rmse", "r2", "mape"):
            assert getattr(r, name) == pytest.approx(bf[name], rel=1e-12, abs=1e-12)


def test_metrics_errors():
    with pytest.raises(LengthMismatch):
        metrics([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        metrics([1.0], [1.0])
    with pytest.raises(DegenerateActuals):
        metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(NonFinite):
        metrics([1.0, float("nan")], [1.0, 2.0])


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(5)
    actual = rng.normal(5.0, 2.0, size=200)
    predicted = actual + rng.normal(0.0, 0.7, size=200)
    base = metrics(actual, predicted)
    order = rng.permutation(200)
    shuffled = metrics(actual[order], predicted[order])
    assert base == shuffled


_centi = st.integers(-100_000, 100_000).map(lambda k: k / 100.0)


@settings(max_examples=150, deadline=None, database=None)
@given(pairs=st.lists(st.tuples(_centi, _centi), min_size=2, max_size=60), data=st.data())
def test_metrics_invariant_under_any_permutation(pairs, data):
    actual, predicted = (np.array(series) for series in zip(*pairs))
    assume(np.ptp(actual) > 0.0)
    order = np.array(data.draw(st.permutations(range(len(pairs)))))
    assert metrics(actual[order], predicted[order], mape_epsilon=0.05) \
        == metrics(actual, predicted, mape_epsilon=0.05)


def test_mae_never_exceeds_rmse_and_rmse_squares_to_mse():
    rng = np.random.default_rng(6)
    for _ in range(20):
        actual = rng.normal(0.0, 3.0, size=50)
        predicted = actual + rng.normal(0.0, 1.0, size=50)
        r = metrics(actual, predicted)
        assert r.mae <= r.rmse * (1 + 1e-12)
        assert r.rmse ** 2 == pytest.approx(r.mse, rel=1e-12)


def test_mape_epsilon_exclusion_count():
    r = metrics([0.01, 5.0, 10.0], [1.0, 5.5, 9.0], mape_epsilon=0.05)
    assert r.mape_excluded == 1
    assert r.mape == pytest.approx((0.5 / 5.0 + 1.0 / 10.0) / 2 * 100.0)


def test_metric_report_invariants_enforced():
    with pytest.raises(RangeError):
        MetricReport(r2=1.2, rmse=1.0, mse=1.0, mae=0.5, mape=10.0, n=5)
    with pytest.raises(RangeError):
        MetricReport(r2=0.5, rmse=1.0, mse=1.0, mae=1.5, mape=10.0, n=5)
    with pytest.raises(RangeError):
        MetricReport(r2=0.5, rmse=1.0, mse=2.0, mae=0.5, mape=10.0, n=5)


# --- forecast fidelity ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    site = synthetic_site()
    observations = synthetic_observations(site, n_days=90, seed=11)
    return site, observations


def test_fidelity_perfect_provider_scores_one(small_world):
    _, observations = small_world
    perfect = synthetic_forecasts(observations, "VC", noise_base=0.0,
                                  noise_slope=0.0)
    report = compare_forecast_fidelity(observations, perfect,
                                       providers=("VC",), horizons=range(4))
    for feature in FIDELITY_FEATURES:
        for horizon in range(4):
            assert report.cells[(feature, "VC", horizon)] == 1.0


def test_fidelity_degrades_with_horizon(small_world):
    _, observations = small_world
    noisy = synthetic_forecasts(observations, "OWM", seed=3,
                                noise_base=0.2, noise_slope=0.6)
    report = compare_forecast_fidelity(observations, noisy, providers=("OWM",))
    for feature in ("TempMax", "TempMin", "HumidityAvg", "WindAvg"):
        r2s = [report.cells[(feature, "OWM", h)] for h in range(16)]
        slope = np.polyfit(range(16), r2s, 1)[0]
        assert slope < 0.0, feature


def test_fidelity_records_omissions_instead_of_aborting(small_world):
    site, observations = small_world
    dry = [type(o)(**{**o.__dict__, "precip": 0.0}) for o in observations]
    forecasts = synthetic_forecasts(dry, "VC", noise_base=0.0, noise_slope=0.0)
    report = compare_forecast_fidelity(dry, forecasts, providers=("VC",),
                                       horizons=range(2))
    assert ("Precipitation", "VC", 0) not in report.cells
    assert any(key[0] == "Precipitation" for key, _ in report.omissions)
    assert ("TempMax", "VC", 0) in report.cells


# --- the per-cell join -----------------------------------------------------------

def test_aligned_cells_equal_align_horizons(synth):
    _, observations, forecasts = synth
    table = ForecastTable.from_records(forecasts["VC"] + forecasts["OWM"])
    ordered = by_date(observations)
    seen = 0
    for provider, horizon, matched, rows, coverage in _aligned_cells(
            ordered, table, ("VC", "OWM"), range(16)):
        reference = align_horizons(observations, forecasts[provider], horizon)
        assert [ordered[i].date for i in matched] == [p.date for p in reference.pairs]
        assert all(ordered[i] == p.observed and table[r] == p.forecast
                   for i, r, p in zip(matched, rows, reference.pairs, strict=True))
        assert coverage == reference.coverage
        seen += 1
    assert seen == 32


def test_absent_optional_fields_are_masked_out(small_world, full_models):
    site, observations = small_world
    forecasts = synthetic_forecasts(observations, "VC", seed=2)
    lines = records_to_jsonl(forecasts).splitlines()
    for i in range(0, len(lines), 7):
        doc = json.loads(lines[i])
        del doc["rh_avg"]
        lines[i] = json.dumps(doc)
    table = records_from_jsonl("\n".join(lines))
    assert table[0].rh_avg is None
    kept = table.take(np.flatnonzero(table.present["rh_avg"]))
    horizons = range(3)
    fidelity = compare_forecast_fidelity(observations, table, ("VC",), horizons)
    assert fidelity.cells == {
        **compare_forecast_fidelity(observations, forecasts, ("VC",), horizons).cells,
        **{key: r2 for key, r2 in compare_forecast_fidelity(
            observations, kept, ("VC",), horizons).cells.items() if key[0] == "HumidityAvg"}}
    sweep = horizon_sweep(full_models, observations, table, site, horizons, ("VC",))
    masked = horizon_sweep(full_models, observations, kept, site, horizons, ("VC",))
    assert sweep.cells == masked.cells and _same_errors(sweep.errors, masked.errors)
    assert all(report.n < len(observations) for report in sweep.cells.values())


def test_sweep_omits_hybrid_cells_the_physics_rejects():
    """A polar site's SR model predicts shortwave in the polar night: the hybrid
    physics rejects that day, so each ET0_HYB cell is omitted with the physics
    reason while the same cells' ET0_ANN and SR_ANN are still scored."""
    site, _, _ = _polar_night()
    observations = synthetic_observations(site, n_days=365, seed=3)
    forecasts = synthetic_forecasts(observations, "VC", seed=3)
    bundle = ModelBundle(et0_model=_zero_model("ET0", 0.5), sr_model=_zero_model("SR", 5.0))
    sweep = horizon_sweep(bundle, observations, forecasts, site, horizons=(0, 1),
                          providers=("VC",), humidity_mode="average")
    reason = "2020-01-01: measured shortwave with zero extraterrestrial radiation"
    assert sweep.omissions == tuple(((h, "VC", "ET0_HYB"), reason) for h in (0, 1))
    assert sorted(sweep.cells) == sorted(sweep.errors) == [
        (h, "VC", estimator) for h in (0, 1) for estimator in ("ET0_ANN", "SR_ANN")]
    assert all(report.n == len(observations) for report in sweep.cells.values())


def test_sweep_fallback_omits_only_the_cells_whose_physics_fails():
    """The whole-sweep physics fails on a polar-night day of horizon 1 only. Each
    cell then reruns its own physics: (0, VC, ET0_HYB) is scored as in a sweep of
    horizon 0 alone, (1, VC, ET0_HYB) is omitted with its own first bad day, and
    the ANN cells of both horizons are scored."""
    site, _, _ = _polar_night()
    observations = synthetic_observations(site, n_days=365, seed=3)
    sunlit = {o.date for o in observations
              if fao56.extraterrestrial_radiation(site.latitude_rad,
                                                  o.date.timetuple().tm_yday) > 0.0}
    forecasts = [f for f in synthetic_forecasts(observations, "VC", seed=3)
                 if f.horizon != 0 or f.target_date in sunlit]
    bundle = ModelBundle(et0_model=_zero_model("ET0", 0.5), sr_model=_zero_model("SR", 5.0))
    sweep = horizon_sweep(bundle, observations, forecasts, site, horizons=(0, 1),
                          providers=("VC",), humidity_mode="average")
    reason = "2020-01-01: measured shortwave with zero extraterrestrial radiation"
    assert sweep.omissions == (((1, "VC", "ET0_HYB"), reason),)
    assert sorted(sweep.cells) == sorted(
        [(0, "VC", "ET0_HYB")] + [(h, "VC", e) for h in (0, 1) for e in ("ET0_ANN", "SR_ANN")])
    assert 2 <= sweep.cells[(0, "VC", "ET0_HYB")].n < len(observations)
    alone = horizon_sweep(bundle, observations, forecasts, site, horizons=(0,),
                          providers=("VC",), humidity_mode="average")
    assert not alone.omissions
    assert alone.cells == {k: v for k, v in sweep.cells.items() if k[0] == 0}
    assert _same_errors(alone.errors, {k: v for k, v in sweep.errors.items() if k[0] == 0})


def test_sweep_runs_each_model_once_over_every_cell(synth, full_models, monkeypatch):
    """The 2-provider, 16-horizon sweep scores all its cells' rows in one
    predict_batch call per model."""
    site, observations, forecasts = synth
    calls = []

    def counting(model, rows):
        calls.append((model.target_name, len(rows)))
        return regressor.predict_batch(model, rows)

    monkeypatch.setattr(pipelines, "predict_batch", counting)
    sweep = horizon_sweep(full_models, observations, forecasts["VC"] + forecasts["OWM"], site,
                          humidity_mode="average")
    assert len(sweep.cells) == 2 * 16 * 3
    rows = sum(report.n for key, report in sweep.cells.items() if key[2] == "SR_ANN")
    assert sorted(calls) == [("ET0", rows), ("SR", rows)]


def test_horizon_outside_range_is_rejected(small_world, full_models):
    site, observations = small_world
    forecasts = synthetic_forecasts(observations, "VC", seed=2)
    with pytest.raises(RangeError):
        horizon_sweep(full_models, observations, forecasts, site, horizons=[16],
                      providers=("VC",))
    with pytest.raises(RangeError):
        compare_forecast_fidelity(observations, forecasts, providers=("VC",),
                                  horizons=[16])


# --- horizon sweep ----------------------------------------------------------------

def test_sweep_perfect_provider_constant_across_horizons(small_world, full_models):
    site, observations = small_world
    perfect = synthetic_forecasts(observations, "VC", noise_base=0.0,
                                  noise_slope=0.0)
    sweep = horizon_sweep(full_models, observations, perfect, site,
                          horizons=range(5), providers=("VC",),
                          humidity_mode="average")
    for estimator in pipelines.ESTIMATORS:
        d0 = sweep.cells[(0, "VC", estimator)]
        for h in range(1, 5):
            assert sweep.cells[(h, "VC", estimator)] == d0


def test_sweep_cell_equals_manual_decomposition(small_world, full_models):
    site, observations = small_world
    forecasts = synthetic_forecasts(observations, "VC", seed=9,
                                    noise_base=0.3, noise_slope=0.4)
    sweep = horizon_sweep(full_models, observations, forecasts, site,
                          horizons=(2,), providers=("VC",),
                          humidity_mode="average")
    aligned = align_horizons(observations, forecasts, 2)
    actual = pipelines.build_et0_target(
        [p.observed for p in aligned.pairs], site, "average").values
    model = full_models.et0_model
    predicted = [
        max(regressor.forward(model, pipelines.make_features(
            p.forecast, site, model.feature_names).as_array()), 0.0)
        for p in aligned.pairs
    ]
    manual = metrics(actual, predicted, mape_epsilon=0.05, units="mm/day")
    assert sweep.cells[(2, "VC", "ET0_ANN")] == manual
    assert sweep.coverage[(2, "VC", "ET0_ANN")] == aligned.coverage


def test_sweep_requires_models(small_world, full_models):
    site, observations = small_world
    for models in (ModelBundle(), ModelBundle(et0_model=full_models.et0_model),
                   ModelBundle(sr_model=full_models.sr_model)):
        with pytest.raises(NoModels):
            horizon_sweep(models, observations, [], site)


def test_sweep_omits_thin_cells_without_aborting(small_world, full_models):
    site, observations = small_world
    one_day = synthetic_forecasts(observations[:1], "VC",
                                  noise_base=0.0, noise_slope=0.0)
    sweep = horizon_sweep(full_models, observations, one_day, site,
                          horizons=range(2), providers=("VC",),
                          humidity_mode="average")
    assert not sweep.cells
    assert len(sweep.omissions) == 6
    assert all("matched" in reason for _, reason in sweep.omissions)


def test_sweep_metadata_flags_assumptions(degradation_sweep):
    meta = degradation_sweep.metadata
    assert meta["forecast_wind_height_m"] == 10.0
    assert meta["humidity_mode"] == "average"
    assert "pooled" in meta["metric_pooling"]


# --- usable horizon -----------------------------------------------------------------

def _report_with(r2=None, mape=None):
    actual = [4.0, 5.0, 6.0, 7.0]
    if r2 is not None:
        alpha = 1.0 - math.sqrt(1.0 - r2)
        mean = sum(actual) / 4
        predicted = [mean + alpha * (y - mean) for y in actual]
        return metrics(actual, predicted)
    predicted = [y * (1.0 + mape / 100.0) for y in actual]
    return metrics(actual, predicted)


def _fake_sweep(r2_curve, provider="VC", estimator="ET0_ANN"):
    cells = {(h, provider, estimator): _report_with(r2=r2)
             for h, r2 in enumerate(r2_curve)}
    return HorizonSweep(cells=cells, coverage={k: 1.0 for k in cells})


def test_usable_horizon_first_failure():
    sweep = _fake_sweep([0.9, 0.8, 0.65])
    assert usable_horizon(sweep, "ET0_ANN", "VC", ("r2", 0.7)) == 1


def test_usable_horizon_all_pass_and_d0_failure():
    sweep = _fake_sweep([0.9] * 16)
    assert usable_horizon(sweep, "ET0_ANN", "VC", ("r2", 0.7)) == 15
    assert usable_horizon(_fake_sweep([0.5, 0.9]), "ET0_ANN", "VC",
                          ("r2", 0.7)) == -1


def test_usable_horizon_prefix_semantics():
    # a dip caps the answer even if later horizons recover
    sweep = _fake_sweep([0.9, 0.6, 0.95, 0.9])
    assert usable_horizon(sweep, "ET0_ANN", "VC", ("r2", 0.7)) == 0


@settings(max_examples=150, deadline=None, database=None)
@given(curve=st.lists(st.floats(-2.0, 1.0), min_size=1, max_size=16),
       tau=st.floats(-2.0, 1.0))
def test_usable_horizon_is_the_longest_passing_prefix(curve, tau):
    sweep = _fake_sweep(curve)
    u = usable_horizon(sweep, "ET0_ANN", "VC", ("r2", tau))
    r2 = [sweep.cells[(h, "VC", "ET0_ANN")].r2 for h in range(len(curve))]
    assert all(value >= tau for value in r2[:u + 1])
    assert u + 1 == len(r2) or r2[u + 1] < tau


def test_usable_horizon_monotone_in_threshold():
    sweep = _fake_sweep([0.95, 0.9, 0.8, 0.72, 0.6, 0.5])
    previous = 99
    for tau in (0.5, 0.6, 0.7, 0.8, 0.9):
        u = usable_horizon(sweep, "ET0_ANN", "VC", ("r2", tau))
        assert u <= previous
        previous = u


def test_usable_horizon_mape_criterion():
    cells = {(h, "VC", "ET0_ANN"): _report_with(mape=m)
             for h, m in enumerate([10.0, 20.0, 30.0])}
    sweep = HorizonSweep(cells=cells, coverage={k: 1.0 for k in cells})
    assert usable_horizon(sweep, "ET0_ANN", "VC", ("mape", 25.0)) == 1


def test_usable_horizon_missing_cells():
    cells = {(h, "VC", "ET0_ANN"): _report_with(r2=0.9) for h in (0, 2)}
    sweep = HorizonSweep(cells=cells, coverage={k: 1.0 for k in cells})
    with pytest.raises(MissingCells):
        usable_horizon(sweep, "ET0_ANN", "VC", ("r2", 0.7))
    with pytest.raises(RangeError):
        usable_horizon(sweep, "ET0_ANN", "VC", ("sharpe", 0.7))


# --- error distribution ---------------------------------------------------------------

def test_distribution_zero_for_perfect_predictor(small_world, full_models):
    site, observations = small_world
    perfect = synthetic_forecasts(observations, "VC", noise_base=0.0,
                                  noise_slope=0.0)
    sweep = horizon_sweep(full_models, observations, perfect, site,
                          horizons=(0,), providers=("VC",),
                          humidity_mode="average")
    dist = error_distribution(full_models, observations, perfect, site,
                              horizons=(0,), providers=("VC",),
                              humidity_mode="average")
    errors = [e for _, e in dist[(0, "VC", "ET0_ANN")]]
    assert np.mean(errors) == pytest.approx(
        sweep.cells[(0, "VC", "ET0_ANN")].mae, abs=1e-12)


def test_distribution_median_grows_with_horizon(synth, full_models, degradation_sweep):
    site, observations, forecasts = synth
    dist = error_distribution(full_models, observations, forecasts["VC"], site,
                              horizons=range(0, 16, 3), providers=("VC",),
                              humidity_mode="average")
    medians = [np.median([e for _, e in dist[(h, "VC", "ET0_HYB")]])
               for h in range(0, 16, 3)]
    assert np.polyfit(range(len(medians)), medians, 1)[0] > 0.0


# --- emission ---------------------------------------------------------------------------

def test_distribution_csv_is_the_plain_rendering(small_world, full_models):
    """The streamed distributions of a sweep's `errors` columns, one chunk per cell,
    are the plain rendering of those columns and equal `emit_report` of the
    `error_distribution` lists."""
    site, observations = small_world
    forecasts = synthetic_forecasts(observations, "VC", seed=2) \
        + synthetic_forecasts(observations, "OWM", seed=3)
    errors = horizon_sweep(full_models, observations, forecasts, site,
                           humidity_mode="average").errors
    assert all(days.dtype == np.int64 and error.dtype == np.float64
               for days, error in errors.values())
    plain = ["horizon,provider,estimator,date,abs_error"] + [
        f"{h},{p},{e},{dt.date.fromordinal(day).isoformat()},{err!r}"
        for (h, p, e) in sorted(errors)
        for day, err in zip(*(column.tolist() for column in errors[(h, p, e)]))]
    chunks = list(distribution_chunks(errors))
    assert len(chunks) == 1 + len(errors) == 1 + 16 * 2 * 3
    assert b"".join(chunks).decode("utf-8") == "\n".join(plain) + "\n"
    dist = error_distribution(full_models, observations, forecasts, site,
                              humidity_mode="average")
    assert emit_report(dist).encode("utf-8") == b"".join(chunks)


def test_sweep_csv_shape(degradation_sweep):
    lines = emit_report(degradation_sweep).strip().splitlines()
    assert lines[0] == ("horizon,provider,estimator,n,coverage,r2,rmse,mse,"
                        "mae,mape,mape_excluded")
    assert len(lines) == 1 + 16 * 2 * 3


def test_fidelity_csv_layout(small_world):
    _, observations = small_world
    forecasts = synthetic_forecasts(observations, "VC", seed=2)
    report = compare_forecast_fidelity(observations, forecasts,
                                       providers=("VC",), horizons=range(2))
    lines = emit_report(report).strip().splitlines()
    assert lines[0] == "feature,provider,horizon,r2"
    assert lines[1].startswith("TempMax,VC,0,")


def test_distribution_csv_layout(small_world, full_models):
    site, observations = small_world
    forecasts = synthetic_forecasts(observations, "VC", seed=2)
    dist = error_distribution(full_models, observations, forecasts, site,
                              horizons=(0,), providers=("VC",),
                              humidity_mode="average")
    lines = emit_report(dist).strip().splitlines()
    assert lines[0] == "horizon,provider,estimator,date,abs_error"
    head = lines[1].split(",")
    assert head[0] == "0" and head[1] == "VC"
    dt.date.fromisoformat(head[3])


def test_emit_rejects_empty_and_unknown():
    with pytest.raises(EmptyInput):
        emit_report(HorizonSweep(cells={}, coverage={}))
    with pytest.raises(EmptyInput):
        emit_report({})
    with pytest.raises(EmptyInput):
        emit_report(FidelityReport(cells={}))
    with pytest.raises(RangeError):
        emit_report(_fake_sweep([0.9]), "yaml")
    with pytest.raises(RangeError):   # csv is the one report format
        emit_report(_fake_sweep([0.9]), "json")
    with pytest.raises(RangeError):
        emit_report([0.9])


def test_emission_is_deterministic(degradation_sweep):
    assert emit_report(degradation_sweep) == emit_report(degradation_sweep, "csv")


def test_golden_fidelity_report():
    assert GOLDEN_PATH.is_file(), "regenerate with python -m tests.gen_golden"
    assert emit_report(build_report()) == GOLDEN_PATH.read_text()
