"""Feature assembly, target construction, and the two estimation routes."""

import datetime as dt

import numpy as np
import pytest

from etoforge import fao56, pipelines, regressor
from etoforge.errors import DomainError, FeatureMismatch, MissingField
from etoforge.pipelines import (FEATURE_NAMES, FeatureVector, ModelBundle,
                                build_et0_target, build_sr_target, estimate,
                                et0_from_sr, et0_hybrid_predict, feature_matrix,
                                make_features, predictions_csv)
from etoforge.weather import DailyObservation, ForecastRecord, SiteMetadata

from . import fao56_oracle as oracle

SITE = SiteMetadata("t", latitude=37.05, longitude=-8.0, elevation=25.0,
                    wind_sensor_height=2.0)


def _obs(day, **kw):
    base = dict(temp_max=26.0, temp_min=14.0, temp_avg=20.0, rh_max=85.0,
                rh_min=35.0, rh_avg=60.0, wind_avg=2.2, sr_avg=240.0,
                precip=0.0)
    base.update(kw)
    return DailyObservation(date=day, **base)


def _fc(day, horizon=0, **kw):
    base = dict(temp_max=26.0, temp_min=14.0, rh_avg=60.0, wind_avg=2.2)
    base.update(kw)
    return ForecastRecord(provider="VC", target_date=day,
                          issue_date=day - dt.timedelta(days=horizon), **base)


def _zero_model(target, bias=0.0, names=FEATURE_NAMES):
    n = len(names)
    scaler = regressor.Scaler(feature_names=tuple(names),
                              mean=np.zeros(n), std=np.ones(n))
    return regressor.MlpModel(
        layer_sizes=(n, 1), weights=(np.zeros((n, 1)),),
        biases=(np.array([bias]),), activation="relu", scaler=scaler,
        target_name=target)


def _polar_night():
    """(site, observations, d0 forecasts) of two days with no sun at all.

    An SR model that predicts any shortwave there gives the hybrid
    physics a day it rejects.
    """
    site = SiteMetadata("polar", latitude=80.0, longitude=15.0, elevation=10.0,
                        wind_sensor_height=2.0)
    days = [dt.date(2022, 12, 20), dt.date(2022, 12, 21)]
    observations = [_obs(day, temp_max=-5.0 + i, temp_min=-12.0, temp_avg=-8.0,
                         rh_max=90.0, rh_min=70.0, rh_avg=80.0, sr_avg=0.0)
                    for i, day in enumerate(days)]
    forecasts = [_fc(day, temp_max=-5.0 + i, temp_min=-12.0, rh_avg=80.0)
                 for i, day in enumerate(days)]
    return site, observations, forecasts


# --- features ----------------------------------------------------------------

def test_ws_and_forecast_rows_agree_up_to_source_tag():
    day = dt.date(2022, 7, 15)
    fv_ws = make_features(_obs(day), SITE)
    fv_fc = make_features(_fc(day, horizon=4), SITE)
    assert fv_ws.values == fv_fc.values
    assert fv_ws.source == "WS" and fv_ws.horizon is None
    assert fv_fc.source == "VC" and fv_fc.horizon == 4


def test_missing_humidity_named():
    with pytest.raises(MissingField) as err:
        make_features(_fc(dt.date(2022, 7, 15), rh_avg=None), SITE)
    assert err.value.field == "rh_avg"


def test_cyclic_encoding_wraps_the_year_boundary():
    jan1 = make_features(_obs(dt.date(2022, 1, 1)), SITE)
    dec31 = make_features(_obs(dt.date(2022, 12, 31)), SITE)
    jul1 = make_features(_obs(dt.date(2022, 7, 1)), SITE)
    i_sin, i_cos = FEATURE_NAMES.index("doy_sin"), FEATURE_NAMES.index("doy_cos")
    # sin(2pi/365.25) vs sin(2pi*365/365.25): 0.0172 vs -0.0043
    assert abs(jan1.values[i_sin] - dec31.values[i_sin]) < 0.03
    assert abs(jan1.values[i_cos] - dec31.values[i_cos]) < 1e-3
    assert abs(jan1.values[i_cos] - jul1.values[i_cos]) > 1.9


def test_feature_order_is_stable_and_ra_matches_physics():
    day = dt.date(2022, 7, 15)
    fv = make_features(_obs(day), SITE)
    assert fv.names == FEATURE_NAMES
    doy = day.timetuple().tm_yday
    assert fv.values[-1] == fao56.extraterrestrial_radiation(SITE.latitude_rad, doy)
    assert fv.values[0] == 26.0 and fv.values[1] == 14.0


def test_feature_subset_selection():
    fv = make_features(_obs(dt.date(2022, 7, 15)), SITE,
                       names=("rh_avg", "temp_max"))
    assert fv.names == ("rh_avg", "temp_max")
    assert fv.values == (60.0, 26.0)
    with pytest.raises(FeatureMismatch):
        make_features(_obs(dt.date(2022, 7, 15)), SITE, names=("bogus",))
    with pytest.raises(FeatureMismatch, match="repeat"):
        make_features(_obs(dt.date(2022, 7, 15)), SITE, names=("temp_max", "temp_max"))


def test_feature_vector_validates_shape():
    with pytest.raises(FeatureMismatch):
        FeatureVector(date=dt.date(2022, 1, 1), values=(1.0, 2.0), names=FEATURE_NAMES,
                      source="WS", horizon=None)


# --- targets -------------------------------------------------------------------

def test_et0_target_single_day_composition():
    day = dt.date(2022, 7, 15)
    obs = _obs(day)
    target = build_et0_target([obs], SITE)
    direct = fao56.et0_fao56pm(fao56.Et0Inputs(
        temp_max=obs.temp_max, temp_min=obs.temp_min,
        wind_2m=fao56.wind_to_2m(obs.wind_avg, SITE.wind_sensor_height),
        solar_rad=fao56.sr_wm2_to_mj(obs.sr_avg),
        latitude=SITE.latitude_rad, elevation=SITE.elevation,
        day_of_year=day.timetuple().tm_yday,
        humidity_mode="extremes", rh_max=obs.rh_max, rh_min=obs.rh_min))
    assert target.values[0] == direct.et0
    assert target.kind == "ET0"


def test_et0_target_two_year_series(synth, synth_targets):
    series = synth_targets["ET0"]
    assert len(series.values) == 730
    assert float(np.min(series.values)) >= 0.0
    assert series.dates == tuple(o.date for o in synth[1])


def test_et0_target_matches_oracle_fixture_day(oracle_fixture):
    p = next(q for q in oracle_fixture["et0_points"] if q["name"] == "semiarid-summer")
    day = dt.date(2022, 7, 15)          # doy 196, matching the fixture
    obs = _obs(day, temp_max=33.0, temp_min=19.0, temp_avg=26.0,
               rh_avg=45.0, rh_max=75.0, rh_min=25.0,
               wind_avg=2.5, sr_avg=p["solar_rad_mj"] / fao56.WM2_TO_MJ)
    target = build_et0_target([obs], SITE, humidity_mode="average")
    assert abs(target.values[0] - p["expected_et0"]) <= 0.01


def test_sr_target_is_field_projection():
    days = [dt.date(2022, 7, 15) + dt.timedelta(days=i) for i in range(3)]
    observations = [_obs(d, sr_avg=200.0 + i) for i, d in enumerate(days)]
    series = build_sr_target(observations)
    assert series.kind == "SR"
    assert list(series.values) == [200.0, 201.0, 202.0]
    assert series.dates == tuple(days)


# --- predictors -----------------------------------------------------------------

def _forward(model, record, site):
    """One record scored by the bare network and clamped: the reference the
    batch path is checked against."""
    return max(regressor.forward(model, make_features(record, site,
                                                      model.feature_names).as_array()), 0.0)


def test_predictors_clamp_and_flag():
    records = [_obs(dt.date(2022, 7, 15)), _obs(dt.date(2022, 7, 16))]
    rigged = ModelBundle(et0_model=_zero_model("ET0", bias=-0.3),
                         sr_model=_zero_model("SR", bias=-5.0))
    estimates = estimate(rigged, records, SITE)
    for estimator in ("ET0_ANN", "SR_ANN"):
        values, clamped = estimates[estimator]
        assert values.tolist() == [0.0, 0.0] and clamped.tolist() == [True, True]
    # a clamped SR estimate flags the hybrid value built from it
    assert estimates["ET0_HYB"][1].tolist() == [True, True]


def test_predictors_are_deterministic():
    records = [_obs(dt.date(2022, 7, 15))]
    bundle = ModelBundle(et0_model=_zero_model("ET0", bias=1.25),
                         sr_model=_zero_model("SR", bias=180.0))
    first, again = estimate(bundle, records, SITE), estimate(bundle, records, SITE)
    for estimator in pipelines.ESTIMATORS:
        assert first[estimator][0].tolist() == again[estimator][0].tolist()
        assert first[estimator][1].tolist() == again[estimator][1].tolist()
    assert first["ET0_ANN"][0].tolist() == [1.25]
    assert first["SR_ANN"][0].tolist() == [180.0]


def test_target_and_feature_mismatches():
    records = [_obs(dt.date(2022, 7, 15))]
    with pytest.raises(FeatureMismatch, match="model targets 'SR', expected 'ET0'"):
        estimate(ModelBundle(et0_model=_zero_model("SR")), records, SITE)
    with pytest.raises(FeatureMismatch, match="model targets 'ET0', expected 'SR'"):
        estimate(ModelBundle(sr_model=_zero_model("ET0")), records, SITE)
    unknown = _zero_model("ET0", names=("temp_max", "bogus"))
    with pytest.raises(FeatureMismatch, match="unknown feature name"):
        estimate(ModelBundle(et0_model=unknown), records, SITE)
    # a name given twice would feed an input from another feature's column
    repeated = _zero_model("SR", names=("temp_max",) * 7)
    with pytest.raises(FeatureMismatch, match="feature names repeat"):
        estimate(ModelBundle(sr_model=repeated), records, SITE)
    # a model on a feature subset is fed that subset, in its own order
    subset = _zero_model("ET0", bias=2.0, names=("temp_min", "temp_max"))
    assert estimate(ModelBundle(et0_model=subset), records, SITE)["ET0_ANN"][0].tolist() == [2.0]


def test_inference_does_not_mutate_the_model(desk_scale):
    model = desk_scale["et0_model"]
    before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
    for _ in range(5):
        estimate(ModelBundle(et0_model=model), [_obs(dt.date(2022, 7, 15))], SITE)
    after = list(model.weights) + list(model.biases)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_predictions_are_finite_over_the_whole_record(synth, full_models):
    site, observations, _ = synth
    estimates = estimate(full_models, observations, site)
    for estimator in pipelines.ESTIMATORS:
        values, _ = estimates[estimator]
        assert len(values) == len(observations)
        assert np.all(np.isfinite(values)), estimator


def test_estimate_equals_one_row_predictors(synth, full_models):
    # one estimate call scores a batch with every estimator; each value must
    # be the one its record gets when scored alone, and the bare network's
    # output on its feature row, bit for bit
    site, observations, forecasts = synth
    records = forecasts["VC"][::97]
    estimates = estimate(full_models, records, site)
    assert set(estimates) == set(pipelines.ESTIMATORS)
    alone = [estimate(full_models, [r], site) for r in records]
    for estimator in pipelines.ESTIMATORS:
        values, clamped = estimates[estimator]
        assert values.tolist() == [a[estimator][0][0] for a in alone], estimator
        assert clamped.tolist() == [a[estimator][1][0] for a in alone], estimator
    for estimator, model in (("ET0_ANN", full_models.et0_model),
                             ("SR_ANN", full_models.sr_model)):
        assert estimates[estimator][0].tolist() == [_forward(model, r, site)
                                                    for r in records], estimator
    hybrid = [et0_from_sr(_forward(full_models.sr_model, r, site), r, site).value
              for r in records]
    assert estimates["ET0_HYB"][0].tolist() == hybrid


def test_estimate_returns_what_the_bundle_serves(synth, full_models):
    site, observations, _ = synth
    et0_only = pipelines.ModelBundle(et0_model=full_models.et0_model)
    sr_only = pipelines.ModelBundle(sr_model=full_models.sr_model)
    assert set(pipelines.estimate(et0_only, observations[:3], site)) == {"ET0_ANN"}
    assert set(pipelines.estimate(sr_only, observations[:3], site)) == {"SR_ANN", "ET0_HYB"}
    assert pipelines.estimate(pipelines.ModelBundle(), observations[:3], site) == {}


def test_estimate_runs_each_model_once(synth, full_models, monkeypatch):
    site, _, forecasts = synth
    calls = []

    def counting(model, rows):
        calls.append(model.target_name)
        return regressor.predict_batch(model, rows)

    monkeypatch.setattr(pipelines, "predict_batch", counting)
    pipelines.estimate(full_models, forecasts["VC"][:20], site)
    assert sorted(calls) == ["ET0", "SR"]


def test_estimate_reads_each_field_once(synth, full_models):
    site, _, forecasts = synth
    reads = []

    class CountingRecord(ForecastRecord):
        def __getattribute__(self, name):
            if name == "temp_max":
                reads.append(1)
            return super().__getattribute__(name)

    records = [CountingRecord(**{f: getattr(r, f) for f in r.__dataclass_fields__})
               for r in forecasts["VC"][:40]]
    reads.clear()
    estimates = pipelines.estimate(full_models, records, site)
    assert set(estimates) == set(pipelines.ESTIMATORS)
    assert len(reads) == len(records)


def test_estimate_defers_a_physics_error_to_et0_hyb():
    site, observations, _ = _polar_night()
    estimates = pipelines.estimate(pipelines.ModelBundle(sr_model=_zero_model("SR", 5.0)),
                                   observations, site)
    assert set(estimates) == {"SR_ANN", "ET0_HYB"}
    assert estimates["SR_ANN"][0].tolist() == [5.0, 5.0]
    with pytest.raises(DomainError, match="2022-12-20"):
        estimates["ET0_HYB"]


def test_estimate_checks_models(synth, full_models):
    site, observations, _ = synth
    swapped = pipelines.ModelBundle(et0_model=full_models.sr_model)
    with pytest.raises(FeatureMismatch):
        pipelines.estimate(swapped, observations[:3], site)
    swapped = pipelines.ModelBundle(sr_model=full_models.et0_model)
    with pytest.raises(FeatureMismatch):
        pipelines.estimate(swapped, observations[:3], site)


# --- hybrid route ----------------------------------------------------------------

def test_hybrid_identity_with_true_sr(synth):
    site, observations, _ = synth
    target = build_et0_target(observations[:50], site, humidity_mode="average")
    for obs, expected in zip(observations[:50], target.values):
        got = et0_from_sr(obs.sr_avg, obs, site)
        assert got.value == expected


def test_hybrid_with_zero_sr_equals_shortwave_free_chain(synth):
    site, observations, _ = synth
    obs = observations[200]
    got = et0_from_sr(0.0, obs, site)
    lat = site.latitude_rad
    doy = obs.date.timetuple().tm_yday
    expected, _ = oracle.reference_et0(
        obs.temp_max, obs.temp_min,
        oracle.ea_from_mean(obs.temp_max, obs.temp_min, obs.rh_avg),
        oracle.wind_at_2m(obs.wind_avg, site.wind_sensor_height),
        0.0, lat, site.elevation, doy)
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_hybrid_uses_provider_wind_height_for_forecasts():
    fc = _fc(dt.date(2022, 7, 15))
    bundle = ModelBundle(sr_model=_zero_model("SR", bias=240.0))
    default = estimate(bundle, [fc], SITE)["ET0_HYB"][0][0]
    at_10m = estimate(bundle, [fc], SITE, wind_height=10.0)["ET0_HYB"][0][0]
    at_2m = estimate(bundle, [fc], SITE, wind_height=2.0)["ET0_HYB"][0][0]
    assert default == at_10m == et0_from_sr(240.0, fc, SITE, wind_height=10.0).value
    assert at_2m == et0_from_sr(240.0, fc, SITE, wind_height=2.0).value
    assert default != at_2m   # 10 m default vs explicit 2 m
    assert et0_hybrid_predict(bundle.sr_model, fc, SITE, wind_height=2.0).value == at_2m


def test_hybrid_propagates_missing_fields():
    fc = _fc(dt.date(2022, 7, 15), wind_avg=None)
    with pytest.raises(MissingField):
        et0_from_sr(200.0, fc, SITE)
    # a model that does not read wind still leaves the hybrid physics short of it
    no_wind = _zero_model("SR", bias=240.0, names=("temp_max", "temp_min", "rh_avg"))
    estimates = estimate(ModelBundle(sr_model=no_wind), [fc], SITE)
    assert estimates["SR_ANN"][0].tolist() == [240.0]
    with pytest.raises(MissingField) as err:
        estimates["ET0_HYB"]
    assert err.value.field == "wind_avg"
    with pytest.raises(MissingField):
        et0_hybrid_predict(no_wind, fc, SITE)


def test_hybrid_desk_scale_quality(desk_scale):
    assert desk_scale["r2_sr_ann"] >= 0.97
    assert desk_scale["r2_et0_hyb"] >= 0.95


# --- output format -----------------------------------------------------------------

def test_predictions_csv_layout():
    keys = [(dt.date(2022, 7, 15), "WS", None), (dt.date(2022, 7, 16), "VC", 3)]
    text = predictions_csv("ET0_HYB", keys, np.array([4.25, 0.0]), np.array([False, True]))
    lines = text.strip().splitlines()
    assert lines[0] == "date,source,horizon,estimator,value,clamped"
    assert lines[1] == "2022-07-15,WS,,ET0_HYB,4.25,0"
    assert lines[2] == "2022-07-16,VC,3,ET0_HYB,0.0,1"


def test_feature_matrix_matches_row_wise_features(synth):
    site, observations, _ = synth
    X, dates = feature_matrix(observations[:10], site)
    assert X.shape == (10, len(FEATURE_NAMES))
    fv = make_features(observations[3], site)
    assert np.array_equal(X[3], fv.as_array())
    assert dates[3] == observations[3].date
