"""The acceptance gate: one test per criterion, tolerances pinned.

A PASS/FAIL line per criterion is printed in the terminal summary (see
conftest). Tolerances and thresholds here come straight from the build
contract and are not meant to be tuned.
"""

import math

import numpy as np
import pytest

from etoforge import evalkit, pipelines, regressor
from etoforge.cli import main
from etoforge.evalkit import emit_report, metrics, usable_horizon
from etoforge.pipelines import et0_from_sr
from etoforge.synthetic import write_synthetic_cache
from etoforge.weather import serialize_ws_csv, ws_schema_text

from .conftest import TRAIN_SEED


def test_criterion_1_fao56_oracle_equivalence(oracle_fixture):
    """reference-ET equivalence with the frozen independent oracle (<= 0.01 mm/day)"""
    points = oracle_fixture["et0_points"]
    hand_built = [p for p in points if not p["name"].startswith("random-")]
    randomized = [p for p in points if p["name"].startswith("random-")]
    assert len(hand_built) == 3 and len(randomized) >= 20

    from etoforge import fao56
    worst = 0.0
    for p in points:
        result = fao56.et0_fao56pm(fao56.Et0Inputs(
            temp_max=p["temp_max"], temp_min=p["temp_min"],
            wind_2m=p["wind_2m"], solar_rad=p["solar_rad_mj"],
            latitude=p["latitude_rad"], elevation=p["elevation_m"],
            day_of_year=p["day_of_year"], humidity_mode=p["humidity_mode"],
            rh_max=p["rh_max"], rh_min=p["rh_min"], rh_avg=p["rh_avg"]))
        worst = max(worst, abs(result.et0 - p["expected_et0"]))
        assert abs(result.et0 - p["expected_et0"]) <= 0.01, p["name"]
    assert worst <= 0.01


def test_criterion_2_metric_formula_fidelity():
    """five metrics match brute-force formula evaluation to 1e-12 relative"""
    def brute(actual, predicted, eps):
        n = len(actual)
        mae = sum(abs(y - p) for y, p in zip(actual, predicted)) / n
        mse = sum((y - p) ** 2 for y, p in zip(actual, predicted)) / n
        mean = sum(actual) / n
        sst = sum((y - mean) ** 2 for y in actual)
        r2 = 1.0 - sum((y - p) ** 2 for y, p in zip(actual, predicted)) / sst
        kept = [(y, p) for y, p in zip(actual, predicted) if abs(y) >= eps]
        mape = (sum(abs(y - p) / abs(y) for y, p in kept) / len(kept) * 100.0
                if kept else math.nan)
        return dict(mae=mae, mse=mse, rmse=math.sqrt(mse), r2=r2, mape=mape)

    series = [
        ([1.0, 2.0], [1.0, 2.0]),                       # R2 = 1
        ([3.0, 7.0, 5.0, 9.0], [6.0, 6.0, 6.0, 6.0]),   # mean predictor, R2 = 0
        ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]),             # negative R2
        ([0.0, 2.0], [1.0, 1.0]),                       # zero-actual exclusion
        ([0.5, 1.5, 2.5, 3.5, 4.5, 5.5], [0.4, 1.7, 2.4, 3.8, 4.3, 5.9]),
        ([-1.0, -2.0, -3.0], [-1.1, -1.9, -3.3]),
        ([2.0, 4.0], [2.2, 3.6]),
        ([10.0, 11.0, 12.0, 13.0], [10.5, 10.5, 12.5, 12.5]),
        ([0.1, 0.2, 0.3, 0.4, 0.5], [0.15, 0.18, 0.33, 0.38, 0.52]),
        ([100.0, 200.0, 300.0], [90.0, 220.0, 290.0]),
        ([1.5, 2.5, 3.5, 4.5, 5.5], [1.5, 2.5, 3.5, 4.5, 6.0]),
    ]
    assert len(series) >= 10
    saw_one = saw_zero = saw_negative = False
    for actual, predicted in series:
        report = metrics(actual, predicted, mape_epsilon=1e-9)
        expected = brute(actual, predicted, 1e-9)
        for name in ("mae", "mse", "rmse", "r2", "mape"):
            assert getattr(report, name) == pytest.approx(
                expected[name], rel=1e-12, abs=1e-12), (name, actual)
        saw_one |= report.r2 == 1.0
        saw_zero |= report.r2 == 0.0
        saw_negative |= report.r2 < 0.0
    assert saw_one and saw_zero and saw_negative


def test_criterion_3_gradient_correctness():
    """backprop gradients within 1e-4 of centered differences on 50 draws"""
    rng = np.random.default_rng(20260811)
    archs = [(), (8,), (8, 8), (16, 4), (6, 6, 6)]
    worst = 0.0
    for draw in range(50):
        n_in = int(rng.integers(2, 7))
        hidden = archs[draw % len(archs)]
        activation = "relu" if draw % 2 == 0 else "tanh"
        layer_sizes = (n_in, *hidden, 1)
        weights, biases = [], []
        for a, b in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = math.sqrt(6.0 / a)
            weights.append(rng.uniform(-limit, limit, size=(a, b)))
            biases.append(rng.normal(0.0, 0.1, size=b))
        scaler = regressor.Scaler(
            feature_names=tuple(f"x{i}" for i in range(n_in)),
            mean=rng.normal(size=n_in), std=rng.uniform(0.5, 2.0, size=n_in))
        model = regressor.MlpModel(
            layer_sizes=layer_sizes, weights=tuple(weights),
            biases=tuple(biases), activation=activation, scaler=scaler,
            target_name="y", target_mean=float(rng.normal()),
            target_std=float(rng.uniform(0.5, 2.0)))
        err = regressor.gradient_check(model, rng.normal(size=n_in),
                                       float(rng.normal()), step=1e-5)
        worst = max(worst, err)
        assert err < 1e-4, (draw, activation, layer_sizes)
    assert worst < 1e-4


def test_criterion_4_desk_scale_quality(desk_scale):
    """held-out R2: direct >= 0.95; hybrid >= direct when SR fit >= 0.97"""
    assert desk_scale["r2_et0_ann"] >= 0.95
    assert desk_scale["r2_sr_ann"] >= 0.97
    assert desk_scale["r2_et0_hyb"] >= desk_scale["r2_et0_ann"]


def test_criterion_5_hybrid_identity(synth, synth_targets):
    """true SR through the hybrid path reproduces the ET target bit-exactly"""
    site, observations, _ = synth
    target = synth_targets["ET0"]
    assert len(observations) == len(target.values) == 730
    for obs, expected in zip(observations, target.values):
        assert et0_from_sr(obs.sr_avg, obs, site).value == expected


def test_criterion_6_horizon_degradation(degradation_sweep):
    """R2 slope negative everywhere; usable horizon finite, shrinking with tau"""
    sweep = degradation_sweep
    for estimator in pipelines.ESTIMATORS:
        for provider in ("VC", "OWM"):
            r2s = [sweep.cells[(h, provider, estimator)].r2 for h in range(16)]
            slope = float(np.polyfit(range(16), r2s, 1)[0])
            assert slope < 0.0, (estimator, provider)
            usable = {tau: usable_horizon(sweep, estimator, provider, ("r2", tau))
                      for tau in (0.5, 0.7, 0.9)}
            for tau, u in usable.items():
                assert 0 <= u <= 15, (estimator, provider, tau)
            assert usable[0.5] >= usable[0.7] >= usable[0.9]
            assert usable[0.9] < usable[0.5], (estimator, provider)


def test_criterion_7_report_shapes(degradation_sweep, synth):
    """sweep covers 16 x 2 x 3 cells with five metrics; fidelity 5 x 2 x 16"""
    sweep_lines = emit_report(degradation_sweep, "csv").strip().splitlines()
    header = sweep_lines[0].split(",")
    assert len(sweep_lines) == 1 + 16 * 2 * 3
    for metric in ("r2", "rmse", "mse", "mae", "mape"):
        assert metric in header
    keys = {(h, p, e) for (h, p, e) in degradation_sweep.cells}
    assert keys == {(h, p, e) for h in range(16) for p in ("VC", "OWM")
                    for e in pipelines.ESTIMATORS}

    site, observations, forecasts = synth
    fidelity = evalkit.compare_forecast_fidelity(
        observations, forecasts["VC"] + forecasts["OWM"])
    fid_lines = emit_report(fidelity, "csv").strip().splitlines()
    assert fid_lines[0] == "feature,provider,horizon,r2"
    assert len(fid_lines) == 1 + 5 * 2 * 16
    assert not fidelity.omissions


def test_criterion_8_pipeline_determinism(tmp_path, synth):
    """two seeded ingest->train->evaluate runs are byte-identical"""
    site, observations, forecasts = synth
    (tmp_path / "ws.csv").write_text(serialize_ws_csv(observations))
    (tmp_path / "ws.schema").write_text(ws_schema_text())
    write_synthetic_cache(forecasts["VC"] + forecasts["OWM"],
                          tmp_path / "cache")

    outputs = {}
    for run in ("first", "second"):
        out_dir = tmp_path / run
        cfg_path = tmp_path / f"{run}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in {
            "site_id": site.site_id, "latitude": site.latitude,
            "longitude": site.longitude, "elevation": site.elevation,
            "wind_sensor_height": site.wind_sensor_height,
            "ws_csv": tmp_path / "ws.csv",
            "ws_schema": tmp_path / "ws.schema",
            "forecast_cache": tmp_path / "cache",
            "out_dir": out_dir, "seed": TRAIN_SEED, "epochs": 400,
            "humidity_mode": "average",
        }.items()))
        assert main(["ingest", "ws", "--config", str(cfg_path)]) == 0
        assert main(["ingest", "forecast", "--config", str(cfg_path),
                     "--offline"]) == 0
        assert main(["train", "--config", str(cfg_path), "--target", "et0"]) == 0
        assert main(["train", "--config", str(cfg_path), "--target", "sr"]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        outputs[run] = {p.relative_to(out_dir): p.read_bytes()
                        for p in sorted(out_dir.rglob("*")) if p.is_file()}

    assert set(outputs["first"]) == set(outputs["second"])
    expected = {"observations.csv", "observations.schema", "forecasts.jsonl",
                "forecasts.npz", "model_et0.json",
                "model_sr.json", "sweep.csv", "fidelity.csv", "distributions.csv",
                "usable_horizons.csv", "manifest.json"}
    assert {str(p) for p in outputs["first"]} == expected
    for name in outputs["first"]:
        assert outputs["first"][name] == outputs["second"][name], name
