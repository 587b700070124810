"""Shared fixtures: oracle data, the synthetic experiment, trained models.

Also collects a PASS/FAIL line per acceptance criterion (tests named
``test_criterion_*`` in test_acceptance.py) and prints them as a summary
section at the end of the run.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from etoforge import evalkit, pipelines, regressor
from etoforge.synthetic import synthetic_dataset

FIXTURES = Path(__file__).parent / "fixtures"

SYNTH_SEED = 11
SYNTH_DAYS = 730
TRAIN_SEED = 7
ARCH = ((32, 32), "relu")


@pytest.fixture(scope="session")
def oracle_fixture():
    with (FIXTURES / "fao56_oracle.json").open() as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def synth():
    """(site, 730 observations, {provider: forecasts}) - the frozen experiment."""
    return synthetic_dataset(seed=SYNTH_SEED, n_days=SYNTH_DAYS)


@pytest.fixture(scope="session")
def synth_targets(synth):
    """ET and SR target series in the mean-humidity mode the hybrid uses."""
    site, observations, _ = synth
    return {
        "ET0": pipelines.build_et0_target(observations, site, humidity_mode="average"),
        "SR": pipelines.build_sr_target(observations),
    }


def _train(X, y, target_name, epochs=400):
    cfg = regressor.TrainConfig(epochs=epochs, seed=TRAIN_SEED)
    return regressor.train((X, y), ARCH, cfg,
                           feature_names=pipelines.FEATURE_NAMES,
                           target_name=target_name)


@pytest.fixture(scope="session")
def desk_scale(synth, synth_targets):
    """The held-out experiment: split, train both models, score all routes."""
    site, observations, _ = synth
    X, _ = pipelines.feature_matrix(observations, site)
    et0_y = synth_targets["ET0"].values
    sr_y = synth_targets["SR"].values

    n = len(observations)
    cut = int(n * 0.8)
    et0_model = _train(X[:cut], et0_y[:cut], "ET0")
    sr_model = _train(X[:cut], sr_y[:cut], "SR")

    held_obs = observations[cut:]
    et0_pred = np.maximum(regressor.predict_batch(et0_model, X[cut:]), 0.0)
    sr_pred = np.maximum(regressor.predict_batch(sr_model, X[cut:]), 0.0)
    hyb_pred, _ = pipelines.estimate(pipelines.ModelBundle(sr_model=sr_model),
                                     held_obs, site)["ET0_HYB"]
    return {
        "site": site,
        "et0_model": et0_model,
        "sr_model": sr_model,
        "held_obs": held_obs,
        "r2_et0_ann": evalkit.metrics(et0_y[cut:], et0_pred).r2,
        "r2_sr_ann": evalkit.metrics(sr_y[cut:], sr_pred).r2,
        "r2_et0_hyb": evalkit.metrics(et0_y[cut:], hyb_pred).r2,
    }


@pytest.fixture(scope="session")
def full_models(synth, synth_targets):
    """Models fitted on the whole record, for inference-only sweeps."""
    site, observations, _ = synth
    X, _ = pipelines.feature_matrix(observations, site)
    return evalkit.ModelBundle(
        et0_model=_train(X, synth_targets["ET0"].values, "ET0"),
        sr_model=_train(X, synth_targets["SR"].values, "SR"))


@pytest.fixture(scope="session")
def degradation_sweep(synth, full_models):
    """The full 16x2x3 sweep over the noise-scaled synthetic providers."""
    site, observations, forecasts = synth
    return evalkit.horizon_sweep(
        full_models, observations, forecasts["VC"] + forecasts["OWM"], site,
        humidity_mode="average")


# --- acceptance summary ------------------------------------------------------

_ACCEPTANCE_LINES = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (report.when == "call"
            and item.fspath.basename == "test_acceptance.py"
            and item.name.startswith("test_criterion_")):
        label = item.name.replace("test_", "").replace("_", " ", 1)
        doc = (item.function.__doc__ or "").strip().splitlines()
        desc = doc[0] if doc else ""
        status = "PASS" if report.passed else "FAIL"
        _ACCEPTANCE_LINES.append(f"{status}  {label}: {desc}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES, key=lambda s: s.split(":")[0]):
            terminalreporter.write_line(line)
