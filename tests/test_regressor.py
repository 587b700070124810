"""Scaler, forward pass, training, gradient checking, persistence."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etoforge

from etoforge.errors import (ConstantFeature, CorruptModel, NonFinite,
                             ShapeMismatch, VersionMismatch)
from etoforge.regressor import (PREDICT_BLOCK, MlpModel, Scaler, TrainConfig, _act,
                                fit_scaler, forward, gradient_check, load, predict_batch,
                                save, train)


def _identity_scaler(n):
    return Scaler(feature_names=tuple(f"x{i}" for i in range(n)),
                  mean=np.zeros(n), std=np.ones(n))


def _linear_model(w, b, scaler=None, **kw):
    w = np.asarray(w, dtype=np.float64)
    return MlpModel(layer_sizes=(w.shape[0], 1), weights=(w.reshape(-1, 1),),
                    biases=(np.array([b]),), activation="relu",
                    scaler=scaler or _identity_scaler(w.shape[0]),
                    target_name="y", **kw)


# --- scaler ---------------------------------------------------------------------

def test_constant_column_rejected():
    with pytest.raises(ConstantFeature) as err:
        fit_scaler(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]),
                   feature_names=("flat", "ok"))
    assert "flat" in str(err.value)


def test_transform_centers_and_scales():
    rng = np.random.default_rng(0)
    X = rng.normal(3.0, 2.5, size=(200, 4))
    scaled = fit_scaler(X).transform(X)
    assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)


def test_two_point_column_hand_value():
    scaler = fit_scaler(np.array([[0.0], [2.0]]))
    assert scaler.mean[0] == 1.0 and scaler.std[0] == 1.0
    assert fit_scaler(np.array([[0.0], [2.0]])).transform(
        np.array([[0.0], [2.0]])).tolist() == [[-1.0], [1.0]]


def test_scaler_rejects_bad_input():
    with pytest.raises(NonFinite):
        fit_scaler(np.array([[1.0], [np.nan]]))
    with pytest.raises(ShapeMismatch):
        fit_scaler(np.array([[1.0, 2.0]]))


# --- forward pass -----------------------------------------------------------------

def test_all_zero_parameters_give_zero():
    model = MlpModel(layer_sizes=(3, 4, 1),
                     weights=(np.zeros((3, 4)), np.zeros((4, 1))),
                     biases=(np.zeros(4), np.zeros(1)),
                     activation="relu", scaler=_identity_scaler(3),
                     target_name="y")
    for row in ([0.0, 0.0, 0.0], [1.0, -2.0, 3.5], [100.0, 5.0, -7.0]):
        assert forward(model, row) == 0.0


def test_single_linear_layer_is_exact_affine():
    scaler = Scaler(feature_names=("a", "b"), mean=np.array([1.0, -2.0]),
                    std=np.array([2.0, 4.0]))
    model = _linear_model([0.5, -1.25], 0.75, scaler=scaler)
    x = np.array([3.0, 6.0])
    xhat = (x - scaler.mean) / scaler.std
    assert forward(model, x) == float(xhat @ np.array([0.5, -1.25]) + 0.75)


def test_two_layer_pencil_fixture():
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0], [1.0]])
    b2 = np.array([0.5])
    model = MlpModel(layer_sizes=(2, 2, 1), weights=(w1, w2), biases=(b1, b2),
                     activation="relu", scaler=_identity_scaler(2),
                     target_name="y")
    # x = (1, 2): z1 = (1*1 + 2*0.5 + 0.1, 1*-1 + 2*2 - 0.2) = (2.1, 2.8)
    # both positive -> out = 2.1 + 2.8 + 0.5 = 5.4
    assert forward(model, [1.0, 2.0]) == pytest.approx(5.4, rel=1e-15)
    # x = (-1, 0): z1 = (-0.9, 0.8) -> relu kills the first unit -> 0.8 + 0.5
    assert forward(model, [-1.0, 0.0]) == pytest.approx(1.3, rel=1e-15)


def test_forward_shape_mismatch():
    model = _linear_model([1.0, 2.0], 0.0)
    with pytest.raises(ShapeMismatch):
        forward(model, [1.0, 2.0, 3.0])


def _row_major(model, rows):
    """The layer sums of predict_batch on the (n, d) layout, in one unblocked pass."""
    h = model.scaler.transform(rows)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h[:, :1] * w[0]
        for k in range(1, w.shape[0]):
            z += h[:, k:k + 1] * w[k]
        z += b
        h = z if i == len(model.weights) - 1 else _act(z, model.activation)
    return h[:, 0] * model.target_std + model.target_mean


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_predict_batch_is_batch_invariant(activation):
    # each row's prediction is bit-identical alone, in the full batch and
    # in any sub-batch, one across a block boundary included: the
    # batch-composition contract
    rng = np.random.default_rng(31)
    model = _random_model(rng, (7, 32, 32, 1), activation)
    rows = rng.normal(size=(2 * PREDICT_BLOCK + 3, 7)) * model.scaler.std + model.scaler.mean
    batch = predict_batch(model, rows)
    alone = np.array([forward(model, row) for row in rows])
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch, _row_major(model, rows))
    assert np.array_equal(predict_batch(model, rows[1::3]), batch[1::3])
    straddle = slice(PREDICT_BLOCK - 5, PREDICT_BLOCK + 7)
    assert np.array_equal(predict_batch(model, rows[straddle]), batch[straddle])
    assert predict_batch(model, rows[:0]).shape == (0,)


# --- training ----------------------------------------------------------------------

def test_linear_recovery_against_least_squares():
    rng = np.random.default_rng(3)
    X = rng.normal(0.0, 2.0, size=(200, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0

    design = np.column_stack([X, np.ones(len(X))])
    lstsq_coef, *_ = np.linalg.lstsq(design, y, rcond=None)

    cfg = TrainConfig(epochs=800, learning_rate=3e-3, seed=5, patience=200)
    model = train((X, y), ((), "relu"), cfg, target_name="y")
    w_scaled = model.weights[0][:, 0]
    w_raw = model.target_std * w_scaled / model.scaler.std
    b_raw = model.target_std * (model.biases[0][0]
                                - float(np.sum(w_scaled * model.scaler.mean
                                               / model.scaler.std))) \
        + model.target_mean
    assert np.max(np.abs(w_raw - lstsq_coef[:2])) < 1e-3
    assert abs(b_raw - lstsq_coef[2]) < 1e-3
    assert np.allclose(lstsq_coef, [3.0, -2.0, 1.0], atol=1e-9)


def test_nonlinear_fit_reaches_good_r2():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(400, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2
    cfg = TrainConfig(epochs=300, seed=6)
    model = train((X[:320], y[:320]), ((32, 32), "relu"), cfg, target_name="y")
    pred = predict_batch(model, X[320:])
    ss_res = float(np.sum((y[320:] - pred) ** 2))
    ss_tot = float(np.sum((y[320:] - y[320:].mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.95


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(64, 3))
    y = X @ np.array([1.0, -1.0, 0.5])
    cfg = TrainConfig(epochs=40, seed=21)
    a = train((X, y), ((8,), "tanh"), cfg, target_name="y")
    b = train((X, y), ((8,), "tanh"), cfg, target_name="y")
    assert a.training_meta["loss_curve"] == b.training_meta["loss_curve"]
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))
    assert all(np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases))


# trains on the synthetic site and writes the saved model to stdout; batches of 512
# rows make OpenBLAS split the 512x32x32 products across threads when it may
_TRAIN_AND_SAVE = """
import sys
from etoforge import pipelines, regressor
from etoforge.synthetic import synthetic_dataset
site, observations, _ = synthetic_dataset(seed=5, n_days=730)
X, _ = pipelines.feature_matrix(observations, site)
y = pipelines.build_sr_target(observations).values
cfg = regressor.TrainConfig(epochs=15, batch_size=512, seed=3)
model = regressor.train((X, y), ((32, 32), "relu"), cfg,
                        feature_names=pipelines.FEATURE_NAMES, target_name="SR")
regressor.save(model, sys.stdout)
"""


def test_training_is_deterministic_across_blas_threads():
    """The saved model is the same bytes whether OpenBLAS runs on one thread or two."""
    saved = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(etoforge.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", _TRAIN_AND_SAVE], env=env,
                             capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr.decode()
        saved.append(run.stdout)
    assert saved[0] == saved[1]
    assert json.loads(saved[0])["training_meta"]["epochs_run"] == 15


def test_best_epoch_never_worse_than_initial():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 2))
    y = X[:, 0] * 2.0
    model = train((X, y), ((4,), "relu"),
                  TrainConfig(epochs=30, seed=1), target_name="y")
    meta = model.training_meta
    assert meta["best_val_loss"] <= meta["initial_val_loss"]


def test_divergence_aborts_with_diagnostic():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 2))
    y = X[:, 0] * 1e6
    cfg = TrainConfig(epochs=5, learning_rate=1e12, optimizer="sgd", seed=1)
    with pytest.raises(NonFinite):
        train((X, y), ((8,), "relu"), cfg, target_name="y")


def test_too_few_rows():
    with pytest.raises(ShapeMismatch):
        train((np.zeros((5, 2)), np.zeros(5)), ((4,), "relu"),
              TrainConfig(seed=0), target_name="y")


def test_train_config_validation():
    with pytest.raises(ShapeMismatch):
        TrainConfig(epochs=0)
    with pytest.raises(ShapeMismatch):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ShapeMismatch):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ShapeMismatch):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ShapeMismatch, match="seed must be non-negative"):
        TrainConfig(seed=-1)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ShapeMismatch, match="learning_rate must be finite"):
            TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("hidden", [(0,), (8, -3)])
def test_train_rejects_non_positive_hidden_width(hidden):
    X = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ShapeMismatch, match="hidden layer widths"):
        train((X, X[:, 0]), (hidden, "relu"), TrainConfig(epochs=2), target_name="y")


def test_scaling_equivariance_is_bit_exact():
    # dyadic data and a power-of-two train split keep every scaler and
    # training operation exactly representable, so an affine feature map
    # must reproduce identical predictions
    rng = np.random.default_rng(3)
    X = rng.integers(-40, 40, size=(160, 3)).astype(np.float64) / 8.0
    y = X[:, 0] - 0.5 * X[:, 1] + 0.25 * X[:, 2]
    cfg = TrainConfig(epochs=60, seed=9)
    plain = train((X, y), ((8,), "relu"), cfg, target_name="y")
    mapped = train((X * 2.0 + 3.0, y), ((8,), "relu"), cfg, target_name="y")
    p1 = predict_batch(plain, X[:32])
    p2 = predict_batch(mapped, X[:32] * 2.0 + 3.0)
    assert np.array_equal(p1, p2)


# --- gradient checking -----------------------------------------------------------------

def _random_model(rng, layer_sizes, activation):
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / n_in)
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(rng.normal(0.0, 0.1, size=n_out))
    scaler = Scaler(
        feature_names=tuple(f"x{i}" for i in range(layer_sizes[0])),
        mean=rng.normal(0.0, 1.0, size=layer_sizes[0]),
        std=rng.uniform(0.5, 2.0, size=layer_sizes[0]))
    return MlpModel(layer_sizes=tuple(layer_sizes), weights=tuple(weights),
                    biases=tuple(biases), activation=activation,
                    scaler=scaler, target_name="y",
                    target_mean=float(rng.normal()), target_std=float(rng.uniform(0.5, 3.0)))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradient_check_small_models(activation):
    rng = np.random.default_rng(17)
    for _ in range(5):
        model = _random_model(rng, (4, 8, 1), activation)
        row = rng.normal(size=4)
        target = float(rng.normal())
        assert gradient_check(model, row, target, step=1e-5) < 1e-4


def test_gradient_check_zero_gradient_point():
    model = _linear_model([2.0], 0.5)
    row = np.array([1.5])
    target = forward(model, row)   # perfect prediction: loss and grads all zero
    assert gradient_check(model, row, target, step=1e-5) == 0.0


def test_gradient_check_step_validation():
    model = _linear_model([1.0], 0.0)
    with pytest.raises(ShapeMismatch):
        gradient_check(model, np.array([1.0]), 0.0, step=0.5)


# --- persistence ---------------------------------------------------------------------

def _quick_model():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([0.5, 1.0, -2.0]) + 0.3
    return train((X, y), ((8, 4), "tanh"), TrainConfig(epochs=50, seed=12),
                 feature_names=("a", "b", "c"), target_name="y")


def test_save_load_round_trip_predictions():
    model = _quick_model()
    buf = io.StringIO()
    save(model, buf)
    again = load(io.StringIO(buf.getvalue()))
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(100, 3))
    assert np.array_equal(predict_batch(model, rows), predict_batch(again, rows))
    assert again.target_name == "y"
    assert again.feature_names == ("a", "b", "c")


def test_save_is_byte_stable(tmp_path):
    model = _quick_model()
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save(model, p1)
    save(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tampered_layer_sizes_rejected():
    model = _quick_model()
    buf = io.StringIO()
    save(model, buf)
    doc = json.loads(buf.getvalue())
    doc["layer_sizes"][1] = 7
    with pytest.raises(CorruptModel):
        load(io.StringIO(json.dumps(doc)))


def test_nonfinite_weight_rejected():
    model = _quick_model()
    buf = io.StringIO()
    save(model, buf)
    doc = json.loads(buf.getvalue())
    doc["layers"][0]["weights"][0][0] = "nan"
    with pytest.raises(CorruptModel):
        load(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("key, value", [
    ("target_mean", "nan"), ("target_mean", "inf"), ("target_std", "nan"),
    ("target_std", "inf"), ("target_std", "0"), ("target_std", "-1"),
    ("std", "nan"), ("std", "inf"), ("std", "0"), ("mean", "-inf"),
])
def test_bad_scaler_or_target_stats_rejected(key, value):
    """Stats `train` never writes: each would scale every prediction to NaN or inf."""
    buf = io.StringIO()
    save(_quick_model(), buf)
    doc = json.loads(buf.getvalue())
    if key in ("mean", "std"):
        doc["scaler"][key][0] = value
    else:
        doc["scaler"][key] = value
    with pytest.raises(CorruptModel):
        load(io.StringIO(json.dumps(doc)))


def test_future_format_version_rejected():
    model = _quick_model()
    buf = io.StringIO()
    save(model, buf)
    doc = json.loads(buf.getvalue())
    doc["format_version"] = 2
    with pytest.raises(VersionMismatch):
        load(io.StringIO(json.dumps(doc)))


def test_weight_strings_have_full_precision():
    model = _quick_model()
    buf = io.StringIO()
    save(model, buf)
    doc = json.loads(buf.getvalue())
    restored = float(doc["layers"][0]["weights"][0][0])
    assert restored == model.weights[0][0, 0]
