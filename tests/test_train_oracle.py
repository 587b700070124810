"""Training in one flat parameter buffer matches a per-array reference loop byte for byte.

`_reference_train` is the training loop written layer by layer: one
gradient array and one pair of Adam moments per weight and bias matrix,
each updated on its own. `regressor.train` keeps all of them in flat
buffers and updates each with one whole-buffer statement. Every update is
element-wise in the same operand order, so the saved model documents,
weights and loss curves included, must be identical.

The reference keeps its own forward pass and takes each activation's
derivative from the pre-activation (a second `np.tanh` for tanh), while
`regressor` takes it from the activation itself; the results must still
match bit for bit.
"""

import io
import math

import numpy as np
import pytest

from etoforge import regressor
from etoforge.regressor import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MlpModel,
                                TrainConfig, fit_scaler)


def _forward(weights, biases, activation, x):
    """(output, pre-activations, layer inputs and outputs) of one scaled batch."""
    pre, acts = [], [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        pre.append(acts[-1] @ w + b)
        last = i == len(weights) - 1
        acts.append(pre[-1] if last else regressor._act(pre[-1], activation))
    return acts[-1][:, 0], pre, acts


def _act_grad(z, activation):
    """The activation's derivative at the pre-activation `z`."""
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _reference_train(X, y, hidden, activation, cfg):
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(X.shape[0])
    n_val = max(1, int(round(X.shape[0] * cfg.validation_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    scaler = fit_scaler(X[train_idx])
    t_mean, t_std = float(y[train_idx].mean()), float(y[train_idx].std())
    Xt, yt = scaler.transform(X[train_idx]), (y[train_idx] - t_mean) / t_std
    Xv, yv = scaler.transform(X[val_idx]), (y[val_idx] - t_mean) / t_std
    sizes = (X.shape[1], *hidden, 1)
    weights = [rng.uniform(-math.sqrt(6.0 / a), math.sqrt(6.0 / a), size=(a, b))
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    params = weights + biases
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]

    def val_loss():
        d = _forward(weights, biases, activation, Xv)[0] - yv
        return float(d @ d) / yv.shape[0]

    best = initial = val_loss()
    best_params, best_epoch, stale, step, curve = [p.copy() for p in params], 0, 0, 0, []
    for epoch in range(1, cfg.epochs + 1):
        perm, losses = rng.permutation(Xt.shape[0]), []
        for lo in range(0, Xt.shape[0], cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            out, pre, acts = _forward(weights, biases, activation, Xt[idx])
            err = out - yt[idx]
            losses.append(float(err @ err) / idx.size)
            delta = (2.0 / idx.size) * err[:, None]
            dws, dbs = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                dws[i], dbs[i] = acts[i].T @ delta, delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * _act_grad(pre[i - 1], activation)
            if cfg.optimizer == "sgd":
                for p, g in zip(params, dws + dbs):
                    p -= cfg.learning_rate * g
                continue
            step += 1
            c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
            for j, (p, g) in enumerate(zip(params, dws + dbs)):
                adam_m[j] = ADAM_BETA1 * adam_m[j] + (1 - ADAM_BETA1) * g
                adam_v[j] = ADAM_BETA2 * adam_v[j] + (1 - ADAM_BETA2) * g * g
                p -= cfg.learning_rate * (adam_m[j] / c1) / (np.sqrt(adam_v[j] / c2) + ADAM_EPS)
        v = val_loss()
        curve.append([epoch, sum(losses) / len(losses), v])
        if v < best:
            best, best_epoch, stale, best_params = v, epoch, 0, [p.copy() for p in params]
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    meta = {"seed": cfg.seed, "epochs_requested": cfg.epochs, "epochs_run": epoch,
            "best_epoch": best_epoch, "initial_val_loss": initial, "best_val_loss": best,
            "optimizer": cfg.optimizer, "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size, "validation_fraction": cfg.validation_fraction,
            "loss_curve": curve}
    n = len(weights)
    return MlpModel(layer_sizes=sizes, weights=tuple(best_params[:n]),
                    biases=tuple(best_params[n:]), activation=activation, scaler=scaler,
                    target_name="y", target_mean=t_mean, target_std=t_std,
                    training_meta=meta)


def _saved(model):
    sink = io.StringIO()
    regressor.save(model, sink)
    return sink.getvalue()


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 4))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] - 0.5 * X[:, 3]
    return X, y


@pytest.mark.parametrize("hidden, activation, cfg", [
    ((32, 32), "relu", TrainConfig(epochs=12, seed=3)),
    ((16,), "tanh", TrainConfig(epochs=12, seed=4)),
    ((), "relu", TrainConfig(epochs=12, seed=5)),
    ((32, 32), "relu", TrainConfig(epochs=12, optimizer="sgd", learning_rate=1e-2, seed=6)),
    ((16,), "relu", TrainConfig(epochs=40, learning_rate=0.05, patience=2, seed=7)),
], ids=["adam-32x32-relu", "adam-16-tanh", "adam-linear", "sgd-32x32-relu", "early-stop"])
def test_flat_buffer_training_matches_per_array_loop(data, hidden, activation, cfg):
    want = _reference_train(*data, hidden, activation, cfg)
    got = regressor.train(data, (hidden, activation), cfg, target_name="y")
    assert _saved(got) == _saved(want)
    if cfg.patience < cfg.epochs:
        assert got.training_meta["epochs_run"] < cfg.epochs
