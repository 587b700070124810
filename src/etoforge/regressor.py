"""Small feed-forward regressor built from first principles.

Dense layers with relu or tanh hidden activations and an identity output,
trained by mini-batch backpropagation on mean squared error with either
plain SGD or Adam. Everything runs in 64-bit floats, all randomness flows
from one seed, and training is a pure function of (data, architecture,
config): the same seed reproduces bit-identical weights on a platform.

Inputs are standardized by a :class:`Scaler` owned by the model; the
target is standardized as well during training and folded back on
prediction, so :func:`forward` always speaks raw units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstantFeature, CorruptModel, NonFinite, ShapeMismatch,
                     VersionMismatch)

MODEL_FORMAT_VERSION = 1
ACTIVATIONS = ("relu", "tanh")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per predict_batch block: numpy 2.4 runs a (units, 1) x (rows,) multiply
# about 4x slower per element while three rows fit its 8,192-element ufunc
# buffer (2,730 rows or fewer); above that, the time grows with the block
PREDICT_BLOCK = 3072


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization statistics (population std, ddof=0)."""

    feature_names: tuple
    mean: np.ndarray
    std: np.ndarray

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.feature_names):
            raise ShapeMismatch(
                f"expected (n, {len(self.feature_names)}) matrix, got {rows.shape}")
        return (rows - self.mean) / self.std


def fit_scaler(rows: np.ndarray, feature_names=None) -> Scaler:
    """Fit standardization stats; rejects constant or non-finite columns."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ShapeMismatch(f"need a (n>=2, d) matrix, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise NonFinite("feature matrix contains non-finite entries")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(rows.shape[1]))
    feature_names = tuple(feature_names)
    if len(feature_names) != rows.shape[1]:
        raise ShapeMismatch("feature_names length does not match columns")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise ConstantFeature(f"constant feature(s): "
                              f"{', '.join(feature_names[i] for i in flat)}")
    return Scaler(feature_names=feature_names, mean=mean, std=std)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"        # "adam" | "sgd"
    seed: int = 0
    validation_fraction: float = 0.2
    patience: int = 50

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.patience <= 0:
            raise ShapeMismatch("epochs, batch_size and patience must be positive")
        if self.learning_rate <= 0:
            raise ShapeMismatch("learning_rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise ShapeMismatch("learning_rate must be finite")
        if self.seed < 0:
            raise ShapeMismatch("seed must be non-negative")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ShapeMismatch("validation_fraction must be in (0, 1)")
        if self.optimizer not in ("adam", "sgd"):
            raise ShapeMismatch(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class MlpModel:
    """A trained (or hand-built) regressor: parameters plus preprocessing.

    `weights[i]` has shape (layer_sizes[i], layer_sizes[i+1]) and
    `biases[i]` shape (layer_sizes[i+1],). The output layer is identity
    and one-dimensional. target_mean/target_std fold the standardized
    training target back to raw units at prediction time.
    """

    layer_sizes: tuple
    weights: tuple
    biases: tuple
    activation: str
    scaler: Scaler
    target_name: str
    target_mean: float = 0.0
    target_std: float = 1.0
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_chain(self.layer_sizes, self.weights, self.biases, self.activation)

    @property
    def feature_names(self) -> tuple:
        return self.scaler.feature_names


def _check_chain(layer_sizes, weights, biases, activation):
    if activation not in ACTIVATIONS:
        raise CorruptModel(f"unknown activation {activation!r}")
    if len(layer_sizes) < 2 or layer_sizes[-1] != 1:
        raise CorruptModel(f"bad layer sizes {layer_sizes}")
    if len(weights) != len(layer_sizes) - 1 or len(biases) != len(weights):
        raise CorruptModel("weight/bias count does not match layer sizes")
    for i, (w, b) in enumerate(zip(weights, biases)):
        want = (layer_sizes[i], layer_sizes[i + 1])
        if w.shape != want or b.shape != (layer_sizes[i + 1],):
            raise CorruptModel(f"layer {i}: weights {w.shape}, biases {b.shape}, "
                               f"expected {want}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise CorruptModel(f"layer {i}: non-finite parameters")


def _act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _forward_scaled(weights, biases, activation, x):
    """Forward pass on already-scaled rows; returns (output, each layer's input and output)."""
    acts = [x]
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if i == last else _act(z, activation)
        acts.append(h)
    return h[:, 0], acts


def forward(model: MlpModel, row) -> float:
    """Deterministic scalar prediction for one raw feature row (predict_batch on it)."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != model.layer_sizes[0]:
        raise ShapeMismatch(f"expected {model.layer_sizes[0]} features, got {row.shape}")
    out = predict_batch(model, row[None, :])
    return float(out[0])


def predict_batch(model: MlpModel, rows) -> np.ndarray:
    """Predictions in raw target units for a (n, d) raw feature matrix.

    Each layer adds up its inputs one at a time with element-wise
    operations, so a row's prediction is bit-identical in any batch; a
    BLAS product (blocking and fused multiply-adds chosen by shape) is
    not. Training keeps the matrix product. Rows run PREDICT_BLOCK at a
    time, feature-major: each input is one contiguous row of the block.
    """
    x = model.scaler.transform(rows)
    out = np.empty(x.shape[0])
    last = len(model.weights) - 1
    for start in range(0, x.shape[0], PREDICT_BLOCK):
        h = np.ascontiguousarray(x[start:start + PREDICT_BLOCK].T)
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = w[0][:, None] * h[0]
            for k in range(1, w.shape[0]):
                z += w[k][:, None] * h[k]
            z += b[:, None]
            h = z if i == last else _act(z, model.activation)
        out[start:start + PREDICT_BLOCK] = h[0]
    return out * model.target_std + model.target_mean


def _param_views(flat, layer_sizes):
    """(weights, biases) as views of one flat buffer that holds every weight, then every bias."""
    shapes = list(zip(layer_sizes[:-1], layer_sizes[1:])) + [(n,) for n in layer_sizes[1:]]
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
    return tuple(views[:len(shapes) // 2]), tuple(views[len(shapes) // 2:])


def _init_params(layer_sizes, rng):
    """The flat parameter buffer: uniform weights in layer (draw) order, then zero biases."""
    drawn = [rng.uniform(-math.sqrt(6.0 / n_in), math.sqrt(6.0 / n_in), size=n_in * n_out)
             for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])]
    return np.concatenate(drawn + [np.zeros(sum(layer_sizes[1:]))])


def _backprop(weights, biases, activation, x, y, dws, dbs):
    """Mean-squared-error loss of one scaled batch; its gradients go into dws, dbs."""
    out, acts = _forward_scaled(weights, biases, activation, x)
    err = out - y
    n = x.shape[0]
    loss = float(err @ err) / n
    delta = (2.0 / n) * err[:, None]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=dws[i])
        delta.sum(axis=0, out=dbs[i])
        if i > 0:
            a = acts[i]  # the activation's derivative follows from its output
            delta = (delta @ weights[i].T) * ((a > 0.0).astype(np.float64)
                                              if activation == "relu" else 1.0 - a * a)
    return loss


def train(data, arch, cfg: TrainConfig, *, feature_names=None,
          target_name: str = "y") -> MlpModel:
    """Fit an MLP with `arch` hidden layer sizes to (features, targets).

    `data` is a pair (X, y) of raw-unit arrays; `arch` lists hidden layer
    widths (possibly empty for a pure linear model) plus the activation,
    e.g. ``([32, 32], "relu")``. The best-validation-epoch weights are
    restored before returning, so the recorded best validation loss never
    exceeds the pre-training one. Divergence (NaN/inf loss) aborts with
    NonFinite.
    """
    X, y = data
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"features {X.shape} do not match targets {y.shape}")
    if X.shape[0] < 10:
        raise ShapeMismatch(f"need at least 10 rows, got {X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise NonFinite("targets contain non-finite values")
    hidden, activation = arch
    if activation not in ACTIVATIONS:
        raise ShapeMismatch(f"unknown activation {activation!r}")
    if min(hidden, default=1) < 1:
        raise ShapeMismatch(f"hidden layer widths must be positive, got {tuple(hidden)}")

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(X.shape[0])
    n_val = max(1, int(round(X.shape[0] * cfg.validation_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size < 2:
        raise ShapeMismatch("too few rows left for training after the validation split")

    scaler = fit_scaler(X[train_idx], feature_names)
    t_mean = float(y[train_idx].mean())
    t_std = float(y[train_idx].std())
    if t_std == 0.0:
        raise ConstantFeature("target is constant on the training split")
    Xt = scaler.transform(X[train_idx])
    yt = (y[train_idx] - t_mean) / t_std
    Xv = scaler.transform(X[val_idx])
    yv = (y[val_idx] - t_mean) / t_std

    layer_sizes = (X.shape[1], *hidden, 1)
    # weights and biases are views of `params`, their gradients views of `grad`,
    # so each optimizer step is a few whole-buffer statements
    params = _init_params(layer_sizes, rng)
    grad = np.zeros_like(params)
    weights, biases = _param_views(params, layer_sizes)
    dws, dbs = _param_views(grad, layer_sizes)

    def val_loss():
        with np.errstate(over="ignore", invalid="ignore"):
            out, _ = _forward_scaled(weights, biases, activation, Xv)
            d = out - yv
            return float(d @ d) / yv.shape[0]

    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    step = 0

    best = val_loss()
    initial_val = best
    best_epoch = 0
    best_params = params.copy()
    curve = []
    stale = 0
    epochs_run = 0

    n_train = Xt.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        batches = 0
        for lo in range(0, n_train, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            # divergence surfaces as non-finite loss below; keep numpy quiet
            with np.errstate(over="ignore", invalid="ignore"):
                loss = _backprop(weights, biases, activation, Xt[idx], yt[idx],
                                 dws, dbs)
            if not math.isfinite(loss):
                raise NonFinite(
                    f"training diverged at epoch {epoch} (loss={loss}); "
                    f"lower the learning rate or check the inputs")
            epoch_loss += loss
            batches += 1
            if cfg.optimizer == "sgd":
                params -= cfg.learning_rate * grad
            else:
                step += 1
                c1 = 1.0 - ADAM_BETA1 ** step
                c2 = 1.0 - ADAM_BETA2 ** step
                adam_m = ADAM_BETA1 * adam_m + (1 - ADAM_BETA1) * grad
                adam_v = ADAM_BETA2 * adam_v + (1 - ADAM_BETA2) * grad * grad
                params -= cfg.learning_rate * (adam_m / c1) / (np.sqrt(adam_v / c2) + ADAM_EPS)
        v = val_loss()
        if not math.isfinite(v):
            raise NonFinite(f"validation loss diverged at epoch {epoch}")
        curve.append((epoch, epoch_loss / max(batches, 1), v))
        if v < best:
            best = v
            best_epoch = epoch
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    meta = {
        "seed": cfg.seed,
        "epochs_requested": cfg.epochs,
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "initial_val_loss": initial_val,
        "best_val_loss": best,
        "optimizer": cfg.optimizer,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "validation_fraction": cfg.validation_fraction,
        "loss_curve": [[e, tr, va] for e, tr, va in curve],
    }
    best_weights, best_biases = _param_views(best_params, layer_sizes)
    return MlpModel(
        layer_sizes=layer_sizes,
        weights=best_weights,
        biases=best_biases,
        activation=activation,
        scaler=scaler,
        target_name=target_name,
        target_mean=t_mean,
        target_std=t_std,
        training_meta=meta,
    )


def gradient_check(model: MlpModel, row, target: float, step: float = 1e-5) -> float:
    """Max discrepancy between analytic and centered-FD parameter gradients.

    The loss is the squared error of the raw-unit prediction against
    `target`. Discrepancies are measured relative to the gradient
    magnitude with a small loss-scaled floor, so finite-difference noise
    on near-zero gradients is not amplified into false alarms.
    """
    if not 0.0 < step <= 1e-2:
        raise ShapeMismatch(f"step {step} outside (0, 1e-2]")
    row = np.asarray(row, dtype=np.float64)
    x = model.scaler.transform(row[None, :])
    ts = model.target_std

    def loss_fn(weights, biases):
        out, _ = _forward_scaled(weights, biases, model.activation, x)
        pred = out[0] * ts + model.target_mean
        return (pred - target) ** 2

    # the raw-unit loss is ts^2 times the scaled-unit loss _backprop
    # differentiates, with the target standardized the same way
    base_loss = loss_fn(model.weights, model.biases)
    scaled_target = np.array([(target - model.target_mean) / ts])
    params = np.concatenate([w.reshape(-1) for w in model.weights] + list(model.biases))
    weights, biases = _param_views(params, model.layer_sizes)
    grad = np.zeros_like(params)
    _backprop(weights, biases, model.activation, x, scaled_target,
              *_param_views(grad, model.layer_sizes))
    grad = grad * ts * ts
    floor = 1e-6 * (1.0 + abs(base_loss))
    worst = 0.0
    for k in range(params.size):
        keep = params[k]
        params[k] = keep + step
        up = loss_fn(weights, biases)
        params[k] = keep - step
        down = loss_fn(weights, biases)
        params[k] = keep
        numeric = (up - down) / (2.0 * step)
        analytic = grad[k]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        worst = max(worst, rel)
    return worst


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save(model: MlpModel, sink) -> None:
    """Write the model as a versioned JSON document (17-digit decimals)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "target_name": model.target_name,
        "activation": model.activation,
        "layer_sizes": list(model.layer_sizes),
        "scaler": {
            "feature_names": list(model.scaler.feature_names),
            "mean": [_fmt(v) for v in model.scaler.mean],
            "std": [_fmt(v) for v in model.scaler.std],
            "target_mean": _fmt(model.target_mean),
            "target_std": _fmt(model.target_std),
        },
        "layers": [
            {
                "weights": [[_fmt(v) for v in row] for row in w],
                "biases": [_fmt(v) for v in b],
            }
            for w, b in zip(model.weights, model.biases)
        ],
        "training_meta": model.training_meta,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)


def load(source) -> MlpModel:
    """Read a model document written by :func:`save`.

    Raises VersionMismatch for unknown format versions and CorruptModel
    when the document is not JSON, a value has the wrong type or does not
    fit, the shape chain is broken, parameters are non-finite, or a
    scaler or target std is not finite and positive.
    """
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CorruptModel(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel(f"model document is a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(f"model format_version {version!r}; "
                              f"this build reads {MODEL_FORMAT_VERSION}")
    try:
        layer_sizes = tuple(int(n) for n in doc["layer_sizes"])
        weights = tuple(
            np.array([[float(v) for v in row] for row in layer["weights"]],
                     dtype=np.float64)
            for layer in doc["layers"])
        biases = tuple(
            np.array([float(v) for v in layer["biases"]], dtype=np.float64)
            for layer in doc["layers"])
        sc = doc["scaler"]
        scaler = Scaler(
            feature_names=tuple(sc["feature_names"]),
            mean=np.array([float(v) for v in sc["mean"]], dtype=np.float64),
            std=np.array([float(v) for v in sc["std"]], dtype=np.float64),
        )
        model = MlpModel(
            layer_sizes=layer_sizes,
            weights=weights,
            biases=biases,
            activation=doc["activation"],
            scaler=scaler,
            target_name=doc["target_name"],
            target_mean=float(sc["target_mean"]),
            target_std=float(sc["target_std"]),
            training_meta=doc.get("training_meta", {}),
        )
    except CorruptModel:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"malformed model document: {exc}") from exc
    if scaler.mean.shape != (layer_sizes[0],) or scaler.std.shape != (layer_sizes[0],):
        raise CorruptModel("scaler stats do not match the input layer width")
    if not (np.all(np.isfinite(scaler.mean))
            and np.all((scaler.std > 0.0) & (scaler.std < np.inf))):
        raise CorruptModel("scaler stats are invalid")
    if not (math.isfinite(model.target_mean) and 0.0 < model.target_std < math.inf):
        raise CorruptModel(f"target stats are invalid: mean {model.target_mean}, "
                           f"std {model.target_std}")
    return model
