"""Time `regressor.train` in process on the benchmark's training split.

    PYTHONPATH=src python3 scripts/train_timing.py

Builds the seed-11, 1,460-day station series, the feature matrix and both
targets the way `train --target et0|sr` does, takes the same fit split and
trains each model with the benchmark's configuration (seed 7, 300 epochs,
patience 300, humidity_mode average; the default (32, 32) relu network).
Each target is trained three times and the best time counts. Prints
seconds per model and microseconds per optimizer step (one mini-batch:
forward, backprop and the parameter update). Every repeat must produce
the same model file text.
"""

import io
import math
import sys
import time

import numpy as np

from etoforge import pipelines, regressor
from etoforge.config import build_config
from etoforge.synthetic import synthetic_observations, synthetic_site
from etoforge.weather import WsSchema, parse_ws_csv, serialize_ws_csv

SEED = 11
N_DAYS = 1460
REPEATS = 3
CONFIG = {"seed": "7", "epochs": "300", "patience": "300", "humidity_mode": "average"}


def fit_splits(cfg):
    """{target: (X_fit, y_fit)} as `cmd_train` selects them."""
    site = synthetic_site()
    text = serialize_ws_csv(synthetic_observations(site, n_days=N_DAYS, seed=SEED))
    observations = parse_ws_csv(io.StringIO(text), WsSchema.canonical())
    X, _ = pipelines.feature_matrix(observations, site, cfg.features)
    targets = {"ET0": pipelines.build_et0_target(observations, site, cfg.humidity_mode),
               "SR": pipelines.build_sr_target(observations)}
    splits = {}
    for target, series in targets.items():
        y = series.values
        order = np.random.default_rng(cfg.seed).permutation(len(y))
        fit = order[max(2, int(round(len(y) * cfg.holdout_fraction))):]
        splits[target] = (X[fit], y[fit])
    return splits


def main() -> int:
    cfg = build_config(overrides=CONFIG)
    train_cfg = cfg.train_config()
    for target, (X, y) in fit_splits(cfg).items():
        times, texts = [], set()
        for _ in range(REPEATS):
            start = time.perf_counter()
            model = regressor.train((X, y), (cfg.hidden, cfg.activation), train_cfg,
                                    feature_names=cfg.features, target_name=target)
            times.append(time.perf_counter() - start)
            sink = io.StringIO()
            regressor.save(model, sink)
            texts.add(sink.getvalue())
        if len(texts) != 1:
            raise SystemExit(f"{target}: repeats trained different models")
        n_train = len(y) - max(1, int(round(len(y) * train_cfg.validation_fraction)))
        steps = model.training_meta["epochs_run"] * math.ceil(n_train / train_cfg.batch_size)
        best = min(times)
        print(f"{target}: {best:.3f} s per model, {best / steps * 1e6:.1f} us per step "
              f"({steps} steps, {len(y)} fit rows, best of {REPEATS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
