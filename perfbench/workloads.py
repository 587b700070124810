"""The benchmark workloads: inputs, set-up, the timed op and its checks.

Every workload runs the demo-04 configuration on data generated by
`etoforge.synthetic` from the workload seed. The program sees only the
station CSV, its schema sidecar, the forecast cache and the config file
written here; it is driven through `etoforge.cli.main`, one command
after the other, as a cron job or a researcher would run it.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from etoforge.synthetic import (synthetic_dataset, synthetic_observations,
                                synthetic_site, write_synthetic_cache)
from etoforge.weather import serialize_ws_csv, ws_schema_text

DEFAULT_SEED = 11
DEFAULT_DAYS = 1460
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PROVIDERS = ("OWM", "VC")
ESTIMATORS = ("ET0_ANN", "ET0_HYB", "SR_ANN")
HORIZONS = range(16)
FIDELITY_FEATURES = 5
FORECAST_FIELDS = ("temp_max", "temp_min", "rh_avg", "wind_avg", "precip")

# The demo-04 run configuration, minus the paths, with early stopping off:
# with the default patience of 50 the epochs run per op vary from 488 to 600
# over data seeds 1-6, a quartile spread of 0.15 in the set-up's training work.
CONFIG = """\
seed = 7
epochs = 300
patience = 300
humidity_mode = average
r2_threshold = 0.7
mape_threshold = 25
"""

INGEST_WS = ("ingest_ws", ["ingest", "ws"])
INGEST_FORECAST = ("ingest_forecast", ["ingest", "forecast", "--offline"])
TRAIN_ET0 = ("train_et0", ["train", "--target", "et0"])
TRAIN_SR = ("train_sr", ["train", "--target", "sr"])
EVALUATE = ("evaluate", ["evaluate"])
PREDICT = ("predict", ["predict", "--estimator", "et0_hyb", "--source", "vc",
                       "--horizon", "3"])
COMMANDS = (INGEST_WS, INGEST_FORECAST, TRAIN_ET0, TRAIN_SR, EVALUATE, PREDICT)
PREDICTIONS_FILE = "predictions_et0_hyb_vc_d3.csv"

# relative margin on the held-out RMSE that `train` prints; training
# amplifies last-ulp changes over 300 epochs, so exact equality is too strict
RMSE_MARGIN = 0.05
SWEEP_REL_TOL = 1e-9
FORECAST_ABS_TOL = 1e-12
PREDICTION_ABS_TOL = 1e-9


@dataclass
class Workspace:
    root: Path
    config: Path
    out_dir: Path
    n_days: int
    seed: int
    # forecast oracle: (provider index, target ordinal, issue ordinal) keys
    # and FORECAST_FIELDS values, sorted like the program's store
    oracle_keys: np.ndarray | None = None
    oracle_values: np.ndarray | None = None

    @property
    def has_reference(self) -> bool:
        return self.seed == DEFAULT_SEED and self.n_days == DEFAULT_DAYS


def prepare(root: Path, seed: int, n_days: int, with_forecasts: bool) -> Workspace:
    """Write the program's inputs for `seed` under `root`."""
    root.mkdir(parents=True)
    if with_forecasts:
        site, observations, forecasts = synthetic_dataset(seed=seed, n_days=n_days)
    else:
        # the observations synthetic_dataset would return, without its forecasts
        site = synthetic_site()
        observations = synthetic_observations(site, n_days=n_days, seed=seed)
    (root / "ws.csv").write_text(serialize_ws_csv(observations), encoding="utf-8")
    (root / "ws.schema").write_text(ws_schema_text(), encoding="utf-8")
    ws = Workspace(root=root, config=root / "run.cfg", out_dir=root / "out",
                   n_days=n_days, seed=seed)
    if with_forecasts:
        records = forecasts["VC"] + forecasts["OWM"]
        write_synthetic_cache(records, root / "cache")
        records.sort(key=lambda r: (r.provider, r.target_date, r.issue_date))
        ws.oracle_keys = np.array(
            [(PROVIDERS.index(r.provider), r.target_date.toordinal(),
              r.issue_date.toordinal()) for r in records], dtype=np.int64)
        ws.oracle_values = np.array(
            [[getattr(r, f) for f in FORECAST_FIELDS] for r in records],
            dtype=np.float64)
    ws.config.write_text(
        f"site_id = {site.site_id}\n"
        f"latitude = {site.latitude}\n"
        f"longitude = {site.longitude}\n"
        f"elevation = {site.elevation}\n"
        f"wind_sensor_height = {site.wind_sensor_height}\n"
        f"ws_csv = {root / 'ws.csv'}\n"
        f"ws_schema = {root / 'ws.schema'}\n"
        f"forecast_cache = {root / 'cache'}\n"
        f"out_dir = {ws.out_dir}\n" + CONFIG, encoding="utf-8")
    return ws


def out_dir_digest(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _expected() -> dict:
    return json.loads((REFERENCE_DIR / "expected.json").read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# --- skill_study ---------------------------------------------------------------

SWEEP_HEADER = ["horizon", "provider", "estimator", "n", "coverage", "r2", "rmse",
                "mse", "mae", "mape", "mape_excluded"]
SWEEP_FLOATS = ("coverage", "r2", "rmse", "mse", "mae", "mape")


def check_skill_study(ws: Workspace, outputs: dict) -> list:
    failures = []
    stderr = outputs["evaluate"].stderr
    if "omitted cell" in stderr:
        failures.append("evaluate omitted sweep cells")
    rows = _read_csv(ws.out_dir / "sweep.csv")
    if rows[0] != SWEEP_HEADER:
        return failures + [f"sweep.csv header {rows[0]}"]
    cells = rows[1:]
    keys = [(int(r[0]), r[1], r[2]) for r in cells]
    expected_keys = sorted((h, p, e) for h in HORIZONS for p in PROVIDERS
                           for e in ESTIMATORS)
    if keys != expected_keys:
        failures.append(f"sweep.csv has {len(keys)} cells, expected all 96")
    for r in cells:
        if int(r[3]) != ws.n_days:
            failures.append(f"sweep cell {r[:3]} scored {r[3]} of {ws.n_days} days")
        if not all(_finite(r[SWEEP_HEADER.index(c)]) for c in SWEEP_FLOATS):
            failures.append(f"sweep cell {r[:3]} has a non-finite metric")
    n_scored = sum(int(r[3]) for r in cells)
    with (ws.out_dir / "distributions.csv").open(encoding="utf-8") as fh:
        dist_rows = sum(1 for _ in fh) - 1
    if dist_rows != n_scored:
        failures.append(f"distributions.csv has {dist_rows} rows, sweep scored {n_scored}")
    fidelity = _read_csv(ws.out_dir / "fidelity.csv")
    if len(fidelity) - 1 != FIDELITY_FEATURES * len(PROVIDERS) * len(HORIZONS):
        failures.append(f"fidelity.csv has {len(fidelity) - 1} cells")
    usable = _read_csv(ws.out_dir / "usable_horizons.csv")
    if len(usable) - 1 != 2 * len(PROVIDERS) * len(ESTIMATORS):
        failures.append(f"usable_horizons.csv has {len(usable) - 1} rows")
    if not ws.has_reference or failures:
        return failures

    ref = _read_csv(REFERENCE_DIR / "sweep.csv")
    for got, want in zip(cells, ref[1:]):
        for i, col in enumerate(SWEEP_HEADER):
            if col in SWEEP_FLOATS:
                if not math.isclose(float(got[i]), float(want[i]),
                                    rel_tol=SWEEP_REL_TOL, abs_tol=1e-12):
                    failures.append(f"sweep {got[:3]} {col} {got[i]} != {want[i]}")
            elif got[i] != want[i]:
                failures.append(f"sweep {got[:3]} {col} {got[i]} != {want[i]}")
    for name in ("fidelity.csv", "usable_horizons.csv"):
        if (ws.out_dir / name).read_bytes() != (REFERENCE_DIR / name).read_bytes():
            failures.append(f"{name} differs from the reference")
    if dist_rows != _expected()["distributions_rows"]:
        failures.append(f"distributions.csv has {dist_rows} rows, reference "
                        f"{_expected()['distributions_rows']}")
    return failures


# --- forecast_cron -------------------------------------------------------------

PREDICTION_HEADER = ["date", "source", "horizon", "estimator", "value", "clamped"]


def check_forecast_cron(ws: Workspace, outputs: dict) -> list:
    failures = []
    keys, values = [], []
    with (ws.out_dir / "forecasts.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            keys.append((PROVIDERS.index(doc["provider"]),
                         _ordinal(doc["target_date"]), _ordinal(doc["issue_date"])))
            values.append([doc[f] for f in FORECAST_FIELDS])
    expected = len(PROVIDERS) * len(HORIZONS) * ws.n_days
    if len(keys) != expected:
        failures.append(f"forecasts.jsonl has {len(keys)} records, expected {expected}")
    elif not np.array_equal(np.array(keys, dtype=np.int64), ws.oracle_keys):
        failures.append("forecasts.jsonl keys differ from the generated forecasts")
    else:
        diff = np.abs(np.array(values, dtype=np.float64) - ws.oracle_values)
        if not diff.max() <= FORECAST_ABS_TOL:
            failures.append(f"forecast values differ from the generated ones by "
                            f"{diff.max():.3g}")

    rows = _read_csv(ws.out_dir / PREDICTIONS_FILE)
    if rows[0] != PREDICTION_HEADER:
        return failures + [f"{PREDICTIONS_FILE} header {rows[0]}"]
    preds = rows[1:]
    if len(preds) != ws.n_days:
        failures.append(f"{len(preds)} predictions, expected {ws.n_days}")
    dates = [r[0] for r in preds]
    if dates != sorted(set(dates)):
        failures.append("prediction dates are not unique and sorted")
    for r in preds:
        if r[1:4] != ["VC", "3", "ET0_HYB"] or not (_finite(r[4]) and float(r[4]) >= 0.0):
            failures.append(f"bad prediction row {r}")
            break
    if not ws.has_reference or failures:
        return failures
    ref = _read_csv(REFERENCE_DIR / PREDICTIONS_FILE)[1:]
    for got, want in zip(preds, ref):
        if (got[:4] != want[:4] or got[5] != want[5]
                or abs(float(got[4]) - float(want[4])) > PREDICTION_ABS_TOL):
            failures.append(f"prediction {got} differs from reference {want}")
            break
    return failures


def _ordinal(iso: str) -> int:
    return dt.date.fromisoformat(iso).toordinal()


# --- training (set-up of both workloads) ---------------------------------------

HELD_OUT = re.compile(r"held-out R2 = (?P<r2>\S+), RMSE = (?P<rmse>\S+) ")
MIN_R2 = 0.9


def check_training(ws: Workspace, outputs: dict) -> list:
    """Checks on the two `train` commands every set-up runs."""
    failures = []
    reference = _expected()["held_out_rmse"] if ws.has_reference else {}
    for target, key, model_file in (("ET0", "train_et0", "model_et0.json"),
                                    ("SR", "train_sr", "model_sr.json")):
        match = HELD_OUT.search(outputs[key].stdout)
        if match is None:
            failures.append(f"{key} printed no held-out metrics")
            continue
        r2, rmse = float(match["r2"]), float(match["rmse"])
        if not r2 >= MIN_R2:
            failures.append(f"{target} held-out R2 {r2} < {MIN_R2}")
        if target in reference and not abs(rmse - reference[target]) <= \
                RMSE_MARGIN * reference[target]:
            failures.append(f"{target} held-out RMSE {rmse} is not within "
                            f"{RMSE_MARGIN:.0%} of the reference {reference[target]}")
        doc = json.loads((ws.out_dir / model_file).read_text(encoding="utf-8"))
        epochs = doc["training_meta"]["epochs_run"]
        if doc["layer_sizes"] != [7, 32, 32, 1] or not 1 <= epochs <= 300:
            failures.append(f"{model_file}: layers {doc['layer_sizes']}, {epochs} epochs")
    return failures


def epochs_run(ws: Workspace):
    """Epochs both trainings ran, read back from the model files (None if unreadable)."""
    try:
        return sum(json.loads((ws.out_dir / f).read_text(encoding="utf-8"))
                   ["training_meta"]["epochs_run"]
                   for f in ("model_et0.json", "model_sr.json"))
    except (OSError, ValueError, KeyError, TypeError):
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple          # commands run once per set-up, untimed
    op: tuple             # commands of one timed op
    with_forecasts: bool  # whether the set-up writes a forecast cache
    setup_repeats: int    # set-ups per run; setup_s is their median
    min_ops: int          # fewest timed ops per run, however short --seconds is
    rows_unit: str
    rows_per_day: int     # rows_per_s numerator: rows per op per station day
    check: object         # (workspace, command outputs) -> list of failures


# Both set-ups end with the two `train` commands, whose outputs
# check_training checks; a set-up that fails its checks ends the run.
# skill_study sets up once: at 10-13 s a set-up, a second one and two
# evaluate ops would not fit the time a full measurement may take.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="skill_study",
        setup=(INGEST_WS, INGEST_FORECAST, TRAIN_ET0, TRAIN_SR),
        op=(EVALUATE,), with_forecasts=True, setup_repeats=1, min_ops=2,
        rows_unit="scored rows", rows_per_day=len(PROVIDERS) * len(HORIZONS) * 3,
        check=check_skill_study),
    Workload(
        name="forecast_cron",
        setup=(INGEST_WS, TRAIN_ET0, TRAIN_SR),
        op=(INGEST_FORECAST, PREDICT), with_forecasts=True, setup_repeats=2, min_ops=3,
        rows_unit="forecast records", rows_per_day=len(PROVIDERS) * len(HORIZONS),
        check=check_forecast_cron),
)}
