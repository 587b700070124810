"""Command-line orchestration: ingest, train, predict, evaluate, fao56.

Usage revolves around a key=value config file (see README) with flag
overrides; flags always win. Every command writes its artifacts under
the configured output directory and refreshes a manifest of file hashes
there, so identical inputs plus an identical seed give byte-identical
outputs. Exit codes: 0 success, 2 usage/config error, 3 data/runtime
error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import evalkit, fao56, pipelines, regressor
from .config import ConfigError, build_config
from .errors import CorruptModel, EmptyInput, EtoforgeError, MissingCells, VersionMismatch
from .weather import (MAX_HORIZON, PROVIDERS, ForecastTable, PayloadMemo, WsSchema,
                      decode_utf8, fetch_forecasts, load_ws_schema, parse_ws_csv,
                      records_from_jsonl, records_from_npz, records_to_npz, serialize_ws_csv,
                      splice_runs, store_chunks, ws_schema_text)

OBS_STORE = "observations.csv"
OBS_SCHEMA = "observations.schema"
FORECAST_STORE = "forecasts.jsonl"
FORECAST_COLUMNS = "forecasts.npz"   # the store's column sidecar, read when valid
MODEL_FILES = {"ET0": "model_et0.json", "SR": "model_sr.json"}


@contextlib.contextmanager
def _writing(out_dir: Path, path: Path):
    """Turn an OSError while writing `path` into a one-line error naming it: ConfigError
    (exit 2) when out_dir is there but is no directory, EtoforgeError (exit 3) otherwise."""
    try:
        yield
    except OSError as exc:
        if out_dir.exists() and not out_dir.is_dir():
            raise ConfigError(f"out_dir {out_dir} is not a directory") from exc
        raise EtoforgeError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_chunks(out_dir: Path, name: str, chunks) -> bytes:
    """Write the byte chunks to out_dir/name as they come; the SHA-256 digest of the file.
    They go to a temporary file moved onto out_dir/name after the last chunk, so a write
    that fails part-way leaves the old file whole."""
    path, part, digest = out_dir / name, out_dir / f".{name}.part", hashlib.sha256()
    with _writing(out_dir, path):
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(part, "wb") as fh:
                for chunk in chunks:
                    digest.update(chunk)
                    fh.write(chunk)
            os.replace(part, path)
        except BaseException:
            part.unlink(missing_ok=True)
            raise
    return digest.digest()


def _write(out_dir: Path, name: str, text) -> bytes:
    """Write `text` (str, or byte chunks) to out_dir/name and say so; the file's SHA-256."""
    digest = _write_chunks(out_dir, name, [text.encode("utf-8")] if isinstance(text, str)
                           else text)
    print(f"wrote {out_dir / name}")
    return digest


def _sha256(path: Path) -> bytes:
    """The SHA-256 digest of the file at `path`, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.digest()


def _write_manifest(out_dir: Path, seed: int, *known) -> None:
    """List every file of out_dir with its SHA-256, but for the `.NAME.part` temporaries
    of :func:`_write_chunks` that a killed run leaves. `known` holds (name, digest)
    pairs of files this command wrote or hashed already; they are not re-read."""
    known, files = dict(known), {}
    with _writing(out_dir, out_dir / "manifest.json"):
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name != "manifest.json" and not path.match(".*.part"):
                name = str(path.relative_to(out_dir))
                files[name] = (known.get(name) or _sha256(path)).hex()
    doc = json.dumps({"seed": seed, "files": files}, indent=2, sort_keys=True) + "\n"
    _write_chunks(out_dir, "manifest.json", [doc.encode("utf-8")])


def _parse_station_csv(path, schema):
    """The observations of a station CSV; EmptyInput naming it if it has no data rows."""
    observations = parse_ws_csv(path, schema)
    if not observations:
        raise EmptyInput(f"station CSV {path} has no data rows")
    return observations


def _load_observations(cfg):
    store = cfg.out_dir / OBS_STORE
    if not store.is_file():
        raise ConfigError(f"no ingested observations at {store}; run `ingest ws` first")
    schema = load_ws_schema(cfg.out_dir / OBS_SCHEMA) \
        if (cfg.out_dir / OBS_SCHEMA).is_file() else None
    return _parse_station_csv(store, schema or WsSchema.canonical())


def _store_chunks(table, out_dir: Path, named, stored):
    """The UTF-8 chunks of the store of `table`, or None when the store in out_dir is
    that store already. When that store has the digest `named` its sidecar names, and
    `stored` is that sidecar's table, the lines of the rows it holds are copied from it
    (:func:`splice_runs`), read here, before the chunks are written over that store."""
    old = None
    if len(stored):
        with contextlib.suppress(OSError):
            old = (out_dir / FORECAST_STORE).read_bytes()
        if old is not None and hashlib.sha256(old).digest() != named:
            old = None   # not held while the store is formatted
    if old is None:
        return store_chunks(table)
    runs = splice_runs(table, stored, old)
    return None if runs == [old] else runs


def _load_forecasts(cfg):
    """(the forecast table, the store's (name, SHA-256 digest) for the manifest). The
    store's text is read only when its column sidecar is not valid for it."""
    store = cfg.out_dir / FORECAST_STORE
    if not store.is_file():
        raise ConfigError(f"no ingested forecasts at {store}; run `ingest forecast` first")
    digest = _sha256(store)
    table = records_from_npz(cfg.out_dir / FORECAST_COLUMNS, digest)
    if table is None:
        table = records_from_jsonl(decode_utf8(store.read_bytes(), store))
    if not len(table):
        raise EmptyInput(f"forecast store {store} has no records")
    return table, (FORECAST_STORE, digest)


def _load_model(cfg, target: str):
    path = cfg.out_dir / MODEL_FILES[target]
    if not path.is_file():
        raise ConfigError(f"model file missing: {path}; run `train --target "
                          f"{target.lower()}` first")
    try:
        return regressor.load(path)
    except (CorruptModel, VersionMismatch) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# --- commands ----------------------------------------------------------------

def cmd_ingest_ws(cfg) -> int:
    cfg.require_paths("ws_csv", "ws_schema")
    schema = load_ws_schema(cfg.ws_schema, columns=cfg.ws_columns)
    observations = _parse_station_csv(cfg.ws_csv, schema)
    _write(cfg.out_dir, OBS_STORE, serialize_ws_csv(observations))
    _write(cfg.out_dir, OBS_SCHEMA, ws_schema_text())
    first, last = observations[0].date, observations[-1].date
    gaps = (last - first).days + 1 - len(observations)
    print(f"{len(observations)} observations ({first} .. {last}), "
          f"{gaps} gap day(s) dropped-and-reported, never interpolated")
    _write_manifest(cfg.out_dir, cfg.seed)
    return 0


def cmd_ingest_forecast(cfg) -> int:
    if cfg.forecast_cache is None:
        raise ConfigError("config key forecast_cache is required for forecast ingest")
    if cfg.offline and not Path(cfg.forecast_cache).exists():
        raise ConfigError(f"forecast_cache path does not exist: {cfg.forecast_cache}")
    start, end = cfg.start_date, cfg.end_date
    if start is None or end is None:
        store = cfg.out_dir / OBS_STORE
        if store.is_file():
            observations = _load_observations(cfg)
            start = start or observations[0].date
            end = end or observations[-1].date
        else:
            raise ConfigError("start_date/end_date not configured and no "
                              "ingested observations to take the range from")
        if start > end:  # one end is configured, the other observed
            raise ConfigError(f"start_date={start} is after the last observed date {end}"
                              if cfg.start_date else
                              f"end_date={end} is before the first observed date {start}")
    site = cfg.site()
    # the sidecar's rows and keys spare payloads their normalizing; after the fetch, the
    # lines of its rows are copied from the store on disk, once its hash shows it is its own
    memo = PayloadMemo(cfg.out_dir / FORECAST_COLUMNS)
    tables = []
    for provider in cfg.providers:
        # a provider listed twice has its rows twice in the sidecar, where no key tells
        # them apart: such a run neither reuses nor records a payload
        table = fetch_forecasts(
            provider, site, (start, end), cache_dir=cfg.forecast_cache, offline=cfg.offline,
            tz_offset_hours=cfg.tz_offset_hours,
            memo=memo if len(set(cfg.providers)) == len(cfg.providers) else None)
        tables.append(table)
        cells = np.unique(table.target * (MAX_HORIZON + 1) + table.horizon)
        days, per_date = np.unique(cells // (MAX_HORIZON + 1), return_counts=True)
        low, high = (per_date.min(), per_date.max()) if days.size else (0, 0)
        spread = str(low) if low == high else f"{low}-{high}"
        print(f"{provider}: {len(table)} forecast records across "
              f"{days.size} target dates, {spread} horizons per date")
    table = ForecastTable.concat(tables)
    chunks = _store_chunks(table, cfg.out_dir, memo.named, memo.stored)
    if chunks is None:   # the store on disk holds these bytes: keep it and its digest
        digest = memo.named
        print(f"wrote {cfg.out_dir / FORECAST_STORE}")
    else:
        digest = _write(cfg.out_dir, FORECAST_STORE, chunks)
    sidecar = _write_chunks(cfg.out_dir, FORECAST_COLUMNS,
                            [records_to_npz(table, digest, **memo.members())])
    _write_manifest(cfg.out_dir, cfg.seed, (FORECAST_STORE, digest), (FORECAST_COLUMNS, sidecar))
    return 0


def cmd_train(cfg, target: str) -> int:
    observations = _load_observations(cfg)
    site = cfg.site()
    X, _ = pipelines.feature_matrix(observations, site, cfg.features)
    if target == "ET0":
        series = pipelines.build_et0_target(observations, site, cfg.humidity_mode)
    else:
        series = pipelines.build_sr_target(observations)
    y = series.values

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(y))
    n_hold = max(2, int(round(len(y) * cfg.holdout_fraction)))
    hold, fit = order[:n_hold], order[n_hold:]

    model = regressor.train((X[fit], y[fit]), (cfg.hidden, cfg.activation),
                            cfg.train_config(), feature_names=cfg.features,
                            target_name=target)
    predictions = np.maximum(regressor.predict_batch(model, X[hold]), 0.0)
    report = evalkit.metrics(y[hold], predictions,
                             mape_epsilon=evalkit.MAPE_EPSILON[target],
                             units=evalkit.UNITS_NOTE[target])
    path = cfg.out_dir / MODEL_FILES[target]
    with _writing(cfg.out_dir, path):
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        regressor.save(model, path)
    print(f"wrote {path}")
    print(f"{target} model ({'x'.join(str(h) for h in cfg.hidden)} "
          f"{cfg.activation}, seed {cfg.seed}): held-out R2 = {report.r2:.4f}, "
          f"RMSE = {report.rmse:.4f} {report.units}, MAE = {report.mae:.4f}, "
          f"MAPE = {report.mape:.2f}% (n={report.n})")
    _write_manifest(cfg.out_dir, cfg.seed)
    return 0


def cmd_predict(cfg, estimator: str, source: str, horizon) -> int:
    if source == "ws" and horizon is not None:
        raise ConfigError("--horizon applies to forecast sources only, not --source ws")
    estimator = estimator.upper()
    if estimator == "ET0_ANN":
        bundle = pipelines.ModelBundle(et0_model=_load_model(cfg, "ET0"))
    else:
        bundle = pipelines.ModelBundle(sr_model=_load_model(cfg, "SR"))
    known = []
    if source == "ws":
        records = _load_observations(cfg)
        keys = [(obs.date, "WS", None) for obs in records]
        wind_height = None
    else:
        provider = source.upper()
        table, store_hash = _load_forecasts(cfg)
        known.append(store_hash)
        keep = table.provider == PROVIDERS.index(provider)
        if horizon is not None:
            keep &= table.horizon == horizon
        records = table.take(np.flatnonzero(keep))
        if not len(records):
            raise ConfigError(f"no {provider} forecast records"
                              + (f" at horizon d{horizon}" if horizon is not None else ""))
        keys = [(day, provider, h) for day, h in zip(records.dates, records.horizon.tolist())]
        wind_height = cfg.forecast_wind_height
    values, clamped = pipelines.estimate(bundle, records, cfg.site(),
                                         wind_height)[estimator]
    suffix = f"_d{horizon}" if horizon is not None else ""
    name = f"predictions_{estimator.lower()}_{source}{suffix}.csv"
    _write(cfg.out_dir, name, pipelines.predictions_csv(estimator, keys, values, clamped))
    print(f"{len(keys)} predictions ({estimator}, source {source})")
    _write_manifest(cfg.out_dir, cfg.seed, *known)
    return 0


def cmd_evaluate(cfg) -> int:
    observations = _load_observations(cfg)
    forecasts, store_hash = _load_forecasts(cfg)
    bundle = pipelines.ModelBundle(et0_model=_load_model(cfg, "ET0"),
                                   sr_model=_load_model(cfg, "SR"))
    site = cfg.site()

    sweep = evalkit.horizon_sweep(
        bundle, observations, forecasts, site,
        horizons=cfg.horizons, providers=cfg.providers,
        humidity_mode=cfg.humidity_mode,
        forecast_wind_height=cfg.forecast_wind_height)
    fidelity = evalkit.compare_forecast_fidelity(
        observations, forecasts, providers=cfg.providers, horizons=cfg.horizons)

    for key, reason in sweep.omissions:
        print(f"omitted cell {key}: {reason}", file=sys.stderr)

    _write(cfg.out_dir, "sweep.csv", evalkit.emit_report(sweep))
    _write(cfg.out_dir, "fidelity.csv", evalkit.emit_report(fidelity))
    distributions = _write(cfg.out_dir, "distributions.csv",
                           evalkit.distribution_chunks(sweep.errors))

    usable_lines = ["criterion,threshold,provider,estimator,usable_horizon"]
    for name, tau in (("r2", cfg.r2_threshold), ("mape", cfg.mape_threshold)):
        relation = ">=" if name == "r2" else "<="
        for provider in cfg.providers:
            for estimator in pipelines.ESTIMATORS:
                try:
                    u = evalkit.usable_horizon(sweep, estimator, provider, (name, tau))
                except MissingCells as exc:
                    print(f"usable horizon ({name}{relation}{tau}): "
                          f"{provider}/{estimator} -> n/a ({exc})", file=sys.stderr)
                    continue
                usable_lines.append(f"{name},{tau!r},{provider},{estimator},{u}")
                print(f"usable horizon ({name}{relation}{tau}): "
                      f"{provider}/{estimator} -> d{u}")
    _write(cfg.out_dir, "usable_horizons.csv", "\n".join(usable_lines) + "\n")
    _write_manifest(cfg.out_dir, cfg.seed, store_hash, ("distributions.csv", distributions))
    return 0


def cmd_fao56(args) -> int:
    if args.rh_avg is not None:
        mode, rh = "average", {"rh_avg": args.rh_avg}
    elif args.rh_max is not None and args.rh_min is not None:
        mode, rh = "extremes", {"rh_max": args.rh_max, "rh_min": args.rh_min}
    else:
        raise ConfigError("humidity required: --rh-avg, or --rh-max with --rh-min")
    if (args.solar_rad_wm2 is None) == (args.solar_rad_mj is None):
        raise ConfigError("give exactly one of --solar-rad-wm2 / --solar-rad-mj")
    solar_mj = (args.solar_rad_mj if args.solar_rad_mj is not None
                else fao56.sr_wm2_to_mj(args.solar_rad_wm2))
    inputs = fao56.Et0Inputs(
        temp_max=args.temp_max, temp_min=args.temp_min,
        wind_2m=fao56.wind_to_2m(args.wind, args.wind_height),
        solar_rad=solar_mj, latitude=math.radians(args.latitude),
        elevation=args.elevation, day_of_year=args.day_of_year,
        humidity_mode=mode, **rh)
    result = fao56.et0_fao56pm(inputs)
    print(f"et0 = {result.et0:.6f} mm/day  (humidity mode: {result.humidity_mode})")
    for name in sorted(result.intermediates):
        print(f"  {name} = {result.intermediates[name]:.6f}")
    return 0


# --- argument wiring ---------------------------------------------------------

def _add_config_args(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out-dir", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="top-level seed (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key; repeatable")


def _resolve_config(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return build_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etoforge",
        description="Reference-ET estimation from reduced weather features, "
                    "with forecast-horizon evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="load station or forecast data")
    ingest_sub = ingest.add_subparsers(dest="what", required=True)
    ws = ingest_sub.add_parser("ws", help="parse a weather-station CSV")
    _add_config_args(ws)
    fc = ingest_sub.add_parser("forecast", help="fetch or replay provider forecasts")
    _add_config_args(fc)
    fc.add_argument("--offline", action="store_true",
                    help="serve cached payloads only")

    tr = sub.add_parser("train", help="fit a regressor on ingested WS data")
    _add_config_args(tr)
    tr.add_argument("--target", choices=("et0", "sr"), required=True)

    pr = sub.add_parser("predict", help="run an estimator over ingested data")
    _add_config_args(pr)
    pr.add_argument("--estimator", choices=("et0_ann", "et0_hyb", "sr_ann"),
                    required=True)
    pr.add_argument("--source", choices=("ws", "vc", "owm"), required=True)
    pr.add_argument("--horizon", type=int, default=None,
                    help="restrict forecast sources to one horizon")

    ev = sub.add_parser("evaluate", help="horizon sweep, fidelity, distributions")
    _add_config_args(ev)

    fa = sub.add_parser("fao56", help="one-shot reference-ET calculator")
    fa.add_argument("--temp-max", type=float, required=True)
    fa.add_argument("--temp-min", type=float, required=True)
    fa.add_argument("--rh-max", type=float)
    fa.add_argument("--rh-min", type=float)
    fa.add_argument("--rh-avg", type=float)
    fa.add_argument("--wind", type=float, required=True,
                    help="wind speed at --wind-height [m/s]")
    fa.add_argument("--wind-height", type=float, default=2.0)
    fa.add_argument("--solar-rad-wm2", type=float,
                    help="daily-mean shortwave [W/m2]")
    fa.add_argument("--solar-rad-mj", type=float,
                    help="daily shortwave [MJ/m2/day]")
    fa.add_argument("--latitude", type=float, required=True, help="degrees")
    fa.add_argument("--elevation", type=float, required=True, help="m")
    fa.add_argument("--day-of-year", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "fao56":
            return cmd_fao56(args)
        cfg = _resolve_config(args)
        if args.command == "ingest" and args.what == "ws":
            return cmd_ingest_ws(cfg)
        if args.command == "ingest" and args.what == "forecast":
            if args.offline:
                cfg.offline = True
            return cmd_ingest_forecast(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.target.upper())
        if args.command == "predict":
            return cmd_predict(cfg, args.estimator, args.source, args.horizon)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        parser.error(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EtoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
