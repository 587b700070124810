"""Time `ingest forecast --offline` at 365 and 1,460 days, cold, warm and on a new
observed day, and print the ratios.

    PYTHONPATH=src python3 scripts/ingest_scaling.py

Each size gets its own workspace from `synthetic_dataset(seed=11)`: the
station CSV, its schema, both providers' cached payloads and a config.
`ingest ws` runs once; `ingest forecast --offline` then runs in this
process three times cold, as a first ingest: the store
(`forecasts.jsonl`) and its column sidecar (`forecasts.npz`, which holds
the payload keys) are deleted before each run, so every payload is
normalized and the store is formatted. It then runs three times warm,
over what the run before wrote: no payload is normalized and the store's
bytes are kept. Last it runs three times on a new observed day: each run
follows an untimed one with `end_date` one day before the last observed
date, so the range gains a day, the 16 payloads per provider with rows on
that day are normalized again and only that day's rows are formatted.
The best time of each kind counts. Linear growth reads 4.0x.
"""

import contextlib
import datetime as dt
import io
import sys
import tempfile
import time
from pathlib import Path

from etoforge import cli
from etoforge.synthetic import synthetic_dataset, write_synthetic_cache
from etoforge.weather import serialize_ws_csv, ws_schema_text

SEED = 11
SIZES = (365, 1460)
REPEATS = 3


def best_ingest_seconds(root: Path, n_days: int) -> dict:
    """{kind: best seconds} of `ingest forecast` at `n_days`, for each kind of run."""
    site, observations, forecasts = synthetic_dataset(seed=SEED, n_days=n_days)
    (root / "ws.csv").write_text(serialize_ws_csv(observations), encoding="utf-8")
    (root / "ws.schema").write_text(ws_schema_text(), encoding="utf-8")
    write_synthetic_cache(forecasts["VC"] + forecasts["OWM"], root / "cache")
    config = root / "run.cfg"
    config.write_text(
        f"site_id = {site.site_id}\nlatitude = {site.latitude}\n"
        f"longitude = {site.longitude}\nelevation = {site.elevation}\n"
        f"wind_sensor_height = {site.wind_sensor_height}\nws_csv = {root / 'ws.csv'}\n"
        f"ws_schema = {root / 'ws.schema'}\nforecast_cache = {root / 'cache'}\n"
        f"out_dir = {root / 'out'}\n", encoding="utf-8")
    written = [root / "out" / name for name in (cli.FORECAST_STORE, cli.FORECAST_COLUMNS)]
    ingest = ["ingest", "forecast", "--offline"]
    day_before = observations[-1].date - dt.timedelta(days=1)
    runs = ([("setup", ["ingest", "ws"])]
            + [(kind, ingest) for kind in ("cold", "warm") for _ in range(REPEATS)]
            + [run for _ in range(REPEATS) for run in
               (("setup", ingest + ["--set", f"end_date={day_before}"]), ("next-day", ingest))])
    times = {"cold": [], "warm": [], "next-day": []}
    for kind, argv in runs:
        if kind == "cold":
            for path in written:
                path.unlink(missing_ok=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + ["--config", str(config)]) != 0:
                raise SystemExit(f"{' '.join(argv)} failed at {n_days} days")
        if kind != "setup":
            times[kind].append(time.perf_counter() - start)
    return {kind: min(seconds) for kind, seconds in times.items()}


def main() -> int:
    seconds = {}
    for n_days in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            seconds[n_days] = best_ingest_seconds(Path(tmp), n_days)
        print(f"{n_days} days: " + ", ".join(f"{kind} {best:.3f} s" for kind, best
                                             in seconds[n_days].items())
              + f" (best of {REPEATS} each)")
    small, large = SIZES
    for kind in seconds[small]:
        print(f"{kind} ratio {large}/{small} days: "
              f"{seconds[large][kind] / seconds[small][kind]:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
