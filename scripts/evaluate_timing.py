"""Time `evaluate` and its scoring stages in process on the benchmark's inputs.

    PYTHONPATH=src python3 scripts/evaluate_timing.py

Writes the inputs `perfbench.workloads.prepare` writes for seed 11 and 1,460
days into a temporary directory, and runs the benchmark's set-up there once
through `etoforge.cli.main` (`ingest ws`, `ingest forecast --offline`, `train
--target et0`, `train --target sr`, with the benchmark's config). Then it times,
REPEATS times each, in this process:

- `evaluate`: the whole command, `cli.main(["evaluate", ...])`;
- `load_forecasts`: `cli._load_forecasts`, the store's hash plus its sidecar's read;
- `horizon_sweep` and `compare_forecast_fidelity` on the inputs `evaluate`
  loads (observations, forecast table, both models);
- `distributions.csv`: the bytes of `evalkit.distribution_chunks` of the sweep.

Prints the best and the median seconds of each. Every `evaluate` must write the
same `out/` files.
"""

import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from etoforge import cli, evalkit, pipelines  # noqa: E402
from etoforge.config import build_config  # noqa: E402

SEED = 11
N_DAYS = 1460
REPEATS = 7


def timed(fn, repeats):
    """(the seconds of each of `repeats` calls of fn, the last call's result)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def main(n_days=N_DAYS, repeats=REPEATS) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ws = workloads.prepare(Path(tmp) / "ws", SEED, n_days, with_forecasts=True)
        argv = ["--config", str(ws.config)]

        def run(command):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(command + argv)
            if code != 0:
                raise SystemExit(f"{' '.join(command)} exited {code}")

        for _, command in workloads.COMMANDS[:4]:
            run(command)
        cfg = build_config(ws.config)
        observations = cli._load_observations(cfg)
        forecasts, _ = cli._load_forecasts(cfg)
        bundle = pipelines.ModelBundle(et0_model=cli._load_model(cfg, "ET0"),
                                       sr_model=cli._load_model(cfg, "SR"))
        site = cfg.site()

        stages, outputs = {"evaluate": []}, set()
        for _ in range(repeats):
            times, _ = timed(lambda: run(["evaluate"]), 1)
            stages["evaluate"] += times
            outputs.add(str(workloads.out_dir_digest(ws.out_dir)))
        if len(outputs) != 1:
            raise SystemExit("repeats of evaluate wrote different files")
        stages["load_forecasts"], _ = timed(lambda: cli._load_forecasts(cfg), repeats)
        stages["horizon_sweep"], sweep = timed(lambda: evalkit.horizon_sweep(
            bundle, observations, forecasts, site, horizons=cfg.horizons,
            providers=cfg.providers, humidity_mode=cfg.humidity_mode,
            forecast_wind_height=cfg.forecast_wind_height), repeats)
        stages["compare_forecast_fidelity"], _ = timed(
            lambda: evalkit.compare_forecast_fidelity(
                observations, forecasts, providers=cfg.providers, horizons=cfg.horizons),
            repeats)
        stages["distributions.csv"], _ = timed(
            lambda: b"".join(evalkit.distribution_chunks(sweep.errors)), repeats)
    print(f"seed {SEED}, {n_days} days, {repeats} runs each (s):")
    for name, times in stages.items():
        print(f"  {name:26s} best {min(times):.4f}  median {statistics.median(times):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
