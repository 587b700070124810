"""Run one etoforge benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload skill_study --seed 11 --seconds 15 --trace 0

The workload runs in this one process with one closed-loop client: each
CLI command starts after the previous one has returned. The run sets up
the workspace `setup_repeats` times (setup_s is import time plus the
median set-up; a set-up whose training fails its checks ends the run),
then repeats the timed op until another one would take the summed op
time past `--seconds`, but runs at least the workload's `min_ops`.
Garbage is collected before each op, outside its time. Every op's
outputs are checked. A failed check, a non-zero exit code or an
exception counts as a failed op.

With `--trace 1` the untraced loop is followed by one traced set-up and
one traced op, with spans around the program's public functions; the
per-layer metrics come from those spans. The last line of standard
output is the result object; a record of the run (metadata, every
sample) is written under `.perfbench/` at the checkout root.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads, so a 2-core machine measures the
# program rather than the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


@dataclass
class CommandResult:
    code: object
    stdout: str
    stderr: str


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("skill_study", "forecast_cron"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, default=1460,
                        help="station days to generate (the smoke check uses fewer)")
    return parser.parse_args(argv)


class Runner:
    """Runs CLI commands in process; times them, or traces them once `tracer` is set."""

    def __init__(self, cli, workloads, tracing):
        self.cli = cli
        self.workloads = workloads
        self.tracing = tracing
        self.tracer = None
        self.command_s: dict = {}
        self.first_op_rss_mb = None

    def command(self, ws, key, argv) -> CommandResult:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{key}") if self.tracer else nullcontext()
        start = time.perf_counter()
        with span:
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv + ["--config", str(ws.config)])
            except Exception:  # a raw traceback from the program is a failed op
                code = "exception"
                err.write(traceback.format_exc())
        if self.tracer is None:
            self.command_s.setdefault(key, []).append(time.perf_counter() - start)
        return CommandResult(code, out.getvalue(), err.getvalue())

    def setup(self, workload, seed, n_days, index):
        start = time.perf_counter()
        ws = self.workloads.prepare(WORK / f"{workload.name}-{os.getpid()}" / f"setup{index}",
                                    seed, n_days, workload.with_forecasts)
        outputs = {}
        for key, argv in workload.setup:
            outputs[key] = result = self.command(ws, key, argv)
            if result.code != 0:
                raise SystemExit(f"set-up command {key} failed ({result.code}):\n"
                                 f"{result.stderr}")
        seconds = time.perf_counter() - start
        failures = self.workloads.check_training(ws, outputs)
        if failures:
            raise SystemExit("set-up failed its checks: " + "; ".join(failures))
        return ws, seconds

    def op(self, workload, ws):
        """Run one op; returns (seconds, failures, output digest)."""
        start = time.perf_counter()
        outputs = {}
        for key, argv in workload.op:
            outputs[key] = self.command(ws, key, argv)
            if outputs[key].code != 0:
                break
        seconds = time.perf_counter() - start
        if self.first_op_rss_mb is None:
            # the peak of set-up and one op, as one nightly run would see it,
            # taken before the checks below allocate
            self.first_op_rss_mb = _peak_rss_mb()
        failed = {k: r for k, r in outputs.items() if r.code != 0}
        if failed:
            return seconds, [f"{k} exited with {r.code}: {r.stderr.strip()[-300:]}"
                             for k, r in failed.items()], None
        try:
            failures = workload.check(ws, outputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [f"output check raised {type(exc).__name__}: {exc}"]
        return seconds, failures, self.workloads.out_dir_digest(ws.out_dir)

    def checked_op(self, workload, ws, first_digest):
        """One op after a garbage collection; its outputs must match `first_digest`."""
        gc.collect()
        op_s, failures, digest = self.op(workload, ws)
        if digest is not None and first_digest is not None and digest != first_digest:
            failures.append("outputs differ from the first op's bytes")
        return op_s, failures, first_digest or digest

    def loop(self, workload, ws, seconds):
        """Timed ops until the next would take the op time past `seconds`; at least
        `min_ops`."""
        samples, failures, digest = [], [], None
        while True:
            op_s, op_failures, digest = self.checked_op(workload, ws, digest)
            samples.append(op_s)
            failures.append(op_failures)
            if (len(samples) >= workload.min_ops
                    and sum(samples) + statistics.median(samples) > seconds):
                return samples, failures, digest

    def traced(self, workload, ws, args, digest):
        """One traced set-up (in a workspace of its own) and one traced op in `ws`."""
        with self.tracer.span("setup", op_id=self.tracing.SETUP_OP):
            setup_ws, _ = self.setup(workload, args.seed, args.days, "traced")
        shutil.rmtree(setup_ws.root)
        with self.tracer.span("op", op_id=1):
            op_s, failures, _ = self.checked_op(workload, ws, digest)
        return [op_s], [failures]


def metadata(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted(SRC.rglob("*.py"))
    return {
        "commit": _git_head(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in src_files),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "n_days": args.days,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_head() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "etoforge" / "__init__.py").is_file():
        print(f"error: no etoforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from etoforge import cli
    import_s = time.perf_counter() - _T0

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(cli, workloads, tracing)
    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups, ws = [], None
        for i in range(workload.setup_repeats):
            if ws is not None:
                shutil.rmtree(ws.root)
            ws, setup_s = runner.setup(workload, args.seed, args.days, i)
            setups.append(setup_s)

        op_s, failures, digest = runner.loop(workload, ws, args.seconds)
        epochs = workloads.epochs_run(ws)
        traced_op_s, traced_failures = [], []
        if args.trace:
            runner.tracer = tracing.Tracer()
            runner.tracer.install()
            try:
                traced_op_s, traced_failures = runner.traced(workload, ws, args, digest)
            finally:
                runner.tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_failures = failures + traced_failures
    attempted = len(all_failures)
    n_failed = sum(1 for f in all_failures if f)
    median_op = statistics.median(op_s)
    rows_per_op = workload.rows_per_day * args.days
    end_to_end = {
        "op_s": {"value": median_op, "unit": "s"},
        "rows_per_s": {"value": rows_per_op / median_op, "unit": "rows/s"},
        "peak_rss_mb": {"value": runner.first_op_rss_mb, "unit": "MB"},
        "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
    }
    per_layer = {}
    if args.trace:
        layers = runner.tracer.layer_metrics(station_days=args.days)
        layers.update(tracing.overhead_metrics(op_s, traced_op_s))
        for key, _ in workloads.COMMANDS:
            samples = runner.command_s.get(key)
            layers[f"cli.{key}.s"] = statistics.median(samples) if samples else 0.0
        per_layer = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
        runner.tracer.write(WORK / "traces" / f"{workload.name}-seed{args.seed}.npz")

    record = {
        "meta": metadata(args, np),
        "import_s": import_s,
        "setup_samples_s": setups,
        "op_samples_s": op_s,
        "traced_op_samples_s": traced_op_s,
        "rows_per_op": rows_per_op,
        "rows_unit": workload.rows_unit,
        "command_samples_s": runner.command_s,
        "epochs_run": epochs,
        "peak_rss_mb_at_end": _peak_rss_mb(),
        "error_rate": n_failed / attempted,
        "failures": all_failures,
        "threads_at_end": threading.active_count(),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for i, failure in enumerate(all_failures, 1):
        if failure:
            print(f"FAILED op {i}: {'; '.join(failure[:5])}")
    print(f"{workload.name} seed={args.seed} days={args.days}: "
          f"{len(op_s)} op(s), median {median_op:.3f} s, setup {setups}, "
          f"error_rate {record['error_rate']}")
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": per_layer if args.trace else end_to_end,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s") or name.endswith("s_per_epoch"):
        return "s"
    if name.endswith("bytes_hashed"):
        return "bytes"
    if name.endswith(("_per_station_day", "_per_record", "_per_call", "_per_scored_row")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
