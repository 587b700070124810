"""Print the memory of each step of the benchmark's command chain, per workload.

For each workload of `perfbench/workloads.py`, one process writes the inputs
`perfbench.workloads.prepare` writes for SEED and DAYS and runs the workload's
commands in process through `etoforge.cli.main`, as `perfbench/run.py` runs a
set-up and its first op: each set-up's commands back to back (a workload with
two set-ups runs the commands twice, in a fresh workspace each time), then one
`gc.collect()`, then the op's commands. Nothing else collects garbage between
commands: collecting moves the answer. After each step it prints

- `ru_maxrss`: the process's peak RSS so far, which `peak_rss_mb` reads once
  the first op has run;
- `rss`: the current RSS, from /proc/self/statm;
- `traced peak`: the most memory Python allocations held during that step alone
  (tracemalloc), taken in a second process, since tracing changes the
  allocations and the RSS of the process it runs in.

The step marked `*` is the last that raised `ru_maxrss`: the one that sets
`peak_rss_mb`. One BLAS thread, as in `perfbench/run.py`. All sizes are MiB.

Usage: python scripts/stage_memory.py SEED DAYS
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("skill_study", "forecast_cron")


def _mib_rss() -> tuple:
    """(peak RSS so far, current RSS) of this process, in MiB."""
    import resource
    resident = int(Path("/proc/self/statm").read_text().split()[1])
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            resident * os.sysconf("SC_PAGE_SIZE") / 2 ** 20)


def child(workload_name: str, seed: int, days: int, traced: bool) -> None:
    """Run one workload's set-ups and first op; print one JSON line per step."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import contextlib
    import gc
    import io
    import shutil
    import tempfile
    import tracemalloc

    from etoforge import cli
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    if traced:
        tracemalloc.start()

    def step(name, run):
        """run(), the memory after it as one JSON line; its result (an exit code or a
        workspace)."""
        if traced:
            tracemalloc.reset_peak()
        result = run()
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20 if traced else None
        code = result if isinstance(result, int) else 0
        print(json.dumps({"step": name, "code": code, "rss": _mib_rss(), "traced": peak}),
              flush=True)
        return result

    def command(ws, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv + ["--config", str(ws.config)])

    with tempfile.TemporaryDirectory(prefix="stage-memory-") as scratch:
        ws = None
        for i in range(workload.setup_repeats):
            if ws is not None:
                shutil.rmtree(ws.root)
            root = Path(scratch) / f"setup{i}"
            ws = step(f"prepare (set-up {i + 1})", lambda root=root: workloads.prepare(
                root, seed, days, workload.with_forecasts))
            for key, argv in workload.setup:
                step(f"{key} (set-up {i + 1})", lambda argv=argv: command(ws, argv))
        gc.collect()
        for key, argv in workload.op:
            step(f"{key} (op)", lambda argv=argv: command(ws, argv))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 5 and args[2] == "--child":
        child(args[3], int(args[0]), int(args[1]), args[4] == "traced")
        return 0
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    seed, days = args
    print(f"seed {seed}, {days} days; sizes in MiB; * = the step that sets peak_rss_mb")
    print(f"{'workload':<14} {'step':<28} {'ru_maxrss':>9} {'rss':>7} {'traced peak':>11}")
    for name in WORKLOADS:
        runs = []
        for mode in ("rss", "traced"):
            done = subprocess.run([sys.executable, __file__, seed, days, "--child", name, mode],
                                  capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                return 1
            runs.append([json.loads(line) for line in done.stdout.splitlines()])
        plain, traced = runs
        failed = [s["step"] for s in plain if s["code"] != 0]
        if failed:
            print(f"{name}: {', '.join(failed)} exited non-zero", file=sys.stderr)
            return 1
        peaks = [s["rss"][0] for s in plain]
        setter = max(i for i, peak in enumerate(peaks) if i == 0 or peak > peaks[i - 1])
        for i, (s, t) in enumerate(zip(plain, traced, strict=True)):
            mark = "*" if i == setter else " "
            print(f"{name:<14} {s['step']:<28} {s['rss'][0]:>8.1f}{mark} {s['rss'][1]:>7.1f} "
                  f"{t['traced']:>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
