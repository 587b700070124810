"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/mine.json
    python3 perfbench/collect.py --workloads forecast_cron --seeds 1-5 --trace 1

Runs `run.py` once per (workload, seed), one after the other, and keeps
each run's result line and run record. For every end-to-end metric it
reports the median and the quartile spread, (Q3 - Q1) / median, with
`statistics.quantiles(values, n=4)`, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench" / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {"seed": seed, "result": result, "record": record}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(runs: list, trace: int) -> dict:
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    names = runs[0]["result"]["metrics"].keys()
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {"median": statistics.median(values), "values": values}
        if len(values) >= 2 and entry["median"]:
            entry["spread"] = spread(values)
        if not trace:
            entry["bound"] = bounds.get(name)
        summary[name] = entry
    return summary


def stages(runs_by_workload: dict) -> dict:
    """Median untraced seconds per CLI command over every run that ran it."""
    samples = {}
    for runs in runs_by_workload.values():
        for run in runs:
            for key, values in run["record"]["command_samples_s"].items():
                samples.setdefault(key, []).extend(values)
    return {key: {"median_s": statistics.median(v), "samples": len(v)}
            for key, v in sorted(samples.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, help="write every run and the summary here")
    args = parser.parse_args()

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.trace, args.seconds)
                for seed in seed_list(args.seeds)]
        summary = summarise(runs, args.trace)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed}/{attempted} ops failed")
        for name, entry in summary.items():
            line = f"  {name:45s} median {entry['median']:.6g}"
            if "spread" in entry:
                line += f"  spread {entry['spread']:.4f}"
            if entry.get("bound") is not None:
                line += f"  bound {entry['bound']}"
            print(line)
    doc["stages"] = stages({w: d["runs"] for w, d in doc["workloads"].items()})
    print("stage split (median untraced seconds per command):")
    for key, entry in doc["stages"].items():
        print(f"  {key:20s} {entry['median_s']:.3f} s  ({entry['samples']} samples)")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
