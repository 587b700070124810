"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

Runs `perfbench/run.py --workload W --seed S` once from each checkout per
pair, one process at a time; which side runs first alternates from pair to
pair. Each run's last output line is its result JSON. Prints each pair's
end-to-end metrics, each side's median and quartiles, how many pairs the
change wins per metric, and for each metric whether the pairs show a gain:
the change better in at least 9 of 10 pairs and the medians further apart,
in the better direction, than the parent's interquartile range. Metric names
and directions come from BENCHMARK.json at this checkout's root.

Usage: python scripts/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W
                                     [--pairs 10] [--seed 11]

The benchmark's own default sets each run's length. Each run writes only
under its own checkout's `.perfbench/`. Exits 1 if a run fails or either
side reports a failed op. Exits 2 before the first pair if the checkouts
were used unevenly: one holds a `.perfbench/`, `.pytest_cache/`,
`.hypothesis/` or `__pycache__/` directory the other lacks. A checkout that
has already run the tests or the benchmark times differently from a fresh
one, so compare two fresh copies made the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
USE_TRACES = (".perfbench", ".pytest_cache", ".hypothesis")   # plus any __pycache__


def use_traces(checkout: Path) -> set:
    """The directories that testing or running `checkout` has left in it, as relative paths."""
    found = {name for name in USE_TRACES if (checkout / name).is_dir()}
    return found | {str(p.relative_to(checkout)) for p in checkout.rglob("__pycache__")
                    if p.is_dir()}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result object of one benchmark run from `checkout`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("skill_study", "forecast_cron"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    traces = {side: use_traces(checkouts[side]) for side in SIDES}
    uneven = sorted(traces["parent"] ^ traces["change"])
    if uneven:
        side = "parent" if uneven[0] in traces["parent"] else "change"
        print(f"error: {checkouts[side] / uneven[0]} is only in the {side} checkout; "
              "compare two checkouts used the same way, e.g. two fresh copies",
              file=sys.stderr)
        return 2

    samples = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    print("pair first  " + "  ".join(f"{m['name']} parent/change" for m in metrics))
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        results = {side: run_once(checkouts[side], args.workload, args.seed)
                   for side in order}
        cells = []
        for m in metrics:
            got = [results[side]["metrics"][m["name"]]["value"] for side in SIDES]
            for side, value in zip(SIDES, got):
                samples[side][m["name"]].append(value)
            cells.append(f"{got[0]:.4g}/{got[1]:.4g}")
        for side in SIDES:
            failed[side] += results[side]["failed"]
        print(f"{pair:>4} {order[0]:<6} " + "  ".join(cells), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs; "
          f"failed ops: parent {failed['parent']}, change {failed['change']}")
    need = math.ceil(0.9 * args.pairs)
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        parent, change = samples["parent"][name], samples["change"][name]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = wins >= need and sign * (cm - pm) > p3 - p1
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent median {pm:.4g} [{p1:.4g}, {p3:.4g}], "
              f"change median {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"{(cm - pm) / pm:+.1%}; change better in {wins} of {args.pairs}; "
              f"parent IQR {p3 - p1:.4g}: "
              + ("gain shown" if gain else "no gain shown"))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
