"""Write the reference outputs the default-seed checks compare against.

    python3 perfbench/make_reference.py

Runs the demo-04 chain (ingest ws, ingest forecast, train et0 and sr,
evaluate, predict) on the default seed at 1460 days and copies the
reports into perfbench/reference/. Run it only to re-freeze the
reference on purpose: the checks exist to notice when outputs change.
"""

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from etoforge import cli  # noqa: E402

import workloads  # noqa: E402

COPIED = ("sweep.csv", "fidelity.csv", "usable_horizons.csv", workloads.PREDICTIONS_FILE)


def main() -> int:
    scratch = ROOT / ".perfbench" / "reference-build"
    shutil.rmtree(scratch, ignore_errors=True)
    ws = workloads.prepare(scratch, workloads.DEFAULT_SEED, workloads.DEFAULT_DAYS,
                           with_forecasts=True)
    rmse = {}
    try:
        for key, argv in workloads.COMMANDS:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv + ["--config", str(ws.config)])
            if code != 0:
                print(f"{key} exited with {code}", file=sys.stderr)
                return 1
            match = workloads.HELD_OUT.search(out.getvalue())
            if match:
                rmse[key.split("_")[1].upper()] = float(match["rmse"])
        dest = workloads.REFERENCE_DIR
        dest.mkdir(exist_ok=True)
        for name in COPIED:
            shutil.copyfile(ws.out_dir / name, dest / name)
        with (ws.out_dir / "distributions.csv").open(encoding="utf-8") as fh:
            distributions_rows = sum(1 for _ in fh) - 1
        expected = {"seed": workloads.DEFAULT_SEED, "n_days": workloads.DEFAULT_DAYS,
                    "distributions_rows": distributions_rows, "held_out_rmse": rmse}
        (dest / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True)
                                            + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {', '.join(COPIED)} and expected.json to {workloads.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
