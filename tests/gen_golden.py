"""Freeze the golden fidelity report for the emission-stability test.

Run once as ``python -m tests.gen_golden``; the CSV is committed and the
test regenerates the same report in-process and compares bytes.
"""

from pathlib import Path

from etoforge import evalkit
from etoforge.synthetic import synthetic_dataset

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_fidelity.csv"


def build_report():
    _, observations, forecasts = synthetic_dataset(seed=11, n_days=45)
    return evalkit.compare_forecast_fidelity(
        observations, forecasts["VC"] + forecasts["OWM"])


def main():
    text = evalkit.emit_report(build_report())
    GOLDEN_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
