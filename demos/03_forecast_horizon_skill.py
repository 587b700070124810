"""How estimation quality degrades over forecast horizons d0..d15.

Synthetic providers echo the station with noise that grows linearly in
the horizon. The script scores the raw forecast features against the
measurements (fidelity), sweeps all three estimators over every
(horizon, provider) cell, prints usable-horizon verdicts for two quality
thresholds, and writes the full report CSVs.
"""

from pathlib import Path

import numpy as np

from etoforge import evalkit, pipelines, regressor
from etoforge.synthetic import synthetic_dataset

OUT = Path("demo_out")

site, observations, forecasts = synthetic_dataset(seed=11, n_days=730)
all_forecasts = forecasts["VC"] + forecasts["OWM"]

X, _ = pipelines.feature_matrix(observations, site)
cfg = regressor.TrainConfig(epochs=400, seed=7)
models = evalkit.ModelBundle(
    et0_model=regressor.train(
        (X, pipelines.build_et0_target(observations, site, "average").values),
        ([32, 32], "relu"), cfg, feature_names=pipelines.FEATURE_NAMES,
        target_name="ET0"),
    sr_model=regressor.train(
        (X, pipelines.build_sr_target(observations).values),
        ([32, 32], "relu"), cfg, feature_names=pipelines.FEATURE_NAMES,
        target_name="SR"),
)

fidelity = evalkit.compare_forecast_fidelity(observations, all_forecasts)
print("feature fidelity (R2 at d0 / d7 / d15):")
for feature in evalkit.FIDELITY_FEATURES:
    for provider in ("VC", "OWM"):
        r2 = [fidelity.cells[(feature, provider, h)] for h in (0, 7, 15)]
        print(f"  {feature:<13} {provider:<3} " + "  ".join(f"{v:+.3f}" for v in r2))

sweep = evalkit.horizon_sweep(models, observations, all_forecasts, site,
                              humidity_mode="average")
print("\nestimator R2 by horizon (VC):")
for estimator in pipelines.ESTIMATORS:
    curve = [sweep.cells[(h, "VC", estimator)].r2 for h in range(16)]
    slope = np.polyfit(range(16), curve, 1)[0]
    print(f"  {estimator:<8} d0={curve[0]:.3f} d7={curve[7]:.3f} "
          f"d15={curve[15]:.3f}  slope/day={slope:+.4f}")

print("\nusable horizons:")
for criterion in (("r2", 0.7), ("mape", 25.0)):
    name, tau = criterion
    relation = ">=" if name == "r2" else "<="
    for provider in ("VC", "OWM"):
        verdicts = ", ".join(
            f"{e}=d{evalkit.usable_horizon(sweep, e, provider, criterion)}"
            for e in pipelines.ESTIMATORS)
        print(f"  {name}{relation}{tau}  {provider}: {verdicts}")

distribution = evalkit.error_distribution(models, observations, all_forecasts,
                                          site, humidity_mode="average")
OUT.mkdir(exist_ok=True)
for stem, report in [("sweep", sweep), ("fidelity", fidelity),
                     ("distributions", distribution)]:
    path = OUT / f"{stem}.csv"
    path.write_text(evalkit.emit_report(report))
    print(f"wrote {path}")
print("distribution rows feed violin/box plotting directly "
      "(horizon,provider,estimator,date,abs_error)")
