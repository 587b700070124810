"""Train both estimation routes on synthetic station data and compare them.

The direct route regresses reference ET straight from the reduced
feature set; the hybrid route regresses solar radiation instead and runs
the physics equation on the estimate. On held-out days the hybrid route
should edge out the direct one, since its only learned error is the
radiation term.
"""

from etoforge import evalkit, pipelines, regressor
from etoforge.synthetic import synthetic_dataset

site, observations, _ = synthetic_dataset(seed=11, n_days=730)

et0_target = pipelines.build_et0_target(observations, site, humidity_mode="average")
sr_target = pipelines.build_sr_target(observations)
X, _ = pipelines.feature_matrix(observations, site)

cut = int(len(observations) * 0.8)
cfg = regressor.TrainConfig(epochs=400, seed=7)

et0_model = regressor.train((X[:cut], et0_target.values[:cut]), ([32, 32], "relu"),
                            cfg, feature_names=pipelines.FEATURE_NAMES,
                            target_name="ET0")
sr_model = regressor.train((X[:cut], sr_target.values[:cut]), ([32, 32], "relu"),
                           cfg, feature_names=pipelines.FEATURE_NAMES,
                           target_name="SR")

held = observations[cut:]
estimates = pipelines.estimate(pipelines.ModelBundle(et0_model=et0_model, sr_model=sr_model),
                               held, site)
direct, sr_est, hybrid = (estimates[name][0] for name in ("ET0_ANN", "SR_ANN", "ET0_HYB"))

print(f"training days: {cut}, held-out days: {len(held)}")
for label, actual, predicted, eps, units in [
    ("direct ET route", et0_target.values[cut:], direct, 0.05, "mm/day"),
    ("SR regressor   ", sr_target.values[cut:], sr_est, 1.0, "W/m2"),
    ("hybrid ET route", et0_target.values[cut:], hybrid, 0.05, "mm/day"),
]:
    r = evalkit.metrics(actual, predicted, mape_epsilon=eps, units=units)
    print(f"{label}: R2={r.r2:.4f}  RMSE={r.rmse:.3f} {units}  "
          f"MAE={r.mae:.3f}  MAPE={r.mape:.2f}%")

# sanity: feeding the TRUE radiation into the hybrid path reproduces the
# target exactly, because the two branches share the identical physics
perfect = [pipelines.et0_from_sr(o.sr_avg, o, site).value for o in held]
assert list(perfect) == list(et0_target.values[cut:])
print("hybrid with true SR reproduces the target exactly: OK")
