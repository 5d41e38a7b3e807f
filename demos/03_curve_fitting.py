"""
Fitting growth curves to noisy data
===================================

Bounded least squares recovers growth-curve parameters from scattered
(bodyweight, total) pairs. The amplitude L is solved in closed form for
each (k, x0), and one scipy trust-region call with the exact Jacobian
fits (k, x0) from a single data-driven start.

Run:  python demos/03_curve_fitting.py
"""

import numpy as np

from liftcurve import FitConfig, GrowthParams, ModelFamily, auto_init, evaluate, fit

rng = np.random.Generator(np.random.Philox(key=5))
truth = GrowthParams(ModelFamily.LOGISTIC, L=722.3, k=0.05447, x0=53.4)

x = rng.uniform(40.0, 180.0, 10_000)
y = evaluate(truth, x) + rng.normal(0.0, 30.0, 10_000)
y = np.maximum(y, 1.0)

init = auto_init(x, y, ModelFamily.LOGISTIC)
print(f"auto init:  L={init.L:7.1f}  k={init.k:.5f}  x0={init.x0:7.2f}")

result = fit(x, y, FitConfig(family=ModelFamily.LOGISTIC))
p = result.params
print(f"fitted:     L={p.L:7.1f}  k={p.k:.5f}  x0={p.x0:7.2f}")
print(f"truth:      L={truth.L:7.1f}  k={truth.k:.5f}  x0={truth.x0:7.2f}")
print(f"rmse={result.rmse:.2f} kg (noise was 30), converged={result.converged} "
      f"in {result.iterations} function evaluations")

standard_errors = np.sqrt(np.diag(result.covariance_proxy))
for name, value, se in zip(("L", "k", "x0"), (p.L, p.k, p.x0), standard_errors):
    print(f"  {name:>2} = {value:10.4f} +- {se:.4f}")

# The Von Bertalanffy family fits the same data almost as well above the
# inflection but cannot represent the increasing-returns region below it.
vb = fit(x, y, FitConfig(family=ModelFamily.VON_BERTALANFFY))
print(f"\nvon bertalanffy on the same data: L={vb.params.L:.1f}, rmse={vb.rmse:.2f} kg")
print("rmse gap vs logistic:", f"{vb.rmse - result.rmse:+.3f} kg")
