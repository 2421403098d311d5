"""Kriging against 1D spline baselines on a synthetic rank field.

Generates a spatially correlated rank field from the bi-exponential
correlation model, hides each cell in turn, and compares how well ordinary
Kriging and the two index-based spline baselines recover it.

Run:  python3 demos/kriging_vs_baselines.py [n_seeds]
"""

import sys

import numpy as np

from uavrank import CorrelationModel, KrigingConfig, loo_evaluate
from uavrank.synth import synthetic_grid_positions, synthetic_rank_field

n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5

model = CorrelationModel(c1=0.2932, c2=-0.0508, c3=0.7057, c4=-0.001, rmse=0.0)
positions = synthetic_grid_positions(20, 20, 30.0)
altitudes = (30.0, 50.0, 70.0, 90.0, 110.0)
cfg = KrigingConfig(M=20, r0_m=150.0)

print(f"{len(positions)} cells, {len(altitudes)} altitudes, {n_seeds} seeds")
print(f"{'seed':>4}  {'kriging':>8}  {'spline':>8}  {'makima':>8}")
totals = {m: [] for m in ("kriging", "spline", "makima")}
for seed in range(n_seeds):
    rg = synthetic_rank_field(positions, model, altitudes, (100.0,), seed=seed)
    row = []
    for method in totals:
        rep = loo_evaluate(rg, method, cfg, model,
                           altitudes_m=(70.0,), thresholds=(100.0,))
        mae = rep.mae(70.0, 100.0)
        totals[method].append(mae)
        row.append(mae)
    print(f"{seed:>4}  {row[0]:8.4f}  {row[1]:8.4f}  {row[2]:8.4f}")

print("-" * 36)
means = {m: np.mean(v) for m, v in totals.items()}
print(f"mean  {means['kriging']:8.4f}  {means['spline']:8.4f}  "
      f"{means['makima']:8.4f}")
best = min(means, key=means.get)
print(f"\nlowest leave-one-out MAE: {best}")
