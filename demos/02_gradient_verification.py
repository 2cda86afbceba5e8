"""Gradient machinery, verified three independent ways.

1. Transpose identities: the backward sweep is the exact transpose of the
   forward linearization, so paired inner products must match to solver
   precision (single step and full horizon).
2. State Taylor remainder: the linearized trajectory is the derivative of
   the control-to-state map, so the remainder shrinks at second order.
3. Cost Taylor remainder and a centered directional derivative: the
   adjoint-assembled gradient matches finite differences of the reduced
   cost.
"""

from pathlib import Path

from chcontrol import (ControlSchedule, cost_taylor_sweep, directional_derivative_check,
                       dot_product_test, fit_loglog_slope, frechet_remainder_sweep,
                       preset_field)
from chcontrol.config import build_grid, build_initial_control, build_params, parse_config

# The strongly coupled instance of the Taylor-remainder sweeps.
config_path = Path(__file__).resolve().parent.parent / "configs" / "taylor.cfg"
cfg = parse_config(config_path.read_text())
grid = build_grid(cfg)
params = build_params(cfg, grid)

print("1) transpose identities (worst relative defect per seed)")
for seed in (0, 1, 2):
    gap = dot_product_test(params, grid, 8, seed)
    print(f"   seed {seed}: {gap:.3e}")

u = build_initial_control(cfg, grid, params)
h = ControlSchedule(grid, [preset_field("filtered_noise", grid, seed=7063 + n,
                                        amplitude=2.0).values
                           for n in range(params.n_steps)])

print("\n2) state Taylor remainder |phi(u+eps*h) - phi(u) - eps*xi|")
rows = frechet_remainder_sweep(params, u, h)
for eps, rem in rows:
    print(f"   eps={eps:<8g} remainder={rem:.3e}")
print(f"   fitted slope: {fit_loglog_slope(rows):.4f} (expected 2)")

print("\n3) cost Taylor remainder |J(u+eps*h) - J(u) - eps*<g,h>|")
rows, slope, pairing = cost_taylor_sweep(params, u, h)
for eps, rem in rows:
    print(f"   eps={eps:<8g} remainder={rem:.3e}")
print(f"   fitted slope: {slope:.4f} (expected 2), <g,h> = {pairing:.6e}")
rel = directional_derivative_check(params, u, h, eps=1e-3)
print(f"   centered difference vs <g,h>: relative error {rel:.3e}")
