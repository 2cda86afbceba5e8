"""Optimal nutrient control: steer a tumor ball toward a smaller target.

Loads the shipped tracking configuration (a soft control penalty with wide
bounds), runs projected gradient descent, and audits the first-order
conditions of the result: interior cells must zero the gradient, cells on
a bound must push outward, and where the control weight is positive the
control must equal the clamped lifted co-state.
"""

from chcontrol import Field, kkt_report, norm_h, projected_gradient, simulate
from chcontrol.config import (build_grid, build_initial_control, build_options,
                              build_params, parse_config)
from pathlib import Path

config_path = Path(__file__).resolve().parent.parent / "configs" / "tracking_soft.cfg"
cfg = parse_config(config_path.read_text())
grid = build_grid(cfg)
params = build_params(cfg, grid)
u0 = build_initial_control(cfg, grid, params)

print(f"instance: {grid}, {params.n_steps} steps, weights "
      f"(beta_q, beta_omega, beta_u) = ({params.beta_q}, {params.beta_omega}, {params.beta_u})")

result = projected_gradient(params, u0, build_options(cfg))

print(f"\ntermination: {result.termination_reason} after {result.iterations} iterations")
print("cost history:")
for k, cost in enumerate(result.cost_history):
    print(f"   iter {k:3d}: J = {cost:.12f}")
print(f"stationarity |u - clamp(u - g)| = {result.kkt_residual:.3e}")

adjoint = result.adjoint  # the adjoint of the final control, and its trajectory
trajectory = adjoint.base
report = kkt_report(params, result.control, adjoint, tol=1e-5)
print("\nfirst-order audit at tolerance 1e-5:")
print(f"   interior / lower / upper cells: "
      f"{report.n_interior} / {report.n_lower} / {report.n_upper}")
print(f"   violations: {report.violations} (worst {report.worst_violation:.3e})")
print(f"   clamp-formula gap max|u - clamp(-lift/beta_u)|: {report.projection_gap:.3e}")

# trajectory.phi is one (levels, nx) array; its last row is the final state.
final_misfit = Field(grid, trajectory.phi[-1] - params.phi_omega.values)
uncontrolled = Field(grid, simulate(params, u0).phi[-1] - params.phi_omega.values)

print(f"\nfinal-state misfit |phi(T) - target|: {norm_h(final_misfit):.6f}")
print(f"(compare the uncontrolled run: {norm_h(uncontrolled):.6f})")
