"""Continuous dependence on the control, measured empirically.

The solution map is locally Lipschitz: trajectory differences are bounded
by a constant times the control difference.  The probe simulates a base
control and a family of shrinking perturbations and reports the ratio of
state-difference norms to the control-difference norm; a genuine Lipschitz
bound shows up as ratios that stay flat as the perturbation shrinks.
"""

from chcontrol import (ControlSchedule, Field, Grid, ModelParams,
                       QuadraticProliferation, lipschitz_probe, preset_field)

grid = Grid.line(32, 8.0)
params = ModelParams(
    proliferation=QuadraticProliferation(p0=1.0), beta_u=1.0,
    t_final=0.05, tau=1e-3,
    phi0=preset_field("tanh_ball", grid, center=4.0, radius=1.5, width=0.4),
    sigma0=Field.full(grid, 0.2))

u_base = ControlSchedule.constant(grid, params.n_steps, 0.0)
direction = ControlSchedule(grid, [preset_field("filtered_noise", grid,
                                                seed=50 * 1009 + n, amplitude=1.0).values
                                   for n in range(params.n_steps)])
report = lipschitz_probe(params, u_base, u_base + direction,
                         eps_values=(1e-1, 1e-2, 1e-3, 1e-4))

header = f"{'eps':>8} {'|du|':>12} {'phi max-H':>12} {'phi int-V':>12} " \
         f"{'sig max-H':>12} {'sig int-V':>12}"
print(header)
for row in report.rows:
    ratios = row.ratios()
    print(f"{row.eps:8.0e} {row.du_l2q:12.4e} {ratios['phi_linf_h']:12.6e} "
          f"{ratios['phi_l2v']:12.6e} {ratios['sigma_linf_h']:12.6e} "
          f"{ratios['sigma_l2v']:12.6e}")

print("\nratios are per unit of control difference; their flatness across four")
print("decades of eps is the empirical Lipschitz signature.")
