"""Forward simulation: a diffuse tumor ball relaxing with no forcing.

Walks through building a grid, smooth initial data, and a zero control
schedule, then integrates for 200 steps and reports the two structural
diagnostics recorded along the way: the combined-mass defect per step
(which should sit at the linear-solver tolerance) and the energy, which
must not increase on an unforced run.
"""

import numpy as np

from chcontrol import (ControlSchedule, Field, Grid, ModelParams, integrate,
                       preset_field, simulate)

grid = Grid.line(64, 8.0)
phi0 = preset_field("tanh_ball", grid, center=4.0, radius=1.5, width=0.4)
sigma0 = Field.full(grid, 0.0)
params = ModelParams(beta_u=1.0, t_final=0.2, tau=1e-3, phi0=phi0, sigma0=sigma0)
control = ControlSchedule.constant(grid, params.n_steps, 0.0)

print(f"grid: {grid}")
print(f"steps: {params.n_steps}, tau = {params.tau}, stabilization = {params.stabilization}")

trajectory = simulate(params, control)

# Each level array has one row per time level; wrap a row as a Field to
# integrate it.
mass0 = integrate(Field(grid, trajectory.phi[0])) + integrate(Field(grid, trajectory.sigma[0]))
mass_final = (integrate(Field(grid, trajectory.phi[-1]))
              + integrate(Field(grid, trajectory.sigma[-1])))
print(f"\ncombined mass: {mass0:.12f} -> {mass_final:.12f} "
      f"(drift {abs(mass_final - mass0):.3e})")
print(f"worst per-step mass defect: {np.max(np.abs(trajectory.mass_residuals)):.3e}")

energies = trajectory.energies  # computed on first access
print(f"energy: {energies[0]:.6f} -> {energies[-1]:.6f}")
print(f"largest energy increment over a step: {np.diff(energies).max():.3e} "
      "(negative = strictly dissipative)")

print("\nphase field profile (x, phi) every 8th cell at t = 0 and t = T:")
x = grid.cell_centers()[0]
for i in range(0, grid.n_cells, 8):
    print(f"  x={x[i]:5.2f}  phi0={trajectory.phi[0, i]:+.4f}  "
          f"phiT={trajectory.phi[-1, i]:+.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.5))
    for n in range(0, trajectory.n_steps + 1, 50):
        ax1.plot(x, trajectory.phi[n], label=f"t={trajectory.time(n):.2f}")
    ax1.set_xlabel("x")
    ax1.set_ylabel("phi")
    ax1.legend()
    ax2.plot([trajectory.time(n) for n in range(trajectory.n_steps + 1)], energies)
    ax2.set_xlabel("t")
    ax2.set_ylabel("energy")
    fig.tight_layout()
    fig.savefig("relaxation.png", dpi=120)
    print("\nwrote relaxation.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
