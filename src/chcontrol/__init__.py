"""Simulation and optimal control of a coupled phase-field/nutrient model.

A phase field (tumor fraction) evolves by fourth-order Cahn-Hilliard
dynamics driven by a double-well potential, exchanging mass with a
diffusing nutrient through a proliferation rate; a distributed control
forces the nutrient equation inside box bounds.  The package provides the
forward IMEX solver, the exact discrete linearization and its transpose
(the adjoint), the reduced tracking cost with its gradient, a projected
gradient method, and verification utilities (transpose identities, Taylor
remainder sweeps, an ODE oracle for spatially constant runs).
"""

from .grid import (CgNonConvergenceError, Field, Grid, GridMismatchError, ParameterError,
                   cg_solve, grad_sq_integral, inner_product, integrate, neumann_laplacian,
                   norm_h)
from .model import (HypothesisReport, ModelParams, Numerics, QuadraticProliferation,
                    QuarticDoubleWell, SigmoidProliferation, check_hypotheses,
                    default_stabilization, f_deriv, p_deriv, preset_field, step_count)
from .forward import (ControlSchedule, DivergenceError, StabilityReport, StateTrajectory,
                      StepPlan, energy, l2q_inner, l2q_norm, lipschitz_probe, simulate, step)
from .sensitivity import (AdjointTrajectory, LinearizedTrajectory, adjoint_step,
                          dot_product_test, fit_loglog_slope, frechet_remainder_sweep,
                          level_coefficients, linearized_step, reduced_gradient,
                          solve_adjoint, solve_linearized)
from .optimize import (KktReport, OptimOptions, OptimResult, cost_taylor_sweep,
                       directional_derivative_check, kkt_report, project,
                       projected_gradient, reduced_cost)
from .snapshots import (SnapshotError, read_snapshot, read_snapshot_header, write_snapshot,
                        write_snapshots)
from .config import (ConfigError, FieldExpr, RunConfig, apply_overrides, build_grid,
                     build_initial_control, build_params, echo_text, parse_config)

__version__ = "0.1.0"
