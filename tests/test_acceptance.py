"""End-to-end acceptance suite.

Each test exercises one shipped verification criterion at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they stream).  Instances come from the shipped configuration files
where one exists for the criterion.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from chcontrol import (ControlSchedule, Field, Grid, ModelParams, Numerics,
                       OptimOptions, QuadraticProliferation, StepPlan, cg_solve,
                       check_hypotheses, cost_taylor_sweep, directional_derivative_check,
                       dot_product_test, fit_loglog_slope, frechet_remainder_sweep, inner_product,
                       integrate, kkt_report, l2q_norm, lipschitz_probe,
                       neumann_laplacian, norm_h, preset_field, project, projected_gradient,
                       simulate, solve_adjoint, step)
from chcontrol.cli import main as cli_main
from chcontrol.grid import laplacian_values
from chcontrol.sensitivity import adjoint_step, level_coefficients, linearized_step
from helpers import (assemble_operator, load_instance, ode_reference, smooth_field,
                     smooth_schedule, successive_orders)


def record(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_operator_sanity():
    worst_cons = 0.0
    worst_sym = 0.0
    for grid in (Grid.line(16, 4.0), Grid.box(12, 10, 4.0, 3.0)):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            f = Field(grid, rng.uniform(-1, 1, grid.shape))
            g = Field(grid, rng.uniform(-1, 1, grid.shape))
            lf, lg = neumann_laplacian(f), neumann_laplacian(g)
            worst_cons = max(worst_cons, abs(integrate(lf)) / norm_h(f))
            sym_scale = norm_h(lf) * norm_h(g) + norm_h(f) * norm_h(lg)
            worst_sym = max(worst_sym,
                            abs(inner_product(lf, g) - inner_product(f, lg)) / sym_scale)
    length = 2.0
    errors = []
    for n in (16, 32, 64):
        grid = Grid.line(n, length)
        x = grid.cell_centers()[0]
        f = Field(grid, np.cos(np.pi * x / length))
        errors.append(norm_h(Field(grid, neumann_laplacian(f).values
                                   + (np.pi / length) ** 2 * f.values)))
    orders = successive_orders(errors)

    grid = Grid.line(16, 4.0)
    tau = 0.01

    def op(v):
        return v - tau * laplacian_values(grid, v)

    dense = assemble_operator(op, grid)
    rhs = Field(grid, np.random.default_rng(4).uniform(-1, 1, 16))
    cg_gap = float(np.max(np.abs(
        cg_solve(op, rhs.values, grid, tol=1e-13) - np.linalg.solve(dense, rhs.values))))

    ok = (worst_cons <= 1e-12 and worst_sym <= 1e-12
          and all(1.9 <= o <= 2.1 for o in orders) and cg_gap <= 1e-10)
    record(1, "operator sanity", ok,
           f"conservation={worst_cons:.2e} symmetry={worst_sym:.2e} "
           f"orders={[f'{o:.3f}' for o in orders]} cg_vs_dense={cg_gap:.2e}")


def test_criterion_02_hypothesis_contract():
    quad = check_hypotheses(ModelParams(beta_u=1.0))
    alpha3 = quad.constants["alpha3"]
    from chcontrol import SigmoidProliferation
    sigm = check_hypotheses(ModelParams(beta_u=1.0, proliferation=SigmoidProliferation()))

    class LinearRate:
        growth_exponent = 1

        def value(self, s):
            return np.asarray(s, dtype=float)

        def deriv(self, s):
            return np.ones_like(np.asarray(s, dtype=float))

    import copy
    bad = copy.copy(ModelParams(beta_u=1.0))
    bad.proliferation = LinearRate()
    bad_report = check_hypotheses(bad)

    ok = (quad.passed and abs(alpha3 - 1.0) <= 1e-12 and sigm.passed
          and not bad_report.passed)
    record(2, "hypothesis contract", ok,
           f"alpha3={alpha3!r} quadratic={quad.passed} sigmoid={sigm.passed} "
           f"sign_indefinite_fails={not bad_report.passed}")


@pytest.fixture(scope="module")
def dissipation_run():
    _, grid, params, u0 = load_instance("dissipation.cfg")
    return grid, params, simulate(params, u0)


def test_criterion_03_mass_balance(dissipation_run):
    grid, params, traj = dissipation_run
    cg_tol = params.numerics.cg_tol
    worst_margin = 0.0
    for n in range(traj.n_steps):
        data = norm_h(Field(grid, traj.phi[n])) + norm_h(Field(grid, traj.sigma[n]))
        bound = 10.0 * cg_tol * (1.0 + data)
        worst_margin = max(worst_margin, abs(traj.mass_residuals[n]) / bound)
    m0 = integrate(Field(grid, traj.phi[0])) + integrate(Field(grid, traj.sigma[0]))
    m_final = integrate(Field(grid, traj.phi[-1])) + integrate(Field(grid, traj.sigma[-1]))
    drift = abs(m_final - m0) / (1.0 + abs(m0))
    ok = worst_margin <= 1.0 and traj.n_steps == 200 and drift <= 1e-9
    record(3, "mass balance", ok,
           f"per-step residual at {worst_margin:.3f} of bound, drift={drift:.2e}")


def test_criterion_04_energy_dissipation(dissipation_run):
    _, params, traj = dissipation_run
    increments = np.diff(traj.energies)
    allowance = 1e-8 * (1.0 + abs(traj.energies[0]))
    ok = bool(np.all(increments <= allowance))
    record(4, "energy dissipation", ok,
           f"max increment={increments.max():.2e} allowance={allowance:.2e} "
           f"steps={traj.n_steps}")


def test_criterion_05_ode_oracle():
    cfg, grid, params, u0 = load_instance("oracle.cfg")
    a0, b0, c = 0.2, 0.1, 0.3
    ref = ode_reference(params, a0, b0, c, 0.1)
    errors = []
    import dataclasses
    for tau in (4e-4, 2e-4, 1e-4):
        p = dataclasses.replace(params, tau=tau)
        u = ControlSchedule.constant(grid, p.n_steps, c)
        traj = simulate(p, u, phi0=Field.full(grid, a0), sigma0=Field.full(grid, b0))
        got = np.array([traj.phi[-1][0], traj.sigma[-1][0]])
        errors.append(float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))))
    orders = successive_orders(errors)
    ok = all(0.9 <= o <= 1.1 for o in orders) and errors[-1] <= 1e-3
    record(5, "ODE oracle equivalence", ok,
           f"orders={[f'{o:.3f}' for o in orders]} err(tau=1e-4)={errors[-1]:.2e}")


def test_criterion_06_linearization_exactness():
    grid = Grid.line(16, 4.0)
    params = ModelParams(beta_u=1.0, t_final=0.04, tau=5e-3,
                         numerics=Numerics(cg_tol=1e-13))
    worst = 0.0
    for seed in (0, 1, 2):
        phi_b = smooth_field(grid, seed * 31 + 1, 0.8)
        sigma_b = smooth_field(grid, seed * 31 + 2, 0.5)
        xi = smooth_field(grid, seed * 31 + 3, 1.0)
        rho = smooth_field(grid, seed * 31 + 4, 1.0)
        h = smooth_field(grid, seed * 31 + 5, 1.0)
        eps = 1e-5
        pb, sb = phi_b.values, sigma_b.values
        xv, rv, hv = xi.values, rho.values, h.values
        plan = StepPlan(params, grid)
        plus = step(plan, pb + eps * xv, sb + eps * rv, eps * hv)
        minus = step(plan, pb + (-eps) * xv, sb + (-eps) * rv, (-eps) * hv)
        lin = linearized_step(plan, level_coefficients(params, grid, pb, sb), xv, rv, hv)
        for (fp, fm), exact in zip(zip(plus, minus), lin):
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, float(np.linalg.norm(fd - exact) / np.linalg.norm(exact)))
    ok = worst <= 1e-5
    record(6, "linearization exactness", ok, f"worst relative error={worst:.2e}")


def test_criterion_07_state_remainder_order():
    _, grid, params, u0 = load_instance("taylor.cfg")
    h = smooth_schedule(grid, params.n_steps, seed=7, amplitude=2.0)
    rows = frechet_remainder_sweep(params, u0, h, eps_values=(1e-1, 3e-2, 1e-2, 3e-3))
    slope = fit_loglog_slope(rows)
    ok = 1.9 <= slope <= 2.1
    record(7, "state remainder order", ok,
           f"slope={slope:.4f} remainders={[f'{r:.2e}' for _, r in rows]}")


def test_criterion_08_adjoint_exactness():
    grid = Grid.line(16, 4.0)
    params = ModelParams(beta_u=1.0, t_final=0.04, tau=5e-3,
                         numerics=Numerics(cg_tol=1e-13))
    worst = max(dot_product_test(params, grid, 8, seed) for seed in (0, 1, 2))

    g8 = Grid.line(8, 4.0)
    phi_b, sigma_b = smooth_field(g8, 1, 0.8), smooth_field(g8, 2, 0.5)
    coefficients = level_coefficients(params, g8, phi_b.values, sigma_b.values)
    plan = StepPlan(params, g8)
    n = g8.n_cells
    jac = np.zeros((2 * n, 3 * n))
    for j in range(3 * n):
        e = np.zeros(3 * n)
        e[j] = 1.0
        a, b = linearized_step(plan, coefficients, e[:n], e[n:2 * n], e[2 * n:])
        jac[:, j] = np.concatenate([a.ravel(), b.ravel()])
    jac_t = np.zeros((3 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        p0, r0, lift = adjoint_step(plan, coefficients, e[:n], e[n:])
        jac_t[:, j] = np.concatenate([p0.ravel(), r0.ravel(), params.tau * lift.ravel()])
    dense_gap = float(np.max(np.abs(jac.T - jac_t)) / max(1.0, np.max(np.abs(jac))))
    ok = worst <= 1e-10 and dense_gap <= 1e-9
    record(8, "adjoint exactness", ok,
           f"dot-product={worst:.2e} dense-transpose={dense_gap:.2e}")


def test_criterion_09_gradient_correctness():
    _, grid, params, u0 = load_instance("taylor.cfg")
    h = smooth_schedule(grid, params.n_steps, seed=7, amplitude=2.0)
    rows, slope, pairing = cost_taylor_sweep(params, u0, h,
                                             eps_values=(1e-2, 1e-3, 1e-4, 1e-5))
    rel = directional_derivative_check(params, u0, h, eps=1e-3)
    ok = 1.9 <= slope <= 2.1 and rel <= 1e-6
    record(9, "gradient correctness", ok,
           f"taylor slope={slope:.4f} directional rel err={rel:.2e} pairing={pairing:.3e}")


def test_criterion_10_optimizer_analytic_cases():
    grid = Grid.line(16, 4.0)
    params = ModelParams(beta_q=0.0, beta_omega=0.0, beta_u=1.0, t_final=0.05, tau=5e-3,
                         phi0=Field.full(grid, 0.2), sigma0=Field.zeros(grid))
    clamped_params = dataclasses.replace(params, u_min=0.5, u_max=1.0)
    free = projected_gradient(
        params, smooth_schedule(grid, params.n_steps, seed=1, amplitude=0.8),
        OptimOptions(tol=1e-8, max_iters=50))
    free_norm = l2q_norm(params.tau, free.control)
    clamped = projected_gradient(
        clamped_params, ControlSchedule.constant(grid, params.n_steps, 0.9),
        OptimOptions(tol=1e-8, max_iters=50))
    clamp_gap = float(np.max(np.abs(clamped.control.values - 0.5)))
    monotone = all(
        all(b <= a for a, b in zip(res.cost_history, res.cost_history[1:]))
        for res in (free, clamped))
    ok = (free.termination_reason == "tolerance_met" and free.iterations <= 50
          and free_norm <= 1e-8
          and clamped.termination_reason == "tolerance_met" and clamp_gap == 0.0
          and monotone
          and all(np.array_equal(project(p, res.control).values, res.control.values)
                  for p, res in ((params, free), (clamped_params, clamped))))
    record(10, "optimizer analytic cases", ok,
           f"|u*|={free_norm:.2e} iters={free.iterations} clamp_gap={clamp_gap:.2e}")


def test_criterion_11_kkt_projection_formula():
    _, grid, params, u0 = load_instance("tracking.cfg")
    result = projected_gradient(params, u0, OptimOptions(tol=3e-7, max_iters=300))
    traj = simulate(params, result.control)
    adjoint = solve_adjoint(params, traj)
    report = kkt_report(params, result.control, adjoint, tol=1e-5)
    ok = (result.termination_reason == "tolerance_met" and report.violations == 0
          and report.projection_gap is not None and report.projection_gap <= 1e-5)
    record(11, "KKT / clamp formula", ok,
           f"violations={report.violations} worst={report.worst_violation:.2e} "
           f"clamp gap={report.projection_gap:.2e} active_lower={report.n_lower}")


def test_criterion_12_stability_echo():
    grid = Grid.line(32, 8.0)
    params = ModelParams(proliferation=QuadraticProliferation(p0=1.0), beta_u=1.0,
                         t_final=0.05, tau=1e-3,
                         phi0=preset_field("tanh_ball", grid, center=4.0, radius=1.5,
                                           width=0.4),
                         sigma0=Field.full(grid, 0.2))
    u1 = ControlSchedule.constant(grid, params.n_steps, 0.0)
    u2 = u1 + smooth_schedule(grid, params.n_steps, seed=50, amplitude=1.0)
    report = lipschitz_probe(params, u1, u2, eps_values=(1e-1, 1e-2, 1e-3, 1e-4))
    spreads = {}
    for key, values in report.ratio_table().items():
        mid = 0.5 * (max(values) + min(values))
        spreads[key] = (max(values) - min(values)) / mid
    ok = all(s <= 0.10 for s in spreads.values())
    record(12, "stability echo", ok,
           " ".join(f"{k}:{v:.2e}" for k, v in spreads.items()))


def test_criterion_13_reproducibility(tmp_path, capsys):
    """Two runs of one configuration in one process write the same bytes.

    This is the guarantee the package gives: bitwise for one numpy/BLAS
    build, CPU kernel and BLAS thread count.  The exact sums (``math.fsum``)
    do not depend on any of these; the BLAS dot and matrix products do, so
    outputs may differ across BLAS kernels or thread counts.
    """
    config = str(Path(__file__).resolve().parent.parent / "configs" / "dissipation.cfg")
    outputs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        code = cli_main(["simulate", config, "time.t_final=0.05",
                         f"io.outdir={outdir}"])
        assert code == 0
        outputs.append({name.name: name.read_bytes()
                        for name in sorted(outdir.iterdir()) if name.suffix == ".csv"})
        outputs[-1]["run.log"] = (outdir / "run.log").read_bytes()
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 1
    record(13, "bitwise reproducibility", ok,
           f"{len(outputs[0])} artifacts compared")
