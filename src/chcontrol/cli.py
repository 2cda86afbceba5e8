"""Command-line shell: parse a config, run one subcommand, write artifacts.

Usage:
    chcontrol <subcommand> <config_path> [section.key=value ...]

Subcommands: simulate, optimize, grad-check, taylor, oracle, check-hypotheses.
Exit codes: 0 pass, 1 criteria failure, 2 usage or config error, 3 numerical
divergence or linear-solver failure (``error=divergence`` or ``error=solver``
on stderr), 4 internal error (any other exception: ``error=internal`` and its
traceback on stderr).  The environment variable RUN_SEED, when set, overrides
every seed in the configuration and the built-in seed lists; it must be an
integer in [0, 2^54) (exit 2 otherwise).  Run logs contain no timestamps (those
go to a .meta sidecar, with the snapshot writer's process count and time), so
identical configurations produce bitwise-identical artifacts for one numpy/BLAS
build, CPU kernel and BLAS thread count (see the ``grid`` module).
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .config import (ConfigError, FieldExpr, RunConfig, apply_overrides, build_grid,
                     build_initial_control, build_options, build_params, echo_text,
                     parse_config)
from .forward import ControlSchedule, DivergenceError, simulate
from .grid import CgNonConvergenceError, Field
from .model import check_hypotheses, f_deriv, p_deriv, preset_field
from .optimize import (cost_taylor_sweep, directional_derivative_check, kkt_report,
                       projected_gradient)
from .sensitivity import dot_product_test, fit_loglog_slope, frechet_remainder_sweep
from .snapshots import write_snapshots

USAGE = """usage: chcontrol <subcommand> <config_path> [section.key=value ...]
subcommands:
  simulate          forward run with snapshots and diagnostics
  optimize          projected-gradient descent on the tracking cost
  grad-check        adjoint/linearization transpose identities
  taylor            state and cost Taylor-remainder sweeps
  oracle            spatially constant run against an RK4 ODE reference
  check-hypotheses  structural checks on the model ingredients
exit codes: 0 pass, 1 criteria failure, 2 usage/config error, 3 divergence or
            linear-solver failure (error=divergence / error=solver), 4 internal error
"""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _kv_line(**pairs) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in pairs.items())


class RunWriter:
    """Per-run output directory ``outdir``: writes the echoed config, the log,
    the snapshots and the ``run.meta`` sidecar (wall clock and timings)."""

    def __init__(self, cfg: RunConfig):
        self.outdir = Path(cfg["io.outdir"])
        self._log_lines: list[str] = []
        try:  # a directory that cannot be made or written is a config error
            self.outdir.mkdir(parents=True, exist_ok=True)
            (self.outdir / "config.echo").write_text(echo_text(cfg), encoding="utf-8")
            (self.outdir / "run.meta").write_text(
                f"started_unix={time.time()!r}\n", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write the run's files: {exc}", key="io.outdir") from exc

    def log(self, **pairs) -> None:
        self._log_lines.append(_kv_line(**pairs))

    def snapshots(self, grid, items) -> None:
        """``write_snapshots`` with its process count and wall time in run.meta."""
        start = time.perf_counter()
        processes = write_snapshots(grid, items)
        with open(self.outdir / "run.meta", "a", encoding="utf-8") as fh:
            fh.write(_kv_line(snapshot_processes=processes,
                              snapshot_s=time.perf_counter() - start) + "\n")

    def flush(self) -> None:
        (self.outdir / "run.log").write_text(
            "\n".join(self._log_lines) + ("\n" if self._log_lines else ""), encoding="utf-8")


def _run_seed() -> int | None:
    """RUN_SEED, or None when it is unset or empty; any value but an integer
    in [0, 2^54) is a ConfigError.  Below 2^54 every derived seed,
    seed*997 + k or seed*1009 + n for k, n < 2^57, stays in [0, 2^64)."""
    seed_env = os.environ.get("RUN_SEED")
    if not seed_env:
        return None
    try:
        seed = int(seed_env)
    except ValueError:
        seed = -1  # rejected below
    if not 0 <= seed < 2 ** 54:
        raise ConfigError(f"RUN_SEED must be an integer in [0, 2^54), got {seed_env!r}")
    return seed


def _seed_override(cfg: RunConfig) -> RunConfig:
    seed = _run_seed()
    if seed is None:
        return cfg
    values = dict(cfg.values)
    for key, value in values.items():
        if isinstance(value, FieldExpr):
            values[key] = value.with_seed(seed)
    return RunConfig(values=values)


def _seeds(default=(0, 1, 2)) -> list[int]:
    seed = _run_seed()
    return list(default) if seed is None else [seed]


def cmd_simulate(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    u = build_initial_control(cfg, grid, params)
    writer = RunWriter(cfg)
    every = cfg["io.snapshot_every"]
    traj = simulate(params, u)
    n_final = traj.n_steps
    items = []
    for n in range(n_final + 1):
        if n % every == 0 or n == n_final:
            for name, levels in (("phi", traj.phi), ("sigma", traj.sigma)):
                paths = [writer.outdir / f"{name}_{n:06d}.csv"]
                if n == n_final:
                    paths.append(writer.outdir / f"{name}_final.csv")
                items.append((levels[n], traj.time(n), paths))
    writer.snapshots(grid, items)
    masses, mass_residuals, energies = traj.masses, traj.mass_residuals, traj.energies
    for n in range(n_final):
        writer.log(step=n, t=traj.time(n + 1),
                   mass=float(masses[n + 1]),
                   mass_residual=float(mass_residuals[n]),
                   energy=float(energies[n + 1]),
                   phi_max=float(np.max(np.abs(traj.phi[n + 1]))))
    writer.flush()
    print(_kv_line(subcommand="simulate", steps=n_final,
                   final_energy=float(energies[-1]),
                   max_mass_residual=float(np.max(np.abs(mass_residuals)))))
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    u0 = build_initial_control(cfg, grid, params)
    writer = RunWriter(cfg)
    result = projected_gradient(params, u0, build_options(cfg))
    for k, cost in enumerate(result.cost_history):
        writer.log(iter=k, cost=cost)
    # Pointwise audit at the standard tolerance; the stopping rule above is an
    # integrated measure and lives on a different scale.
    report = kkt_report(params, result.control, result.adjoint, tol=1e-5)
    control_dir = writer.outdir / "control_final"
    control_dir.mkdir(exist_ok=True)
    writer.snapshots(grid, [(row, n * params.tau, [control_dir / f"u_{n:06d}.csv"])
                            for n, row in enumerate(result.control.values)])
    writer.log(termination=result.termination_reason, iterations=result.iterations,
               final_cost=result.cost_history[-1], kkt_residual=result.kkt_residual,
               kkt_violations=report.violations, worst_violation=report.worst_violation)
    writer.flush()
    print(_kv_line(subcommand="optimize", termination=result.termination_reason,
                   iterations=result.iterations, final_cost=result.cost_history[-1],
                   kkt_residual=result.kkt_residual, kkt_violations=report.violations))
    return 0 if result.termination_reason == "tolerance_met" else 1


def cmd_grad_check(cfg: RunConfig) -> int:
    bound = 1e-10  # on the relative defect of the transpose identities
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    n_steps = min(params.n_steps, 16)
    worst = 0.0
    for seed in _seeds():
        gap = dot_product_test(params, grid, n_steps, seed)
        worst = max(worst, gap)
        print(_kv_line(subcommand="grad-check", seed=seed, discrepancy=gap))
    print(_kv_line(subcommand="grad-check", max_discrepancy=worst, bound=bound,
                   ok=str(worst <= bound).lower()))
    return 0 if worst <= bound else 1


def _direction_schedule(grid, n_steps: int, seed: int, amplitude: float) -> ControlSchedule:
    return ControlSchedule(grid, [
        preset_field("filtered_noise", grid, seed=seed * 1009 + n, amplitude=amplitude).values
        for n in range(n_steps)])


def cmd_taylor(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    seed = _seeds(default=(2024,))[0]
    u = build_initial_control(cfg, grid, params)
    # A direction with O(1) pairing keeps the small-eps remainders well above
    # the linear-solver noise floor.
    h = _direction_schedule(grid, params.n_steps, seed, amplitude=2.0)

    def emit_rows(sweep, rows):
        prev = None
        for eps, rem in rows:
            if prev is None:
                print(_kv_line(subcommand="taylor", sweep=sweep, eps=eps, remainder=rem))
            else:
                order = math.log(prev[1] / rem) / math.log(prev[0] / eps)
                print(_kv_line(subcommand="taylor", sweep=sweep, eps=eps, remainder=rem,
                               order=order))
            prev = (eps, rem)

    state_rows = frechet_remainder_sweep(params, u, h)
    state_slope = fit_loglog_slope(state_rows)
    emit_rows("state", state_rows)
    state_ok = 1.9 <= state_slope <= 2.1
    print(_kv_line(subcommand="taylor", sweep="state", slope=state_slope,
                   ok=str(state_ok).lower()))

    cost_rows, cost_slope, pairing = cost_taylor_sweep(params, u, h)
    emit_rows("cost", cost_rows)
    cost_ok = 1.9 <= cost_slope <= 2.1
    print(_kv_line(subcommand="taylor", sweep="cost", slope=cost_slope,
                   pairing=pairing, ok=str(cost_ok).lower()))

    rel = directional_derivative_check(params, u, h, eps=1e-3)
    dir_ok = rel <= 1e-6
    print(_kv_line(subcommand="taylor", sweep="directional", eps=1e-3, rel_error=rel,
                   ok=str(dir_ok).lower()))
    return 0 if (state_ok and cost_ok and dir_ok) else 1


def _ode_reference(params, a0: float, b0: float, c: float, t_final: float) -> np.ndarray:
    """End state of the spatially constant model ``a' = P(a)(b - F'(a))``,
    ``b' = c - a'`` on [0, t_final] by classical RK4, from 64 steps doubled until
    two finite end states agree to 1e-13 relative (the error is then about 1/15
    of their gap); no agreement by 2^16 steps raises DivergenceError."""
    def rhs(y):
        exchange = p_deriv(params.proliferation, 0, y[0]) \
            * (y[1] - f_deriv(params.potential, 1, y[0]))
        return np.array([exchange, -exchange + c])

    def solve(n):  # the end state after n steps, or the first non-finite one
        h, y = t_final / n, np.array([a0, b0], dtype=float)
        for _ in range(n):
            k1 = rhs(y)
            k2 = rhs(y + (h / 2) * k1)
            k3 = rhs(y + (h / 2) * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                break
        return y

    n, prev = 64, np.full(2, np.nan)
    while n <= 2 ** 16:
        y = solve(n)
        if np.isfinite(y).all() and abs(y - prev).max() <= 1e-13 * max(1.0, abs(y).max()):
            return y
        prev, n = y, 2 * n
    raise DivergenceError("ODE reference: no two finite RK4 end states agree to 1e-13")


def cmd_oracle(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    for key in ("init.phi0", "init.sigma0", "opt.u0"):
        if cfg[key].kind != "constant":
            raise ConfigError("the oracle subcommand needs constant presets", key=key)
    a0, b0, c = (float(cfg[k].arg("value")) for k in ("init.phi0", "init.sigma0", "opt.u0"))
    ref = _ode_reference(params, a0, b0, c, params.t_final)

    errors = []
    for tau in (params.tau, params.tau / 2, params.tau / 4):
        p = dataclasses.replace(params, tau=tau, phi_q=None, phi_omega=None)
        u = ControlSchedule.constant(grid, p.n_steps, c)
        traj = simulate(p, u, phi0=Field.full(grid, a0), sigma0=Field.full(grid, b0))
        got = np.array([float(traj.phi[-1].flat[0]), float(traj.sigma[-1].flat[0])])
        err = float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))
        errors.append(err)
        print(_kv_line(subcommand="oracle", tau=tau, rel_error=err))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    order = float(np.mean(orders))
    ok = 0.9 <= order <= 1.1 and min(errors) <= 1e-3
    print(_kv_line(subcommand="oracle", order=order, min_rel_error=min(errors),
                   ok=str(ok).lower()))
    return 0 if ok else 1


def cmd_check_hypotheses(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    report = check_hypotheses(params)
    for line in report.lines():
        print(_kv_line(subcommand="check-hypotheses") + " " + line)
    return 0 if report.passed else 1


_SUBCOMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "grad-check": cmd_grad_check,
    "taylor": cmd_taylor,
    "oracle": cmd_oracle,
    "check-hypotheses": cmd_check_hypotheses,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE, end="")
        return 0 if argv and argv[0] in ("-h", "--help", "help") else 2
    name = argv[0]
    if name not in _SUBCOMMANDS:
        print(f"error=usage detail={name!r} is not a subcommand", file=sys.stderr)
        print(USAGE, end="", file=sys.stderr)
        return 2
    if len(argv) < 2:
        print("error=usage detail=missing config path", file=sys.stderr)
        return 2
    config_path = Path(argv[1])
    try:
        text = config_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        print(f"error=config detail=no such file: {config_path}", file=sys.stderr)
        return 2
    try:
        cfg = _seed_override(apply_overrides(parse_config(text), argv[2:]))
        return _SUBCOMMANDS[name](cfg)
    except ConfigError as exc:
        print(f"error=config detail={exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        step = "" if exc.step_index is None else f" step={exc.step_index}"
        print(f"error=divergence{step} detail={exc}", file=sys.stderr)
        return 3
    except CgNonConvergenceError as exc:
        print(f"error=solver residual={exc.residual!r} iterations={exc.iterations} "
              f"detail={exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, never a criteria failure
        print(f"error=internal type={type(exc).__name__} detail={exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
