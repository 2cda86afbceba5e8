import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from chcontrol import Grid, cli, forward, optimize, preset_field, sensitivity
from chcontrol.cli import main
from chcontrol.config import _SCHEMA, ConfigError, apply_overrides, parse_config
from helpers import (CONFIG_DIR, SRC_DIR, SWEEP_VALUES, load_instance, ode_reference,
                     run_cli_limited)

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# The three benchmark commands: the 1D soft tracking run from a rough initial
# control, the 64x64 filtered-noise relaxation, and the 32x32 transpose check.
BENCHMARK_COMMANDS = {
    "optimize_1d": ("optimize", "tracking_soft.cfg",
                    ("opt.u0=filtered_noise seed=0 amplitude=0.5",)),
    "simulate_2d": ("simulate", "twodim.cfg",
                    ("grid.nx=64", "grid.ny=64", "init.phi0=filtered_noise seed=0 amplitude=0.6",
                     "time.t_final=0.02")),
    "gradcheck_2d": ("grad-check", "gradcheck.cfg",
                     ("grid.dim=2", "grid.nx=32", "grid.ny=32", "grid.ly=4.0")),
}


def benchmark_argv(name, outdir, extra=()):
    sub, config, overrides = BENCHMARK_COMMANDS[name]
    return [sub, cfg(config), *overrides, *extra, f"io.outdir={outdir}"]


def counting(counts, key, fn):
    """``fn``, adding one to ``counts[key]`` per call."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def cfg(name):
    return str(CONFIG_DIR / name)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, out, _ = run([], capsys)
        assert code == 2
        assert "usage" in out

    def test_help(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0 and "subcommands" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(["explode", cfg("equilibrium.cfg")], capsys)
        assert code == 2
        assert "error=usage" in err

    def test_missing_config(self, capsys):
        code, _, err = run(["simulate", "/nonexistent.cfg"], capsys)
        assert code == 2
        assert "error=config" in err

    def test_bad_override(self, capsys, tmp_path):
        code, _, err = run(["simulate", cfg("equilibrium.cfg"),
                            f"io.outdir={tmp_path}", "grid.nz=1"], capsys)
        assert code == 2
        assert "grid.nz" in err

    @pytest.mark.parametrize("sub, config, override, key", [
        ("optimize", "tracking.cfg", "opt.u0=tanh_ball center=1.0 radius=-1.0 width=0.3",
         "opt.u0"),
        ("optimize", "tracking.cfg", "opt.u0=file path={missing}", "opt.u0"),
        ("simulate", "equilibrium.cfg", "init.phi0=file path={missing}", "init.phi0"),
        ("optimize", "tracking.cfg", "target.phi_q=file path={missing}_{{n}}.csv",
         "target.phi_q"),
    ])
    def test_unbuildable_field_names_its_key(self, sub, config, override, key, capsys,
                                             tmp_path):
        override = override.format(missing=tmp_path / "missing")
        code, _, err = run([sub, cfg(config), override, f"io.outdir={tmp_path}"], capsys)
        assert code == 2
        assert err.startswith("error=config") and f"key {key}" in err

    @pytest.mark.parametrize("sub, config, overrides, key", [
        ("simulate", "dissipation.cfg", ("time.t_final=inf",), "time.t_final"),
        ("optimize", "tracking.cfg", ("model.beta_u=nan",), "model.beta_u"),
        ("optimize", "tracking.cfg", ("model.proliferation=sigmoid", "model.k=nan"), "model.k"),
        ("optimize", "tracking.cfg", ("model.proliferation=sigmoid", "model.p0=nan"), "model.p0"),
    ])
    def test_non_finite_number_names_its_key(self, sub, config, overrides, key, capsys,
                                             tmp_path):
        code, _, err = run([sub, cfg(config), *overrides, f"io.outdir={tmp_path}"], capsys)
        assert code == 2
        assert err.startswith("error=config") and f"key {key}" in err

    @pytest.mark.parametrize("sub, config, override, key", [
        # Per-axis grid rules name their own axis (both named grid.nx before).
        ("simulate", "twodim.cfg", "grid.ny=2", "grid.ny"),
        ("simulate", "twodim.cfg", "grid.ly=-1", "grid.ly"),
        # A bound ordered wrongly only as a field is found by build_params.
        ("simulate", "dissipation.cfg", "model.u_min=constant value=2.0", "model.u_min"),
        ("optimize", "tracking.cfg", "solver.cg_maxit=0", "solver.cg_maxit"),
        # Below machine epsilon no relative residual is reachable (exit 3 before).
        ("optimize", "tracking.cfg", "solver.cg_tol=1e-300", "solver.cg_tol"),
        ("optimize", "tracking.cfg", "opt.alpha0=0", "opt.alpha0"),
        # Constants, not settings: the well, the line search, the smoother.
        ("simulate", "dissipation.cfg", "model.potential=quartic_double_well",
         "model.potential"),
        ("optimize", "tracking.cfg", "opt.armijo_c=0.0001", "opt.armijo_c"),
        ("optimize", "tracking.cfg", "opt.alpha_shrink=0.5", "opt.alpha_shrink"),
        ("simulate", "dissipation.cfg", "init.phi0=filtered_noise seed=0 kappa=0.25",
         "init.phi0"),
        ("optimize", "tracking.cfg", "opt.u0=filtered_noise seed=0 passes=2", "opt.u0"),
    ])
    def test_out_of_domain_value_names_its_key(self, sub, config, override, key, capsys,
                                               tmp_path):
        code, _, err = run([sub, cfg(config), override, f"io.outdir={tmp_path}"], capsys)
        assert code == 2
        assert err.startswith("error=config") and f"key {key}" in err

    @pytest.mark.parametrize("outdir", ["file", "file/sub"])
    def test_unusable_outdir_names_its_key(self, outdir, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        code, _, err = run(["simulate", cfg("dissipation.cfg"), f"io.outdir={tmp_path / outdir}"],
                           capsys)
        assert code == 2
        assert err.startswith("error=config") and "key io.outdir" in err

    def test_later_write_failure_exits_4(self, capsys, tmp_path, monkeypatch):
        # Only the output directory's first writes are configuration errors.
        def full_disk(grid, items):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_snapshots", full_disk)
        code, _, err = run(["simulate", cfg("dissipation.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 4
        assert err.startswith("error=internal type=OSError")

    @pytest.mark.parametrize("override, key", [
        # The phase symbol 1 + tau*(mu^2 + S*mu) overflows.
        ("grid.lx=1e-150", "grid.lx"),
        ("grid.lx=1e-300", "grid.lx"),
        ("model.stabilization=1e308", "model.stabilization"),
        ("model.well_scale=1e308", "model.well_scale"),
        # Over the value budget: a level array, a DCT matrix.
        ("time.tau=1e-300", "time.tau"),
        ("time.tau=1e-310", "time.tau"),
        ("time.tau=1e-12", "time.tau"),
        ("grid.nx=20000", "grid.nx"),
        # An unknown preset argument is rejected before any smoothing.
        ("init.phi0=filtered_noise seed=0 passes=100000000", "init.phi0"),
    ])
    def test_overflowing_or_oversized_input_names_its_key(self, override, key, tmp_path):
        # In a memory-limited subprocess: a missed check may allocate
        # gigabytes (grid.nx=20000) or run for hours.
        proc = run_cli_limited(["simulate", cfg("dissipation.cfg"), override,
                                f"io.outdir={tmp_path}"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error=config") and f"key {key}" in proc.stderr

    def test_overflowing_smoother_names_its_key_without_a_warning(self, tmp_path, monkeypatch):
        # amplitude*noise is finite and the smoother's transforms overflow; run
        # as under ``python -W error``, so a numpy warning would exit 4.
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        proc = run_cli_limited(["simulate", cfg("dissipation.cfg"),
                                "init.phi0=filtered_noise seed=1 amplitude=1e308",
                                f"io.outdir={tmp_path}"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error=config") and "key init.phi0" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_internal_error_exits_4(self, capsys, tmp_path, monkeypatch):
        # A defect's uncaught exception must not read as a criteria failure.
        def defect(cfg, grid, params):
            raise ValueError("a defect")

        monkeypatch.setitem(cli._SUBCOMMANDS, "simulate", defect)
        code, _, err = run(["simulate", cfg("dissipation.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 4
        assert err.startswith("error=internal type=ValueError detail=a defect")
        assert "Traceback" in err

    @pytest.mark.parametrize("step_index, step", [(None, ""), (7, " step=7")])
    def test_divergence_names_its_step_only_when_known(self, step_index, step, capsys,
                                                        tmp_path, monkeypatch):
        def diverge(cfg, grid, params):
            raise forward.DivergenceError("phi left the guard", step_index=step_index)

        monkeypatch.setitem(cli._SUBCOMMANDS, "simulate", diverge)
        code, _, err = run(["simulate", cfg("dissipation.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 3
        assert err == f"error=divergence{step} detail=phi left the guard\n"

    @pytest.mark.parametrize("sub, config, seed", [
        ("simulate", "equilibrium.cfg", "abc"),
        ("grad-check", "gradcheck.cfg", "-1"),
        ("grad-check", "gradcheck.cfg", str(2 ** 54)),
    ])
    def test_bad_run_seed(self, sub, config, seed, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RUN_SEED", seed)
        code, _, err = run([sub, cfg(config), f"io.outdir={tmp_path}"], capsys)
        assert code == 2
        assert err.startswith("error=config") and "RUN_SEED" in err

    def test_largest_run_seed_derives_valid_seeds(self, monkeypatch):
        monkeypatch.setenv("RUN_SEED", str(2 ** 54 - 1))
        seed = cli._run_seed()
        grid = Grid.line(8, 1.0)
        for derived in (seed, seed * 997 + 316, seed * 1009 + 2 ** 20):
            preset_field("filtered_noise", grid, seed=derived)


class TestSimulate:
    def test_equilibrium_final_equals_initial(self, capsys, tmp_path):
        code, out, _ = run(["simulate", cfg("equilibrium.cfg"),
                            f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        from chcontrol import Grid
        from chcontrol.snapshots import read_snapshot
        grid = Grid.line(16, 4.0)
        first = read_snapshot(tmp_path / "phi_000000.csv", grid)
        last = read_snapshot(tmp_path / "phi_final.csv", grid)
        assert abs(first.values - last.values).max() <= 1e-10
        assert (tmp_path / "config.echo").exists()
        assert (tmp_path / "run.log").exists()

    def test_divergence_exit_code(self, capsys, tmp_path):
        code, _, err = run(["simulate", cfg("equilibrium.cfg"),
                            f"io.outdir={tmp_path}", "solver.overflow_guard=0.5"], capsys)
        assert code == 3
        assert "error=divergence" in err

    def test_solver_failure_exit_code(self, capsys, tmp_path):
        code, _, err = run(["simulate", cfg("twodim.cfg"), f"io.outdir={tmp_path}",
                            "solver.cg_maxit=1"], capsys)
        assert code == 3
        assert "error=solver" in err
        assert "iterations=1" in err

    def test_solver_failure_exit_code_on_dense_path(self, capsys, tmp_path):
        # 32 cells take the dense operator path; the solves must stay iterative.
        code, _, err = run(["optimize", cfg("tracking_soft.cfg"), f"io.outdir={tmp_path}",
                            "solver.cg_maxit=1"], capsys)
        assert code == 3
        assert "error=solver" in err

    @pytest.mark.parametrize("name", sorted(BENCHMARK_COMMANDS))
    def test_one_iteration_budget_fails_every_benchmark_command(self, name, capsys, tmp_path):
        # The phase solve is preconditioned; the diffusion solves are not, so
        # one iteration stays a solver failure on every benchmark command.
        code, _, err = run(benchmark_argv(name, tmp_path, ("solver.cg_maxit=1",)), capsys)
        assert code == 3
        assert "error=solver" in err
        assert "iterations=1" in err

    def test_two_dimensional_run(self, capsys, tmp_path):
        code, out, _ = run(["simulate", cfg("twodim.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0

    def test_log_has_no_timestamps(self, capsys, tmp_path):
        code, _, _ = run(["simulate", cfg("equilibrium.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        log = (tmp_path / "run.log").read_text()
        assert "unix" not in log
        assert "started_unix" in (tmp_path / "run.meta").read_text()

    def test_meta_records_snapshot_processes_and_time(self, capsys, tmp_path):
        code, _, _ = run(["simulate", cfg("equilibrium.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        started, snapshot = (tmp_path / "run.meta").read_text().splitlines()
        assert started.startswith("started_unix=")
        pairs = dict(tok.split("=") for tok in snapshot.split())
        assert sorted(pairs) == ["snapshot_processes", "snapshot_s"]
        assert pairs["snapshot_processes"] == "1" and float(pairs["snapshot_s"]) > 0
        assert "snapshot" not in (tmp_path / "run.log").read_text()

    def test_final_snapshots_repeat_the_last_level(self, capsys, tmp_path):
        # 20 steps written every 7th: the last level is written by the n == N rule.
        code, _, _ = run(["simulate", cfg("dissipation.cfg"), "time.t_final=0.02",
                          "io.snapshot_every=7", f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("phi_0*.csv")) == [
            f"phi_{n:06d}.csv" for n in (0, 7, 14, 20)]
        for name in ("phi", "sigma"):
            assert ((tmp_path / f"{name}_final.csv").read_bytes()
                    == (tmp_path / f"{name}_000020.csv").read_bytes())


class TestDeterminism:
    def test_bitwise_identical_runs(self, capsys, tmp_path):
        args = ["simulate", cfg("dissipation.cfg"), "time.t_final=0.02"]
        run(args + [f"io.outdir={tmp_path / 'a'}"], capsys)
        run(args + [f"io.outdir={tmp_path / 'b'}"], capsys)
        # config.echo differs only in the io.outdir override itself
        for name in ("phi_final.csv", "sigma_final.csv", "run.log"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.skipif(CPUS < 2, reason="needs at least 2 CPUs")
    def test_snapshot_bytes_do_not_depend_on_cpu_affinity(self, tmp_path):
        # The same benchmark command pinned to one CPU (one writer process)
        # and at default affinity (forked writers), at one BLAS thread each.
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from chcontrol.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), RUN_SEED="5")
        env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS")})
        runs = {}
        for affinity in ("one", "all"):
            outdir = tmp_path / affinity
            argv = benchmark_argv("simulate_2d", outdir, ("io.snapshot_every=1",))
            proc = subprocess.run([sys.executable, "-c", code, affinity, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            files = {p.name: p.read_bytes() for p in outdir.iterdir()
                     if p.name not in ("run.meta", "config.echo")}
            meta = (outdir / "run.meta").read_text()
            runs[affinity] = (proc.stdout, proc.stderr, files)
            processes = 1 if affinity == "one" else min(42, CPUS)
            assert f"snapshot_processes={processes} " in meta
        assert len(runs["one"][2]) == 2 * 21 + 3  # 21 levels, two finals and run.log
        assert runs["one"] == runs["all"]


class TestVerificationSubcommands:
    def test_grad_check(self, capsys, tmp_path):
        code, out, _ = run(["grad-check", cfg("gradcheck.cfg"),
                            f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "max_discrepancy" in out and "ok=true" in out

    def test_grad_check_run_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RUN_SEED", "7")
        code, out, _ = run(["grad-check", cfg("gradcheck.cfg"),
                            f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "seed=7" in out
        assert "seed=0" not in out

    def test_grad_check_builds_two_plans_per_seed(self, capsys, tmp_path, monkeypatch):
        # One for the single-step identity and one for the base run, whose
        # linearized and adjoint sweeps share it.
        counts = {"plans": 0, "seeds": 0}
        monkeypatch.setattr(forward.StepPlan, "__init__",
                            counting(counts, "plans", forward.StepPlan.__init__))
        monkeypatch.setattr(cli, "dot_product_test",
                            counting(counts, "seeds", cli.dot_product_test))
        code, _, _ = run(["grad-check", cfg("gradcheck.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert counts["seeds"] > 1
        assert counts["plans"] == 2 * counts["seeds"]

    def test_taylor(self, capsys, tmp_path):
        code, out, _ = run(["taylor", cfg("taylor.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "sweep=state" in out and "sweep=cost" in out and "sweep=directional" in out

    def test_oracle(self, capsys, tmp_path):
        code, out, _ = run(["oracle", cfg("oracle.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "order=" in out

    @pytest.mark.parametrize("overrides, a0, b0, c, t_final", [
        ((), 0.2, 0.1, 0.3, 0.1),
        (("model.p0=2",), -0.7, 0.5, -1.0, 1.0),
        (("model.proliferation=sigmoid", "model.p0=1", "model.k=3", "model.p_floor=0.1"),
         0.9, -0.2, 0.5, 1.0),
    ])
    def test_oracle_reference_matches_solve_ivp(self, overrides, a0, b0, c, t_final):
        params = load_instance("oracle.cfg", overrides)[2]
        got = cli._ode_reference(params, a0, b0, c, t_final)
        assert np.max(np.abs(got - ode_reference(params, a0, b0, c, t_final))) <= 1e-10

    def test_oracle_overflowing_start_exits_3(self, tmp_path):
        # Every RK4 run leaves the finite range, so the reference gives up at
        # its step cap instead of refining forever.  It has no step to name.
        proc = run_cli_limited(["oracle", cfg("oracle.cfg"), "init.phi0=constant value=1e100",
                                f"io.outdir={tmp_path}"])
        assert proc.returncode == 3
        assert proc.stderr.splitlines()[-1].startswith("error=divergence detail=")
        assert "step=" not in proc.stderr

    def test_oracle_rejects_nonconstant_presets(self, capsys, tmp_path):
        code, _, err = run(["oracle", cfg("oracle.cfg"), f"io.outdir={tmp_path}",
                            "init.phi0=tanh_ball center=2.0 radius=1.0 width=0.3"], capsys)
        assert code == 2
        assert "constant" in err

    def test_check_hypotheses(self, capsys, tmp_path):
        code, out, _ = run(["check-hypotheses", cfg("hypotheses.cfg"),
                            f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "all_pass=true" in out

    def test_check_hypotheses_sigmoid(self, capsys, tmp_path):
        code, out, _ = run(["check-hypotheses", cfg("hypotheses.cfg"),
                            f"io.outdir={tmp_path}", "model.proliferation=sigmoid"], capsys)
        assert code == 0
        assert "all_pass=true" in out


class TestOptimize:
    def test_tracking_converges(self, capsys, tmp_path):
        code, out, _ = run(["optimize", cfg("tracking.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "termination=tolerance_met" in out
        assert "kkt_violations=0" in out
        assert (tmp_path / "control_final" / "u_000000.csv").exists()

    def test_control_snapshots_are_written_in_process(self, capsys, tmp_path, monkeypatch):
        # 50 levels of 32 cells are below the fork threshold of the writer.
        def raising_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", raising_fork)
        code, _, _ = run(["optimize", cfg("tracking_soft.cfg"), f"io.outdir={tmp_path}"],
                         capsys)
        assert code == 0
        assert len(list((tmp_path / "control_final").glob("u_*.csv"))) == 50
        assert "snapshot_processes=1 " in (tmp_path / "run.meta").read_text()

    def test_final_control_is_not_simulated_again(self, capsys, tmp_path, monkeypatch):
        # Every simulate is a cost evaluation: the final KKT audit reuses the
        # optimizer's own adjoint of the final control.
        counts = {"simulate": 0, "cost": 0}
        counted_simulate = counting(counts, "simulate", forward.simulate)
        for module in (forward, optimize, cli):
            monkeypatch.setattr(module, "simulate", counted_simulate)
        monkeypatch.setattr(optimize, "_tracking_cost",
                            counting(counts, "cost", optimize._tracking_cost))
        code, _, _ = run(["optimize", cfg("tracking.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert counts["cost"] > 1
        assert counts["simulate"] == counts["cost"]

    def test_benchmark_sweeps_solve_phase_once_and_build_coefficients_once(
            self, capsys, tmp_path, monkeypatch):
        # Each phase solve starts at its exact spectral solution, so it applies
        # the operator once (the true-residual check); each adjoint sweep builds
        # the Jacobian coefficients of all its levels in one call.
        counts = {"phase_solves": 0, "phase_applies": 0, "simulates": 0, "sweeps": 0}
        stacks = []
        # The forward step reaches the phase solve through forward, the
        # sensitivity steps through sensitivity.
        counted_solve = counting(counts, "phase_solves", forward._phase_solve)
        for module in (forward, sensitivity):
            monkeypatch.setattr(module, "_phase_solve", counted_solve)
        real_phase_operator = forward.phase_operator

        def phase_operator(*args):
            return counting(counts, "phase_applies", real_phase_operator(*args))

        real_coefficients = sensitivity.level_coefficients

        def level_coefficients(params, grid, phi, sigma):
            stacks.append(phi.shape)
            return real_coefficients(params, grid, phi, sigma)

        monkeypatch.setattr(forward, "phase_operator", phase_operator)
        monkeypatch.setattr(sensitivity, "level_coefficients", level_coefficients)
        monkeypatch.setattr(optimize, "simulate",
                            counting(counts, "simulates", optimize.simulate))
        monkeypatch.setattr(optimize, "solve_adjoint",
                            counting(counts, "sweeps", optimize.solve_adjoint))
        code, out, _ = run(benchmark_argv("optimize_1d", tmp_path), capsys)
        assert code == 0 and "termination=tolerance_met" in out
        n_steps = 50
        assert stacks == [(n_steps, 32)] * counts["sweeps"]
        assert counts["phase_solves"] == (counts["simulates"] + counts["sweeps"]) * n_steps
        assert counts["phase_applies"] == counts["phase_solves"]

    def test_benchmark_sweeps_build_each_operator_once(self, capsys, tmp_path, monkeypatch):
        # Every simulate builds its step plan once: one phase operator, one
        # phase inverse and one diffusion operator, not one per step.  The
        # adjoint sweeps build none; they run on the plan of their trajectory.
        builders = ("phase_operator", "phase_preconditioner", "diffusion_operator")
        counts = dict.fromkeys(builders + ("simulates", "sweeps"), 0)
        for name in builders:
            monkeypatch.setattr(forward, name, counting(counts, name, getattr(forward, name)))
        monkeypatch.setattr(optimize, "simulate",
                            counting(counts, "simulates", optimize.simulate))
        monkeypatch.setattr(optimize, "solve_adjoint",
                            counting(counts, "sweeps", optimize.solve_adjoint))
        code, _, _ = run(benchmark_argv("optimize_1d", tmp_path), capsys)
        assert code == 0
        assert counts["simulates"] > 1 and counts["sweeps"] > 1
        assert [counts[name] for name in builders] == [counts["simulates"]] * len(builders)


# Each subcommand on its shipped config, with the horizon (and the optimizer's
# budget) cut so that the run sweep stays fast; the swept override comes last.
RUN_SWEEP_BASES = {
    "simulate": ("dissipation.cfg", ("time.t_final=0.01",)),
    "optimize": ("tracking.cfg", ("time.t_final=0.01", "opt.max_iters=5")),
    "grad-check": ("gradcheck.cfg", ()),
    "taylor": ("taylor.cfg", ("time.t_final=0.02",)),
    "oracle": ("oracle.cfg", ("time.t_final=0.01",)),
    "check-hypotheses": ("hypotheses.cfg", ()),
}


@functools.cache
def shipped_config(name):
    return parse_config((CONFIG_DIR / name).read_text())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme values overflow by design
class TestRunSweep:
    """Every override of the config key sweep that the configuration accepts
    runs each subcommand to a documented exit code (0 to 3), never to an
    internal error."""

    @pytest.mark.parametrize("key", [key for key, _, _ in _SCHEMA])
    @pytest.mark.parametrize("sub", sorted(RUN_SWEEP_BASES))
    def test_accepted_override_exits_0_to_3(self, sub, key, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("RUN_SEED", raising=False)
        monkeypatch.chdir(tmp_path)  # a swept io.outdir is a relative path
        config, base = RUN_SWEEP_BASES[sub]
        failures = []
        for value in SWEEP_VALUES:
            overrides = [*base, f"io.outdir={tmp_path / 'out'}", f"{key}={value}"]
            try:
                apply_overrides(shipped_config(config), overrides)
            except ConfigError:
                continue
            code, out, err = run([sub, cfg(config), *overrides], capsys)
            if not 0 <= code <= 3 or "error=internal" in out + err:
                failures.append((value, code, err.splitlines()[:1]))
        assert failures == []

    @pytest.mark.parametrize("sub, config, override, code, line", [
        # h*h overflows, so Grid names the length.
        ("grad-check", "gradcheck.cfg", "grid.lx=1e300", 2, "key grid.lx"),
        ("taylor", "taylor.cfg", "grid.lx=1e300", 2, "key grid.lx"),
        # h*h is finite and (2h)^2 is not; the smoother never forms (2h)^2.
        ("grad-check", "gradcheck.cfg", "grid.lx=2e155", 0, "ok=true"),
        # Zero remainders have no order and no slope: a criteria failure.
        ("taylor", "taylor.cfg", "model.p0=1e-300", 1, "sweep=state slope=nan ok=false"),
        ("taylor", "taylor.cfg", "solver.cg_tol=1e300", 1, "sweep=state slope=nan ok=false"),
        ("taylor", "taylor.cfg", f"solver.cg_tol={2 ** 63}", 1,
         "sweep=state slope=nan ok=false"),
        # Overflowing data fail the output check of the step that makes them,
        # not the solver: no map is applied to a non-finite right-hand side,
        # and the phase solve accepts its start by its backward error.
        ("simulate", "dissipation.cfg", f"model.well_scale={2 ** 63}", 3,
         "error=divergence step=0 detail=solution magnitude"),
        ("optimize", "tracking.cfg", "model.beta_q=1e300", 3,
         "error=divergence step=49 detail=non-finite solution at adjoint step 49"),
        ("grad-check", "gradcheck.cfg", "model.p0=1e300", 3,
         "error=divergence step=0 detail=non-finite solution at linearized step 0"),
    ])
    def test_extreme_input_exits_as_documented(self, sub, config, override, code, line,
                                               tmp_path):
        proc = run_cli_limited([sub, cfg(config), override, f"io.outdir={tmp_path}"])
        assert proc.returncode == code, proc.stderr
        assert "error=internal" not in proc.stderr
        assert line in proc.stdout + proc.stderr


class TestFineGrids:
    """Fine grids, where the phase solve's start misses the relative-residual
    test by roundoff that no iteration removes: each run exits 0, its phase
    solves accepted by their backward error."""

    @pytest.mark.parametrize("sub, config, overrides", [
        ("simulate", "twodim.cfg", ("grid.nx=128", "grid.ny=128",
                                    "init.phi0=filtered_noise seed=0 amplitude=0.6",
                                    "time.t_final=0.02")),
        ("optimize", "tracking.cfg", ("grid.nx=128",)),
        ("simulate", "dissipation.cfg", ("grid.nx=320", "time.t_final=0.02")),
        ("grad-check", "gradcheck.cfg", ("grid.dim=2", "grid.nx=64", "grid.ny=64",
                                         "grid.ly=4.0")),
    ])
    def test_run_exits_0(self, sub, config, overrides, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("RUN_SEED", raising=False)
        code, out, err = run([sub, cfg(config), *overrides, f"io.outdir={tmp_path}"], capsys)
        assert code == 0, err
        summary = dict(tok.split("=", 1) for tok in out.splitlines()[-1].split() if "=" in tok)
        if sub == "optimize":
            assert summary["termination"] == "tolerance_met"
            assert summary["iterations"] == "14" and summary["kkt_violations"] == "0"
        elif sub == "grad-check":
            assert float(summary["max_discrepancy"]) <= 1e-10


def heavy_modules_after(argv):
    """Heavy modules in ``sys.modules`` after ``main(argv)``, run in a fresh
    interpreter (the test process itself has scipy loaded)."""
    code = (
        "import sys\n"
        "from chcontrol.cli import main\n"
        f"rc = main({argv!r})\n"
        "heavy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "               or m.startswith(('numpy.fft', 'numpy.random')))\n"
        "print(rc, heavy)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_simulate_imports_neither_scipy_nor_numpy_fft(tmp_path):
    # Each import would raise the peak RSS of every run: scipy.fft alone adds
    # about 25 MB, numpy.random about 6 MB.
    assert heavy_modules_after(benchmark_argv("simulate_2d", tmp_path)) == "0 []"


def test_grad_check_imports_neither_scipy_nor_numpy_random(tmp_path):
    assert heavy_modules_after(benchmark_argv("gradcheck_2d", tmp_path)) == "0 []"


def test_oracle_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency: scipy.integrate alone costs about
    # 0.5 s of import and 50 MB of peak RSS.
    assert heavy_modules_after(["oracle", cfg("oracle.cfg"), f"io.outdir={tmp_path}"]) == "0 []"
