from pathlib import Path

from chcontrol.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_two_dimensional_run(self, capsys, tmp_path):
        code, out, _ = run(["simulate", cfg("twodim.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0

    def test_log_has_no_timestamps(self, capsys, tmp_path):
        code, _, _ = run(["simulate", cfg("equilibrium.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        log = (tmp_path / "run.log").read_text()
        assert "unix" not in log
        assert "started_unix" in (tmp_path / "run.meta").read_text()


class TestDeterminism:
    def test_bitwise_identical_runs(self, capsys, tmp_path):
        args = ["simulate", cfg("dissipation.cfg"), "time.t_final=0.02"]
        run(args + [f"io.outdir={tmp_path / 'a'}"], capsys)
        run(args + [f"io.outdir={tmp_path / 'b'}"], capsys)
        # config.echo differs only in the io.outdir override itself
        for name in ("phi_final.csv", "sigma_final.csv", "run.log"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    def test_taylor(self, capsys, tmp_path):
        code, out, _ = run(["taylor", cfg("taylor.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "sweep=state" in out and "sweep=cost" in out and "sweep=directional" in out

    def test_oracle(self, capsys, tmp_path):
        code, out, _ = run(["oracle", cfg("oracle.cfg"), f"io.outdir={tmp_path}"], capsys)
        assert code == 0
        assert "order=" in out

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
