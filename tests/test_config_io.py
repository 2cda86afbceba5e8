import functools
import math
import os
import warnings

import numpy as np
import pytest

from chcontrol import Field, Grid, preset_field, snapshots
from chcontrol.config import (_SCHEMA, ConfigError, FieldExpr, apply_overrides, build_grid,
                              build_initial_control, build_params, echo_text, parse_config)
from chcontrol.grid import _VALUE_BUDGET
from chcontrol.snapshots import (SnapshotError, read_snapshot, read_snapshot_header,
                                 write_snapshot, write_snapshots)
from helpers import CONFIG_DIR, SWEEP_VALUES, snapshot_text_by_column

MINIMAL = """
grid.dim = 1
grid.nx = 16
grid.lx = 4.0
time.t_final = 0.1
time.tau = 0.001
model.beta_u = 1.0
"""


class TestParse:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg["grid.nx"] == 16
        assert cfg["solver.cg_tol"] == 1e-12
        assert cfg.n_steps == 100

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ngrid.nx = 8   # trailing\nmodel.beta_u = 1.0\n")
        assert cfg["grid.nx"] == 8

    def test_unknown_key_names_line_and_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "grid.nz = 3\n")
        assert "grid.nz" in str(err.value)
        assert "line" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "grid.nx = 8\ngrid.nx = 9\n")
        assert "duplicate" in str(err.value)

    def test_type_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "grid.ny = 1.5\n")
        assert "grid.ny" in str(err.value)

    def test_negative_weight_cites_nonnegativity(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "model.beta_q = -1\n")
        assert "nonnegative" in str(err.value)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.nx = 8\nmodel.beta_u = 0.0\n")
        assert "not all be zero" in str(err.value)

    def test_unordered_bounds_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "model.u_min = 2.0\nmodel.u_max = 1.0\n")
        assert "u_min" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("grid.nx 8\n")


# Every preset kind, a 2D center, a field bound and a numeric stabilization;
# the file need not exist to be parsed and echoed.
EVERY_KIND = """
grid.dim = 2
grid.nx = 8
grid.ny = 6
grid.lx = 2.0
grid.ly = 1.5
model.beta_q = 1.0
model.stabilization = 3.5
model.u_min = tanh_ball width=0.2 radius=0.5 center=1,0.75
model.u_max = 2
init.phi0 = filtered_noise amplitude=0.5 seed=7
init.sigma0 = constant value=-0.25
target.phi_q = file path=targets/phi_q_{n}.csv
opt.u0 = filtered_noise seed=3
"""
ECHO_TEXTS = {"minimal": MINIMAL, "every_kind": EVERY_KIND,
              "every_kind_auto": EVERY_KIND.replace("= 3.5", "= auto"),
              **{name: (CONFIG_DIR / name).read_text() for name in sorted(os.listdir(CONFIG_DIR))}}


class TestEchoClosure:
    @pytest.mark.parametrize("name", list(ECHO_TEXTS))
    def test_echo_is_idempotent_bytes(self, name):
        cfg = parse_config(ECHO_TEXTS[name])
        first = echo_text(cfg)
        second = echo_text(parse_config(first))
        assert first == second

    def test_echo_preserves_expressions(self):
        text = MINIMAL + "init.phi0 = tanh_ball radius=1.5 width=0.35 center=4.0\n"
        cfg = parse_config(text)
        echoed = echo_text(cfg)
        assert "tanh_ball center=4.0 radius=1.5 width=0.35" in echoed
        assert echo_text(parse_config(echoed)) == echoed


class TestOverrides:
    def test_override_applies(self):
        cfg = apply_overrides(parse_config(MINIMAL), ["grid.nx=32", "time.tau=0.002"])
        assert cfg["grid.nx"] == 32
        assert cfg.n_steps == 50

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(parse_config(MINIMAL), ["grid.nz=1"])

    def test_override_still_validated(self):
        with pytest.raises(ConfigError):
            apply_overrides(parse_config(MINIMAL), ["time.tau=-1.0"])


class TestValueBudget:
    # Checked on the configuration alone, before any array exists; a size
    # equal to the budget is allowed, one more value is not.
    @pytest.mark.parametrize("extra, allowed", [(0, True), (1, False)])
    def test_dct_matrix_bound_is_inclusive(self, extra, allowed):
        nx = math.isqrt(_VALUE_BUDGET) + extra
        assert (nx * nx <= _VALUE_BUDGET) == allowed
        override = [f"grid.nx={nx}"]
        if allowed:
            assert apply_overrides(parse_config(MINIMAL), override)["grid.nx"] == nx
        else:
            with pytest.raises(ConfigError, match="key grid.nx"):
                apply_overrides(parse_config(MINIMAL), override)

    @pytest.mark.parametrize("extra, allowed", [(0, True), (1, False)])
    def test_level_array_bound_is_inclusive(self, extra, allowed):
        # 16 cells, so (n_steps + 1) * 16 levels of values reach the budget
        # at n_steps = budget/16 - 1.
        n_steps = _VALUE_BUDGET // 16 - 1 + extra
        override = [f"time.t_final={n_steps}", "time.tau=1.0"]
        if allowed:
            assert apply_overrides(parse_config(MINIMAL), override).n_steps == n_steps
        else:
            with pytest.raises(ConfigError, match="key time.tau"):
                apply_overrides(parse_config(MINIMAL), override)


class TestPhaseSymbol:
    # 16 cells on [0, 4]: 4/h^2 = 64, so S*mu overflows between S = 1e306
    # and S = 1e308 while mu^2 and tau stay small.
    def test_large_finite_symbol_accepted(self):
        cfg = apply_overrides(parse_config(MINIMAL), ["model.stabilization=1e306"])
        assert cfg["model.stabilization"] == 1e306

    @pytest.mark.parametrize("overrides, key", [
        (("model.stabilization=1e308",), "model.stabilization"),
        (("time.t_final=1e306", "time.tau=1e305"), "time.tau"),
    ])
    def test_overflow_names_its_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"key {key}") as info:
            apply_overrides(parse_config(MINIMAL), overrides)
        assert "phase symbol" in str(info.value)


class TestFieldExpr:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            FieldExpr.parse("mystery value=1.0")

    def test_unknown_argument(self):
        with pytest.raises(ValueError):
            FieldExpr.parse("constant radius=1.0")

    def test_missing_required_argument(self):
        with pytest.raises(ValueError):
            FieldExpr.parse("tanh_ball center=1.0 radius=0.5")

    def test_seed_override(self):
        expr = FieldExpr.parse("filtered_noise seed=3 amplitude=0.5")
        assert expr.with_seed(9).arg("seed") == 9
        const = FieldExpr.parse("constant value=1.0")
        assert const.with_seed(9) is const

    @pytest.mark.parametrize("text, grid, args", [
        ("constant value=-0.25", Grid.line(8, 2.0), {"value": -0.25}),
        ("tanh_ball center=1.0 radius=0.5 width=0.2", Grid.line(8, 2.0),
         {"center": 1.0, "radius": 0.5, "width": 0.2}),
        ("tanh_ball center=1.0,0.5 radius=0.5 width=0.2", Grid.box(8, 6, 2.0, 1.0),
         {"center": (1.0, 0.5), "radius": 0.5, "width": 0.2}),
        ("filtered_noise seed=4", Grid.box(8, 6, 2.0, 1.0), {"seed": 4}),
        ("filtered_noise seed=4 amplitude=0.5", Grid.line(8, 2.0),
         {"seed": 4, "amplitude": 0.5}),
    ])
    def test_build_passes_typed_arguments(self, text, grid, args):
        expr = FieldExpr.parse(text)
        want = preset_field(expr.kind, grid, **args).values
        assert expr.build(grid).values.tobytes() == want.tobytes()

    def test_per_level_file_expr(self, tmp_path):
        g = Grid.line(8, 2.0)
        for level in (1, 2, 3):
            write_snapshot(Field.full(g, float(level)), 0.0, tmp_path / f"t_{level}.csv")
        expr = FieldExpr.parse(f"file path={tmp_path}/t_{{n}}.csv")
        assert expr.is_time_varying()
        assert np.all(expr.build(g, level=2).values == 2.0)
        with pytest.raises(ValueError):
            expr.build(g)


class TestBuilders:
    def test_build_grid_and_params(self):
        cfg = parse_config(MINIMAL + "model.stabilization = 3.0\n")
        grid = build_grid(cfg)
        params = build_params(cfg, grid)
        assert grid.counts == (16, 1)
        assert params.stabilization == 3.0
        assert params.phi0 is not None and params.phi0.grid == grid
        u0 = build_initial_control(cfg, grid, params)
        assert len(u0) == params.n_steps
        assert (params.u_min, params.u_max) == (-1.0, 1.0)  # the box lives on params

    def test_initial_control_shares_one_row(self):
        cfg = apply_overrides(parse_config(MINIMAL), ["opt.u0=filtered_noise seed=3 amplitude=0.5"])
        grid = build_grid(cfg)
        params = build_params(cfg, grid)
        u0 = build_initial_control(cfg, grid, params)
        row = cfg["opt.u0"].build(grid).values
        assert u0.values.strides[0] == 0 and not u0.values.flags.writeable
        assert u0[0].values.tobytes() == row.tobytes() == u0[-1].values.tobytes()

    def test_time_varying_target(self, tmp_path):
        cfg = parse_config(MINIMAL)
        grid = build_grid(cfg)
        n_steps = cfg.n_steps
        for level in range(1, n_steps + 1):
            write_snapshot(Field.full(grid, float(level)), 0.0, tmp_path / f"q_{level}.csv")
        cfg = apply_overrides(cfg, [f"target.phi_q=file path={tmp_path}/q_{{n}}.csv",
                                    "model.beta_q=1.0"])
        params = build_params(cfg, build_grid(cfg))
        assert params.phi_q.shape == (n_steps,) + grid.shape
        assert not params.phi_q.flags.writeable
        assert np.all(params.phi_q[6] == 7.0)  # row n - 1 is level n

    def test_per_level_target_opens_each_file_once(self, tmp_path, monkeypatch):
        cfg = apply_overrides(parse_config(MINIMAL), ["time.t_final=0.003"])
        grid = build_grid(cfg)
        assert cfg.n_steps == 3
        for level in (1, 2, 3):
            write_snapshot(Field.full(grid, float(level)), 0.0, tmp_path / f"q_{level}.csv")
        cfg = apply_overrides(cfg, [f"target.phi_q=file path={tmp_path}/q_{{n}}.csv",
                                    "model.beta_q=1.0"])
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(snapshots, "open", counting_open, raising=False)
        params = build_params(cfg, grid)
        assert sorted(opened) == ["q_1.csv", "q_2.csv", "q_3.csv"]
        assert params.phi_q[:, 0].tolist() == [1.0, 2.0, 3.0]


class TestSnapshots:
    @pytest.mark.parametrize("grid", [Grid.line(8, 2.0), Grid.box(7, 4, 3.5, 1.0)])
    def test_bytes_match_per_column_formatter(self, tmp_path, grid):
        special = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, 0.0]
        vals = np.resize(np.array(special), grid.n_cells).reshape(grid.shape)
        f = Field(grid, vals)
        path = tmp_path / "f.csv"
        write_snapshot(f, 0.30000000000000004, path)
        assert path.read_bytes() == snapshot_text_by_column(f, 0.30000000000000004).encode()
        assert read_snapshot(path, grid).values.tobytes() == vals.tobytes()

    def test_round_trip_bitwise(self, tmp_path):
        g = Grid.box(8, 6, 4.0, 3.0)
        f = preset_field("filtered_noise", g, seed=2, amplitude=1.0)
        path = tmp_path / "f.csv"
        write_snapshot(f, 0.125, path)
        back = read_snapshot(path, g)
        assert np.array_equal(back.values, f.values)
        assert read_snapshot_header(path)["t"] == 0.125

    def test_one_dimensional_single_row(self, tmp_path):
        g = Grid.line(8, 2.0)
        path = tmp_path / "f.csv"
        write_snapshot(Field(g, np.arange(8.0)), 0.0, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2  # header + one row
        assert lines[0].startswith("# t=0.0 dim=1 nx=8 ny=1")

    def test_header_mismatch_names_expected_and_found(self, tmp_path):
        g = Grid.line(8, 2.0)
        path = tmp_path / "f.csv"
        write_snapshot(Field.zeros(g), 0.0, path)
        other = Grid.line(8, 4.0)  # different hx
        with pytest.raises(SnapshotError) as err:
            read_snapshot(path, other)
        assert "expected" in str(err.value) and "found" in str(err.value)

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# t=0.0 dim=1 nx=4 ny=1 hx=0.25 hy=1.0\n0.0,xyz,0.0,0.0\n")
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_reconstructed_grid(self, tmp_path):
        g = Grid.line(8, 2.0)
        f = Field(g, np.linspace(0, 1, 8))
        path = tmp_path / "f.csv"
        write_snapshot(f, 1.0, path)
        back = read_snapshot(path)
        assert back.grid.counts == (8, 1)
        assert np.array_equal(back.values, f.values)


def snapshot_items(grid, tmp_path, n_items=5):
    """Items of distinct rough fields; the last one also goes to a second path."""
    items = []
    for i in range(n_items):
        values = preset_field("filtered_noise", grid, seed=i, amplitude=0.6).values
        items.append((values, 0.1 * i, [tmp_path / f"f_{i}.csv"]))
    items[-1][2].append(tmp_path / "f_final.csv")
    return items


def raising_fork():
    raise AssertionError("os.fork called")


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="needs at least 2 CPUs")


class TestWriteSnapshots:
    @pytest.mark.parametrize("grid", [Grid.line(8, 2.0), Grid.box(7, 4, 3.5, 1.0)])
    @pytest.mark.parametrize("per_process", [1, 10 ** 9])
    def test_bytes_match_per_column_formatter(self, tmp_path, monkeypatch, grid, per_process):
        monkeypatch.setattr(snapshots, "VALUES_PER_PROCESS", per_process)
        items = snapshot_items(grid, tmp_path)
        processes = write_snapshots(grid, items)
        assert processes == (min(len(items), CPUS) if per_process == 1 else 1)
        for values, t, paths in items:
            want = snapshot_text_by_column(Field(grid, values), t).encode()
            assert [path.read_bytes() for path in paths] == [want] * len(paths)
        assert_no_children_left()

    @needs_two_cpus
    def test_failed_child_share_raises_in_parent(self, tmp_path, monkeypatch):
        grid = Grid.box(7, 4, 3.5, 1.0)
        monkeypatch.setattr(snapshots, "VALUES_PER_PROCESS", 1)
        items = snapshot_items(grid, tmp_path, n_items=4)
        items[-1][2][0].mkdir()  # the last item is in the child's share
        with pytest.raises(OSError, match="f_3.csv") as err:
            write_snapshots(grid, items)
        assert "f_0.csv" not in str(err.value)
        assert (tmp_path / "f_0.csv").is_file() and (tmp_path / "f_1.csv").is_file()
        assert_no_children_left()

    @needs_two_cpus
    def test_failed_own_share_raises_after_reaping(self, tmp_path, monkeypatch):
        grid = Grid.box(7, 4, 3.5, 1.0)
        monkeypatch.setattr(snapshots, "VALUES_PER_PROCESS", 1)
        items = snapshot_items(grid, tmp_path, n_items=4)
        items[0][2][0].mkdir()  # the first item is in the calling process's share
        with pytest.raises(OSError):
            write_snapshots(grid, items)
        # The child wrote its whole share before the parent raised.
        assert all(path.is_file() for _, _, paths in items[2:] for path in paths)
        assert_no_children_left()

    @pytest.mark.parametrize("case", ["one_cpu", "below_threshold", "no_fork"])
    def test_single_process_never_forks(self, tmp_path, monkeypatch, case):
        grid = Grid.box(7, 4, 3.5, 1.0)
        items = snapshot_items(grid, tmp_path)
        if case == "one_cpu":
            monkeypatch.setattr(snapshots, "VALUES_PER_PROCESS", 1)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if case == "no_fork":
            monkeypatch.setattr(snapshots, "VALUES_PER_PROCESS", 1)
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", raising_fork)
        assert write_snapshots(grid, items) == 1
        assert all(path.is_file() for _, _, paths in items for path in paths)

    @pytest.mark.parametrize("per_process", [1, 10 ** 9])
    def test_every_path_written_once(self, tmp_path, monkeypatch, per_process):
        log = tmp_path / "writes.log"

        class CountingPath(type(tmp_path)):
            def write_text(self, *args, **kwargs):
                # One O_APPEND write per line, so forked writers do not interleave.
                fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                try:
                    os.write(fd, f"{self}\n".encode())
                finally:
                    os.close(fd)
                return super().write_text(*args, **kwargs)

        monkeypatch.setattr(snapshots, "Path", CountingPath)
        monkeypatch.setattr(snapshots, "VALUES_PER_PROCESS", per_process)
        grid = Grid.line(8, 2.0)
        items = snapshot_items(grid, tmp_path / "out", n_items=7)
        (tmp_path / "out").mkdir()
        write_snapshots(grid, items)
        written = log.read_text().splitlines()
        assert sorted(written) == sorted(str(path) for _, _, paths in items for path in paths)


# Every key of the schema, set to each of SWEEP_VALUES on a valid 1D and 2D
# base, either gives a valid configuration or a ConfigError naming a key.
# README's exit-2 table: a rule on two keys names one of them.
CROSS_KEY = {
    "time.t_final": "time.tau",  # the level array's value budget
    "time.tau": "time.t_final",  # t_final/tau rounds to no step
    "model.u_max": "model.u_min",  # u_min > u_max
    "model.beta_q": "model.beta_u",  # all cost weights zero
    "model.beta_omega": "model.beta_u",
}


@functools.cache
def sweep_base(name):
    return parse_config((CONFIG_DIR / name).read_text())


# Each float argument of a preset and each coordinate of a 2D center, in turn
# set to a non-finite value {v}.
PRESET_FLOAT_ARGS = [
    ("dissipation.cfg", "constant value={v}"),
    ("dissipation.cfg", "tanh_ball center={v} radius=1.0 width=0.5"),
    ("dissipation.cfg", "tanh_ball center=1.0 radius={v} width=0.5"),
    ("dissipation.cfg", "tanh_ball center=1.0 radius=1.0 width={v}"),
    ("twodim.cfg", "tanh_ball center={v},2.0 radius=1.0 width=0.5"),
    ("twodim.cfg", "tanh_ball center=2.0,{v} radius=1.0 width=0.5"),
    ("dissipation.cfg", "filtered_noise seed=1 amplitude={v}"),
]


class TestKeySweep:
    @pytest.mark.parametrize("base, template", PRESET_FLOAT_ARGS)
    @pytest.mark.parametrize("key", ["init.phi0", "target.phi_q", "model.u_min", "opt.u0"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_preset_argument_names_its_key(self, base, template, key, value):
        # Rejected as the value is parsed, before numpy sees it: no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"key {key}"):
                cfg = apply_overrides(sweep_base(base), [f"{key}={template.format(v=value)}"])
                grid = build_grid(cfg)
                build_initial_control(cfg, grid, build_params(cfg, grid))

    @pytest.mark.parametrize("base", ["dissipation.cfg", "twodim.cfg"])
    @pytest.mark.parametrize("key", [key for key, _, _ in _SCHEMA])
    @pytest.mark.parametrize("value", SWEEP_VALUES)
    def test_override_is_valid_or_names_its_key(self, base, key, value):
        try:
            apply_overrides(sweep_base(base), [f"{key}={value}"])
        except ConfigError as exc:
            assert exc.key in (key, CROSS_KEY.get(key)), str(exc)
