"""The package's reductions are numpy's pairwise sum in C order: bitwise
equal to a pure-Python copy of it, within its error bound of the exact sum,
and the same bytes under every SIMD target numpy dispatches to."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chcontrol import Field, Grid, grad_sq_integral, inner_product, integrate
from chcontrol.grid import _fixed_sum, _volume_sum, level_inner_products
from helpers import SRC_DIR, pairwise_depth, pairwise_sum

COUNTS = [1, 7, 8, 9, 127, 128, 129, 4096, 12288, 65536]
BOX_SHAPES = {4096: (64, 64), 12288: (128, 96), 65536: (256, 256)}


def wide_values(n, seed):
    """Mixed signs over 60 binades, so that any other order of summation
    rounds differently."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 2.0 ** rng.integers(-30, 30, n)


def grids_of(n):
    """A 1D line of ``n`` cells (at least 4) and, for the box sizes, the 2D box."""
    out = [Grid.line(n, 0.7 * n)] if n >= 4 else []
    if n in BOX_SHAPES:
        nx, ny = BOX_SHAPES[n]
        out.append(Grid.box(nx, ny, 1.3, 0.9))
    return out


@pytest.mark.parametrize("n", COUNTS)
def test_fixed_sum_is_numpys_pairwise_sum(n):
    x = wide_values(n, n)
    assert _fixed_sum(x) == pairwise_sum(x)
    assert type(_fixed_sum(x)) is float  # run.log prints repr(), not np.float64(...)
    assert _volume_sum(Grid.line(8, 1.0), x) == 0.125 * pairwise_sum(x)


@pytest.mark.parametrize("n", [n for n in COUNTS if grids_of(n)])
def test_integrals_equal_the_reference_bitwise(n):
    for g in grids_of(n):
        f = Field(g, wide_values(n, 1).reshape(g.shape))
        w = Field(g, wide_values(n, 2).reshape(g.shape))
        vol = g.cell_volume
        assert integrate(f) == vol * pairwise_sum(f.values)
        assert inner_product(f, w) == vol * pairwise_sum(f.values * w.values)
        want = 0.0
        for axis, h in enumerate(g.spacing[:g.dim]):
            d = np.diff(f.values, axis=axis)
            want += vol / (h * h) * pairwise_sum(d * d)
        assert grad_sq_integral(f) == want


@pytest.mark.parametrize("n", [n for n in COUNTS if grids_of(n)])
def test_level_rows_equal_the_reference_bitwise(n):
    for g in grids_of(n):
        levels = 3
        a = wide_values(levels * n, 3).reshape((levels,) + g.shape)
        b = wide_values(levels * n, 4).reshape((levels,) + g.shape)
        got = level_inner_products(g, a, b)
        assert got == [g.cell_volume * pairwise_sum(a[k] * b[k]) for k in range(levels)]
        assert all(type(v) is float for v in got)


def test_non_contiguous_input_is_summed_in_c_order():
    g = Grid.box(128, 96, 1.3, 0.9)
    vals = wide_values(g.n_cells, 6).reshape(g.shape)
    transposed = np.ascontiguousarray(vals.T).T
    assert not transposed.flags.c_contiguous
    # These values sum differently in memory (Fortran) order.
    assert pairwise_sum(vals) != pairwise_sum(vals.T)
    want = g.cell_volume * pairwise_sum(vals)
    assert integrate(Field._wrap(g, transposed)) == want
    assert _volume_sum(g, transposed) == want
    # Strided level rows: every other row of a wider stack, against a
    # broadcast (stride-0) stack of ones.
    stack = wide_values(6 * g.n_cells, 6).reshape((6,) + g.shape)
    rows = stack[::2]
    ones = np.broadcast_to(np.ones(g.shape), rows.shape)
    assert level_inner_products(g, rows, ones) == [
        g.cell_volume * pairwise_sum(rows[k]) for k in range(3)]
    # A Fortran-ordered 1D stack, whose levels are adjacent in memory.
    line = Grid.line(4096, 3.0)
    levels = np.asfortranarray(wide_values(3 * 4096, 7).reshape(3, 4096))
    assert level_inner_products(line, levels, levels) == [
        line.cell_volume * pairwise_sum(levels[k] * levels[k]) for k in range(3)]


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_error_is_within_the_pairwise_bound(n, seed):
    # |s - S| <= gamma_k * sum|x_i| (Higham, ch. 4) with k the tree's depth;
    # fsum of s and the negated terms is the error, correctly rounded.
    x = wide_values(n, 100 + seed)
    s = _fixed_sum(x)
    terms = x.tolist()
    error = abs(math.fsum([s] + [-v for v in terms]))
    k = pairwise_depth(n)
    u = 2.0 ** -53
    gamma = k * u / (1.0 - k * u)
    assert error <= gamma * math.fsum(abs(v) for v in terms)


_PROBE = """
import json, sys
import numpy as np
import numpy._core._multiarray_umath as umath
from chcontrol import Field, Grid, grad_sq_integral, inner_product, integrate
from chcontrol.grid import level_inner_products

n = 128 * 96
x = np.sin(np.arange(n) * 0.37) * 2.0 ** (np.arange(n) % 61 - 30)
y = np.cos(np.arange(n) * 0.11) * 2.0 ** (np.arange(n) % 53 - 26)
out = []
for g in (Grid.box(128, 96, 1.3, 0.9), Grid.line(n, 2.0)):
    f, w = Field(g, x.reshape(g.shape)), Field(g, y.reshape(g.shape))
    out += [integrate(f), inner_product(f, w), grad_sq_integral(f)]
    out += level_inner_products(g, np.stack([f.values, w.values]),
                                np.stack([w.values, w.values]))
print(json.dumps({"sums": [v.hex() for v in out],
                  "enabled": [t for t in sys.argv[1:] if umath.__cpu_features__.get(t)]}))
"""


def _probe(targets, disabled):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *targets], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("target", ["X86_V4", "X86_V3"])
def test_sums_do_not_depend_on_the_simd_target(target):
    # Disabling a target and every dispatch target after it leaves the
    # reductions to the next lower kernel; the bytes must not change.
    import numpy._core._multiarray_umath as umath

    dispatch = list(umath.__cpu_dispatch__)
    if target not in dispatch:
        pytest.skip(f"numpy dispatches to no {target} kernel here")
    if not umath.__cpu_features__.get(target):
        pytest.skip(f"this CPU has no {target}")
    disabled = dispatch[dispatch.index(target):]
    default = _probe(disabled, ())
    assert target in default["enabled"]
    lowered = _probe(disabled, disabled)
    assert lowered["enabled"] == []
    assert lowered["sums"] == default["sums"]
