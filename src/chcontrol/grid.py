"""Uniform Cartesian grids, cellwise fields, zero-flux difference operators,
and a matrix-free (preconditioned) conjugate-gradient solver.

Operators act on cell-centered values with mirror ghost cells (the ghost
value equals the adjacent interior value), the second-order treatment of a
zero-flux boundary.  The laplacian is assembled in flux form (one kernel,
``laplacian_values``, on the flat cell index after any leading batch axes),
so two structural facts hold to roundoff and are relied on downstream:

* ``integrate(neumann_laplacian(f)) == 0`` (interior fluxes telescope,
  boundary fluxes vanish), and
* ``inner_product(neumann_laplacian(f), g)`` is symmetric in ``(f, g)``,
  with ``inner_product(neumann_laplacian(f), f) == -grad_sq_integral(f)``.

``integrate``, ``inner_product`` and ``level_inner_products`` sum exactly
(Python's ``fsum``), whatever the order of the terms.  ``level_inner_products``
reduces its rows in blocks of at most ``LEVEL_BLOCK_CELLS`` cells (one
multiply and one ``tolist`` per block, one ``fsum`` per row), so no
temporary outgrows the larger of one level and the block.  The other
reductions go through BLAS, whose summation order follows the CPU kernel and
the thread count: the dots of ``cg_solve`` and ``grad_sq_integral`` and the
matrix products of ``spectral_inverse`` and the dense operators.  So results
are bitwise reproducible for one numpy/BLAS build, CPU kernel and thread
count.

``cg_solve`` works on arrays only: its operator is an array map (ndarray in,
new ndarray out, argument left unmodified), and its right-hand side, initial
guess and solution are arrays of the grid's shape.  It validates no values;
``Field``s are validated where callers hand them to the package, and the time
steps check their own outputs.

``implicit_operator`` builds such a map, ``v -> v + increment(v)``, for the
implicit steps: on grids of at most ``DENSE_MAX_CELLS`` (256) cells, where the
stencil's per-call overhead dominates, as one dense matrix ``K`` applied as
``v + K @ (v - v[0])``; above it, as the stencil.  ``spectral_inverse`` builds
the exact inverse of an operator that is a function of the laplacian: the
orthonormal DCT-II ``C`` diagonalizes the mirror-ghost laplacian, with
per-axis eigenvalues ``-(4/h^2) sin^2(pi k / 2n)``, so the inverse is
``C^T diag(1/lambda) C``, applied as products with the per-axis DCT matrices.
The phase solves start ``cg_solve`` at that inverse applied to their
right-hand side and use it as their preconditioner; where the roundoff of
the products misses the tolerance (2D grids) the solve goes on as PCG, so
the tolerance and the iteration budget keep their meaning.  The
``filtered_noise`` preset applies it directly, as its smoother
``(I - kappa*lap)^{-1}``.  Both builders choose their map once, by grid
rank, and the 1D and 2D maps do the same float operations in the same order.

The builders keep nothing: each call assembles its ``K`` or ``1/lambda``
afresh, and a time sweep builds its operators once (``forward.StepPlan``).
A grid keeps only its spectral basis, the geometry every inverse on it
shares: the per-axis DCT matrices (one per distinct axis length) and the
laplacian's eigenvalue magnitudes ``mu``, built on first use and never
dropped.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "GridMismatchError",
    "ParameterError",
    "CgNonConvergenceError",
    "neumann_laplacian",
    "laplacian_values",
    "implicit_operator",
    "spectral_inverse",
    "grad_sq_integral",
    "inner_product",
    "level_inner_products",
    "integrate",
    "norm_h",
    "cg_solve",
]


class GridMismatchError(ValueError):
    """Two fields that must live on the same grid do not."""


class ParameterError(ValueError):
    """A constructor argument outside its domain, named by ``name`` (raised by
    ``Grid`` and the parameter records of ``model`` and ``optimize``)."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _require(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ParameterError(name, message)


class CgNonConvergenceError(RuntimeError):
    """Conjugate gradients exhausted its iteration budget.

    Carries the final weighted residual norm and the iteration count.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# 2^27 float64 values (1 GiB): the most a run's level array, (n_steps + 1) *
# cells, an axis's DCT matrix, n^2, or filtered_noise's passes * cells may
# take; checked before allocation (config._validate, model.preset_field).
_VALUE_BUDGET = 2 ** 27


class Grid:
    """Uniform cell-centered Cartesian mesh in one or two dimensions.

    ``counts`` is always ``(nx, ny)`` with ``ny == 1`` in 1D; every active
    axis needs at least 4 cells, and each length must be positive with a
    finite ``1/h^2``.  A bad argument raises ParameterError naming it
    (``dim``, ``nx``, ``ny``, ``lx`` or ``ly``).  ``cell_volume`` is the
    product of the spacings, so a 1D grid keeps its length measure when
    ``ly == 1``.
    The grid keeps its spectral basis (``_spectral_basis``) once built.
    """

    __slots__ = ("dim", "counts", "lengths", "spacing", "cell_volume", "shape", "n_cells",
                 "_spectral")

    def __init__(self, dim: int, counts: Sequence[int], lengths: Sequence[float]):
        _require(dim in (1, 2), "dim", f"dim must be 1 or 2, got {dim}")
        counts = tuple(int(c) for c in counts)
        lengths = tuple(float(x) for x in lengths)
        if len(counts) != 2 or len(lengths) != 2:
            raise ValueError("counts and lengths must both be (x, y) pairs")
        nx, ny = counts
        _require(dim == 2 or ny == 1, "ny", f"1D grids must have ny == 1, got ny={ny}")
        for name, count in zip(("nx", "ny"), counts[:dim]):
            _require(count >= 4, name, f"need at least 4 cells per axis, got {name}={count}")
        self.spacing = (lengths[0] / nx, lengths[1] / ny)
        for name, length, h in zip(("lx", "ly"), lengths, self.spacing):
            _require(length > 0, name, f"domain lengths must be positive, got {name}={length}")
            _require(h * h > 0 and math.isfinite(1.0 / (h * h)), name,
                     f"spacing {h} is too small: 1/h^2 is not finite")
        self.dim, self.counts, self.lengths = dim, counts, lengths
        self.cell_volume = self.spacing[0] * self.spacing[1]
        self.shape = (nx,) if dim == 1 else (nx, ny)
        self.n_cells = nx * ny
        self._spectral = None  # (per-axis DCT matrices, mu), built on first use

    @classmethod
    def line(cls, nx: int, length: float) -> "Grid":
        """1D grid of ``nx`` cells on [0, length] (unit transverse measure)."""
        return cls(1, (nx, 1), (length, 1.0))

    @classmethod
    def box(cls, nx: int, ny: int, lx: float, ly: float) -> "Grid":
        """2D grid of ``nx * ny`` cells on [0, lx] x [0, ly]."""
        return cls(2, (nx, ny), (lx, ly))

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """1D arrays of cell-center coordinates per active axis."""
        hx, hy = self.spacing
        x = (np.arange(self.counts[0]) + 0.5) * hx
        if self.dim == 1:
            return (x,)
        y = (np.arange(self.counts[1]) + 0.5) * hy
        return (x, y)

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays broadcast to the field shape."""
        axes = self.cell_centers()
        if self.dim == 1:
            return axes
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.dim == other.dim and self.counts == other.counts
                and self.lengths == other.lengths)

    def __hash__(self) -> int:
        return hash((self.dim, self.counts, self.lengths))

    def __repr__(self) -> str:
        return f"Grid(dim={self.dim}, counts={self.counts}, lengths={self.lengths})"


class Field:
    """One real value per grid cell; immutable once constructed.

    Construction validates the shape against the grid and rejects NaN/Inf.
    A Field carries values only; arithmetic is done on ``values``.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        _init_field(self, grid, np.array(values, dtype=float))

    @classmethod
    def _wrap(cls, grid: Grid, arr: np.ndarray) -> "Field":
        # No-copy constructor for freshly computed arrays; takes ownership.
        obj = object.__new__(cls)
        _init_field(obj, grid, arr)
        return obj

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls._wrap(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls._wrap(grid, np.full(grid.shape, float(value)))

    def __repr__(self) -> str:
        return f"Field({self.grid!r}, min={self.values.min():.4g}, max={self.values.max():.4g})"


def _init_field(obj: Field, grid: Grid, arr: np.ndarray) -> None:
    if arr.shape != grid.shape:
        raise ValueError(f"field values have shape {arr.shape}, grid expects {grid.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field contains non-finite values")
    arr.setflags(write=False)
    obj.grid = grid
    obj.values = arr


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Zero-flux laplacian of ``values``, of shape ``(*batch, *grid.shape)``.

    On the flat C-order cell index, x-neighbours are ``m = counts[1]`` apart
    and y-neighbours 1 apart: each axis is one contiguous subtraction into a
    face-flux buffer whose boundary faces are zero (for y, the faces at
    multiples of ``m``).  Sharing each interior flux between its two cells
    keeps the column sum at the roundoff of one subtraction per cell.  Each
    entry of the batch axes gets bitwise what a call on it alone gives.
    """
    batch = values.shape[:values.ndim - grid.dim]
    if values.shape[len(batch):] != grid.shape:
        raise GridMismatchError(f"values of shape {values.shape} on a {grid.shape} grid")
    n, m = grid.n_cells, grid.counts[1]
    a = values.reshape(batch + (n,))
    hx, hy = grid.spacing
    flux = np.zeros(batch + (n + m,))
    np.subtract(a[..., m:], a[..., :-m], out=flux[..., m:n])
    out = flux[..., m:] - flux[..., :-m]
    out /= hx * hx
    if grid.dim == 2:
        flux = np.empty(batch + (n + 1,))
        np.subtract(a[..., 1:], a[..., :-1], out=flux[..., 1:n])
        flux[..., ::m] = 0.0
        dy = flux[..., 1:] - flux[..., :-1]
        dy /= hy * hy
        out += dy
    return out.reshape(values.shape)


DENSE_MAX_CELLS = 256


def _dense_increment(grid: Grid, increment) -> np.ndarray:
    """The matrix of ``increment`` on ``grid``, made exactly symmetric."""
    n = grid.n_cells
    # One batched stencil call: row j is the increment of unit vector j (the
    # transpose).  Mirrored entries can differ in the last bit on 2D boxes with
    # unequal spacings; averaging, which commutes, makes the matrix exactly
    # symmetric, and leaves it unchanged wherever it already was.
    mat = increment(np.eye(n).reshape((n,) + grid.shape)).reshape(n, n)
    mat = 0.5 * (mat + mat.T)
    mat.setflags(write=False)
    return mat


def implicit_operator(grid: Grid, increment: Callable[[np.ndarray], np.ndarray]):
    """Array map v -> v + increment(v) for an implicit-step operator.

    ``increment`` is a linear stencil map that sends constants to zero and
    accepts leading batch axes.  Grids of at most ``DENSE_MAX_CELLS`` cells
    apply it as the matrix ``K = _dense_increment(grid, increment)``, as
    ``v + K @ (v - v[0])``; larger grids call the stencil.  A 1D array is its
    own flat vector, so the 1D dense map applies that formula as written; the
    2D map flattens and reshapes around the product.  Every call returns a
    new function object, so callers may set attributes on it.
    """
    if grid.n_cells > DENSE_MAX_CELLS:
        def apply(v: np.ndarray) -> np.ndarray:
            return v + increment(v)
        return apply

    mat = _dense_increment(grid, increment)
    # Shifting by v[0] keeps a constant field exactly constant.
    if grid.dim == 1:
        def apply_dense_1d(v: np.ndarray) -> np.ndarray:
            return v + mat @ (v - v[0])
        return apply_dense_1d

    def apply_dense(v: np.ndarray) -> np.ndarray:
        return v + (mat @ (v.reshape(-1) - v.flat[0])).reshape(v.shape)

    return apply_dense


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: row k is the k-th cosine mode on n cells."""
    k = np.arange(n)
    # k*(2j+1) reduced mod 4n keeps the cosine's argument below 2*pi.
    phase = np.outer(k, 2 * k + 1) % (4 * n)
    mat = np.cos(phase * (np.pi / (2 * n)))
    mat *= math.sqrt(2.0 / n)
    mat[0] = math.sqrt(1.0 / n)
    mat.setflags(write=False)
    return mat


def _laplacian_modes(n: int, h: float) -> np.ndarray:
    """Eigenvalue magnitudes (4/h^2) sin^2(pi k / 2n) of the mirror-ghost
    second difference, in DCT-II mode order."""
    return (4.0 / (h * h)) * np.sin(np.arange(n) * (np.pi / (2 * n))) ** 2


def _spectral_basis(grid: Grid) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The grid's per-axis DCT matrices (one per distinct axis length, so a
    square box has one) and the laplacian's eigenvalue magnitudes ``mu``, the
    sum of the per-axis ones, of the grid's shape; built on first use and
    kept on the grid."""
    basis = grid._spectral
    if basis is None:
        dct = {n: _dct_matrix(n) for n in dict.fromkeys(grid.shape)}
        mu = _laplacian_modes(grid.shape[0], grid.spacing[0])
        if grid.dim == 2:
            mu = mu[:, np.newaxis] + _laplacian_modes(grid.shape[1], grid.spacing[1])
        mu.setflags(write=False)
        basis = grid._spectral = (tuple(dct[n] for n in grid.shape), mu)
    return basis


def spectral_inverse(grid: Grid, symbol: Callable[[np.ndarray], np.ndarray]):
    """Array map b -> A^{-1} b for ``A = symbol(-lap)``, the zero-flux laplacian.

    ``symbol`` maps the laplacian's eigenvalue magnitudes ``mu`` (an array of
    the grid's shape, from ``_spectral_basis``) to the eigenvalues ``Lambda``
    of ``A``, which must be finite and positive.  The map is ``Cx^T ((Cx V
    Cy^T) / Lambda) Cy`` with the per-axis orthonormal DCT-II matrices; each
    axis of ``n`` cells costs an ``n x n`` matrix, so a 1D grid's memory and
    time per call grow as ``nx^2``.  The constant mode is applied separately,
    so a constant ``b`` maps exactly to a constant.  The 1D map is ``Cx^T
    ((Cx (b - b[0])) / Lambda) + b[0] / Lambda[0]`` with ``Cx^T`` taken here,
    and makes no reshape and no ``.flat`` iterator per call.  Every call
    returns a new function object.
    """
    mats, mu = _spectral_basis(grid)
    lam = np.asarray(symbol(mu), dtype=float)
    if lam.shape != grid.shape or not np.all(lam > 0.0) or not np.isfinite(lam).all():
        raise ValueError(f"spectral_inverse: symbol must be finite and positive on "
                         f"the {grid.shape} modes")
    inv = 1.0 / lam
    inv0 = inv.flat[0]
    # The constant mode is applied separately: shift by b's first value.
    if grid.dim == 1:
        cx = mats[0]
        cxT = cx.T

        def apply_1d(b: np.ndarray) -> np.ndarray:
            shift = b[0]
            out = cxT @ ((cx @ (b - shift)) * inv)
            out += shift * inv0
            return out

        return apply_1d

    cx, cy = mats

    def apply(b: np.ndarray) -> np.ndarray:
        shift = b.flat[0]
        w = b - shift
        out = cx.T @ (((cx @ w @ cy.T) * inv) @ cy)
        out += shift * inv0
        return out

    return apply


def neumann_laplacian(f: Field) -> Field:
    """Second-order 3-point (1D) / 5-point (2D) laplacian with mirror ghosts."""
    return Field._wrap(f.grid, laplacian_values(f.grid, f.values))


def _grad_sq(grid: Grid, values: np.ndarray) -> float:
    """``grad_sq_integral`` of an array of the grid's shape."""
    total = 0.0
    for axis in range(grid.dim):
        h = grid.spacing[axis]
        d = np.diff(values, axis=axis).ravel()
        total += grid.cell_volume / (h * h) * float(np.dot(d, d))
    return total


def grad_sq_integral(f: Field) -> float:
    """Face-based discrete Dirichlet energy, sum of cell_volume*(df/h)^2.

    Boundary faces carry zero flux and contribute nothing; the value equals
    ``-inner_product(neumann_laplacian(f), f)`` up to roundoff.
    """
    return _grad_sq(f.grid, f.values)


def _volume_sum(grid: Grid, values: np.ndarray) -> float:
    """Cell-volume weighted sum of ``values``, exactly summed: the one exact
    reduction, behind ``integrate``, ``inner_product`` and the diagnostics."""
    return grid.cell_volume * math.fsum(values.ravel().tolist())


def inner_product(f: Field, g: Field) -> float:
    """Cell-volume weighted inner product, exactly summed."""
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    return _volume_sum(f.grid, f.values * g.values)


LEVEL_BLOCK_CELLS = 8192  # cells per block of levels reduced or built together


def _level_blocks(n_levels: int, n_cells: int) -> list[slice]:
    """Consecutive slices covering ``range(n_levels)``, each of as many levels
    as fit in ``LEVEL_BLOCK_CELLS`` cells (at least one): the block rule of
    the level-stack code, so that no temporary outgrows the larger of one
    level and the budget, while small grids still pay few per-call costs."""
    rows = max(1, LEVEL_BLOCK_CELLS // n_cells)
    return [slice(i, min(i + rows, n_levels)) for i in range(0, n_levels, rows)]


def level_inner_products(grid: Grid, a: np.ndarray, b: np.ndarray) -> list[float]:
    """``inner_product`` of row n of ``a`` with row n of ``b`` for every n.

    ``a`` and ``b`` are ``(levels, *grid.shape)`` arrays (``GridMismatchError``
    otherwise), of any strides (a constant schedule's rows are one stride-0
    row).  Each row is summed exactly like ``inner_product``, so entry n is
    bitwise the ``inner_product`` of the two level-n Fields.  The rows are
    reduced in ``_level_blocks``: one multiply and one ``tolist`` per block,
    then one exact sum per row.
    """
    if a.shape != b.shape or a.shape[1:] != grid.shape:
        raise GridMismatchError(f"level arrays of shapes {a.shape} and {b.shape} "
                                f"on a {grid.shape} grid")
    vol = grid.cell_volume
    out = []
    for blk in _level_blocks(len(a), grid.n_cells):
        rows = np.multiply(a[blk], b[blk]).reshape(-1, grid.n_cells).tolist()
        out.extend(vol * math.fsum(row) for row in rows)
    return out


def integrate(f: Field) -> float:
    """Cell-volume weighted sum of the field, exactly summed."""
    return _volume_sum(f.grid, f.values)


def norm_h(f: Field) -> float:
    """Discrete L2 norm induced by ``inner_product``."""
    return math.sqrt(max(inner_product(f, f), 0.0))


def cg_solve(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 20000,
    x0: np.ndarray | None = None,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Solve ``apply_op(x) = rhs`` on ``grid`` for a symmetric positive-definite
    operator; returns ``x`` as a new array.

    ``apply_op`` is an array map: ndarray in, new ndarray of the same shape
    out, argument left unmodified.  ``rhs`` and ``x0`` are arrays of the
    grid's shape (``GridMismatchError`` otherwise); neither is modified, and
    their values are not validated: a caller hands in finite data and checks
    what it makes of the result.

    Matrix-free conjugate gradients with the residual measured in the
    cell-volume weighted norm, relative to ``rhs``.  When the recurrence
    residual passes the tolerance the true residual is checked at once (and
    the iteration restarted from it if it drifted), so the returned ``x``
    genuinely satisfies ``norm_h(apply_op(x) - rhs) <= tol * norm_h(rhs)``.
    The starting residual ``rhs - apply_op(x0)`` is already the true one: when
    it meets the tolerance the solve returns (a copy of) ``x0`` at iteration
    0, after one operator application and no preconditioner apply.  The dot
    products are BLAS ``vdot``s (see the module docstring on reproducibility).

    ``precond``, an array map approximating the inverse of ``apply_op`` (for
    example a ``spectral_inverse``), turns the iteration into preconditioned
    CG; the stopping test still reads the unpreconditioned residual.  Without
    it the iteration is plain CG, with ``r.r`` standing in for ``r.z``.

    Raises
    ------
    CgNonConvergenceError
        If the budget runs out, ``p.Ap`` is not positive (or NaN), or the
        norm of ``rhs`` is not finite.
    GridMismatchError
        If ``rhs``, ``x0`` or the operator's first output does not have the
        grid's shape.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = rhs
    if b.shape != grid.shape or (x0 is not None and x0.shape != grid.shape):
        raise GridMismatchError(f"cg_solve: rhs or x0 is not of the grid's shape {grid.shape}")
    vol = grid.cell_volume

    bnorm = math.sqrt(vol * float(np.vdot(b, b)))
    if bnorm == 0.0:
        return np.zeros(grid.shape)
    if not bnorm < math.inf:  # a non-finite rhs would pass every residual test
        raise CgNonConvergenceError(
            f"cg_solve: right-hand side norm is {bnorm!r}", residual=bnorm, iterations=0)
    target = tol * bnorm

    x = np.array(x0 if x0 is not None else np.zeros(grid.shape), dtype=float)
    ax = apply_op(x)
    if ax.shape != b.shape:
        raise GridMismatchError(f"operator output has shape {ax.shape}, rhs has {b.shape}")
    r = b - ax
    rs = float(np.vdot(r, r))
    p = None  # the search direction; None starts (or restarts) it from r
    iterations = 0
    while True:
        if math.sqrt(vol * rs) <= target:
            if iterations == 0:  # r is b - A x0 itself, the true residual
                return x
            true_r = b - apply_op(x)
            ts = float(np.vdot(true_r, true_r))
            if math.sqrt(vol * ts) <= target:
                return x
            r = true_r  # recurrence drifted; restart from the true residual
            rs = ts
            p = None
        if iterations >= max_iter:
            res = math.sqrt(vol * rs)
            raise CgNonConvergenceError(
                f"cg_solve: no convergence after {iterations} iterations "
                f"(residual {res:.3e}, target {target:.3e})",
                residual=res, iterations=iterations)
        # The direction is updated only once the iteration goes on, so a
        # converged solve applies neither the preconditioner nor the update.
        if precond is None:
            z, rz_new = r, rs  # no copy: nothing is updated in place
        else:
            z = precond(r)
            rz_new = float(np.vdot(r, z))
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply_op(p)
        pap = float(np.vdot(p, ap))
        if not pap > 0.0:  # also catches a NaN from a non-finite operator output
            raise CgNonConvergenceError(
                f"cg_solve: operator is not positive definite along the search "
                f"direction (p.Ap = {pap:.3e})",
                residual=math.sqrt(vol * rs), iterations=iterations)
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs = float(np.vdot(r, r))
        iterations += 1
