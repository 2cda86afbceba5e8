"""Uniform Cartesian grids, cellwise fields, zero-flux difference operators,
and a matrix-free conjugate-gradient solver.

Operators act on cell-centered values with mirror ghost cells (the ghost
value equals the adjacent interior value), the second-order treatment of a
zero-flux boundary.  The laplacian is assembled in flux form, so two
structural facts hold to roundoff and are relied on downstream:

* ``integrate(neumann_laplacian(f)) == 0`` (interior fluxes telescope,
  boundary fluxes vanish), and
* ``inner_product(neumann_laplacian(f), g)`` is symmetric in ``(f, g)``,
  with ``inner_product(neumann_laplacian(f), f) == -grad_sq_integral(f)``.

``integrate`` and ``inner_product`` reduce with exact compensated summation
in a fixed order; together with the fixed iteration order of ``cg_solve``
this makes every computation bitwise reproducible across runs.

``cg_solve``'s operator is an array map (ndarray in, new ndarray out, argument
left unmodified); Fields are validated once at entry and once at exit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "GridMismatchError",
    "CgNonConvergenceError",
    "neumann_laplacian",
    "neumann_biharmonic",
    "laplacian_values",
    "grad_sq_integral",
    "inner_product",
    "integrate",
    "norm_h",
    "norm_v",
    "cg_solve",
]


class GridMismatchError(ValueError):
    """Two fields that must live on the same grid do not."""


class CgNonConvergenceError(RuntimeError):
    """Conjugate gradients exhausted its iteration budget.

    Carries the final weighted residual norm and the iteration count.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class Grid:
    """Uniform cell-centered Cartesian mesh in one or two dimensions.

    ``counts`` is always ``(nx, ny)`` with ``ny == 1`` in 1D; every active
    axis needs at least 4 cells.  ``cell_volume`` is the product of the
    spacings, so a 1D grid keeps its length measure when ``ly == 1``.
    """

    __slots__ = ("dim", "counts", "lengths", "spacing", "cell_volume", "shape", "n_cells")

    def __init__(self, dim: int, counts: Sequence[int], lengths: Sequence[float]):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        counts = tuple(int(c) for c in counts)
        lengths = tuple(float(x) for x in lengths)
        if len(counts) != 2 or len(lengths) != 2:
            raise ValueError("counts and lengths must both be (x, y) pairs")
        nx, ny = counts
        if dim == 1 and ny != 1:
            raise ValueError(f"1D grids must have ny == 1, got ny={ny}")
        if any(c < 4 for c in counts[:dim]):
            raise ValueError(f"need at least 4 cells per active axis, got {counts[:dim]}")
        if ny < 1:
            raise ValueError("ny must be positive")
        if any(x <= 0 for x in lengths):
            raise ValueError(f"domain lengths must be positive, got {lengths}")
        self.dim = dim
        self.counts = counts
        self.lengths = lengths
        self.spacing = (lengths[0] / nx, lengths[1] / ny)
        self.cell_volume = self.spacing[0] * self.spacing[1]
        self.shape = (nx,) if dim == 1 else (nx, ny)
        self.n_cells = nx * ny

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

    Construction validates the shape against the grid and rejects NaN/Inf,
    and every operator returns a fresh validated field, so non-finite
    values surface at the operation that produced them.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.array(values, dtype=float)
        if arr.shape != grid.shape:
            if arr.size == grid.n_cells:
                arr = arr.reshape(grid.shape)
            else:
                raise ValueError(
                    f"field values have shape {arr.shape}, grid expects {grid.shape}")
        _init_field(self, grid, arr)

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

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _other_values(self, other):
        if isinstance(other, Field):
            _require_same_grid(self, other)
            return other.values
        return float(other)

    def __add__(self, other):
        return Field._wrap(self.grid, self.values + self._other_values(other))

    def __sub__(self, other):
        return Field._wrap(self.grid, self.values - self._other_values(other))

    def __mul__(self, other):
        return Field._wrap(self.grid, self.values * self._other_values(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Field._wrap(self.grid, -self.values)

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


def _axis_second_difference(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    # Flux form: differences of face fluxes with zero flux on boundary faces.
    # Reusing each interior flux in both adjacent cells keeps the column sum
    # at the roundoff of a single subtraction per cell.
    lead = (slice(None),) * axis
    lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
    flux = np.zeros(arr.shape[:axis] + (arr.shape[axis] + 1,) + arr.shape[axis + 1:])
    flux[lead + (slice(1, -1),)] = arr[hi] - arr[lo]
    return (flux[hi] - flux[lo]) / (h * h)


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Array-level zero-flux laplacian kernel (hot-loop helper)."""
    out = _axis_second_difference(values, 0, grid.spacing[0])
    if grid.dim == 2:
        out = out + _axis_second_difference(values, 1, grid.spacing[1])
    return out


def neumann_laplacian(f: Field) -> Field:
    """Second-order 3-point (1D) / 5-point (2D) laplacian with mirror ghosts."""
    return Field._wrap(f.grid, laplacian_values(f.grid, f.values))


def neumann_biharmonic(f: Field) -> Field:
    """Laplacian applied twice, with ghosts re-mirrored between applications.

    This encodes both a zero normal derivative of the field and a zero
    normal derivative of its laplacian.
    """
    return neumann_laplacian(neumann_laplacian(f))


def grad_sq_integral(f: Field) -> float:
    """Face-based discrete Dirichlet energy, sum of cell_volume*(df/h)^2.

    Boundary faces carry zero flux and contribute nothing; the value equals
    ``-inner_product(neumann_laplacian(f), f)`` up to roundoff.
    """
    g = f.grid
    total = 0.0
    for axis in range(g.dim):
        h = g.spacing[axis]
        d = np.diff(f.values, axis=axis).ravel()
        total += g.cell_volume / (h * h) * float(np.dot(d, d))
    return total


def _require_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def inner_product(f: Field, g: Field) -> float:
    """Cell-volume weighted inner product, exactly summed in a fixed order."""
    _require_same_grid(f, g)
    prod = (f.values * g.values).ravel()
    return f.grid.cell_volume * math.fsum(prod.tolist())


def integrate(f: Field) -> float:
    """Cell-volume weighted sum of the field, exactly summed."""
    return f.grid.cell_volume * math.fsum(f.values.ravel().tolist())


def norm_h(f: Field) -> float:
    """Discrete L2 norm induced by ``inner_product``."""
    return math.sqrt(max(inner_product(f, f), 0.0))


def norm_v(f: Field) -> float:
    """Discrete H1 norm: sqrt(norm_h^2 + grad_sq_integral)."""
    return math.sqrt(max(inner_product(f, f) + grad_sq_integral(f), 0.0))


def cg_solve(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: Field,
    tol: float = 1e-12,
    max_iter: int = 20000,
    x0: Field | None = None,
) -> Field:
    """Solve ``apply_op(x) = rhs`` for a symmetric positive-definite operator.

    ``apply_op`` is an array map: ndarray in, new ndarray of the same shape
    out, argument left unmodified.  Fields are validated once at entry
    (``rhs``, ``x0``) and once at exit (the solution), not per iteration.

    Matrix-free conjugate gradients with the residual measured in the
    cell-volume weighted norm, relative to ``rhs``.  When the recurrence
    residual passes the tolerance the true residual is re-checked (and the
    iteration restarted from it if it drifted), so the returned ``x``
    genuinely satisfies ``norm_h(apply_op(x) - rhs) <= tol * norm_h(rhs)``.
    All reductions use a fixed summation order.

    Raises
    ------
    CgNonConvergenceError
        If the budget runs out or ``p.Ap`` is not positive (or NaN).
    GridMismatchError
        If the operator's first output does not have the shape of ``rhs``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = rhs.grid
    vol = grid.cell_volume
    b = rhs.values

    bnorm = math.sqrt(vol * float(np.dot(b.ravel(), b.ravel())))
    if bnorm == 0.0:
        return Field.zeros(grid)
    target = tol * bnorm

    x = np.array(x0.values if x0 is not None else np.zeros(grid.shape), dtype=float)
    ax = apply_op(x)
    if ax.shape != b.shape:
        raise GridMismatchError(f"operator output has shape {ax.shape}, rhs has {b.shape}")
    r = p = b - ax  # no copy: nothing is updated in place
    rs = float(np.dot(r.ravel(), r.ravel()))
    iterations = 0
    while True:
        if math.sqrt(vol * rs) <= target:
            true_r = b - apply_op(x)
            ts = float(np.dot(true_r.ravel(), true_r.ravel()))
            if math.sqrt(vol * ts) <= target:
                return Field._wrap(grid, x)
            r = p = true_r  # recurrence drifted; restart from the true residual
            rs = ts
        if iterations >= max_iter:
            res = math.sqrt(vol * rs)
            raise CgNonConvergenceError(
                f"cg_solve: no convergence after {iterations} iterations "
                f"(residual {res:.3e}, target {target:.3e})",
                residual=res, iterations=iterations)
        ap = apply_op(p)
        pap = float(np.dot(p.ravel(), ap.ravel()))
        if not pap > 0.0:  # also catches a NaN from a non-finite operator output
            raise CgNonConvergenceError(
                f"cg_solve: operator is not positive definite along the search "
                f"direction (p.Ap = {pap:.3e})",
                residual=math.sqrt(vol * rs), iterations=iterations)
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.dot(r.ravel(), r.ravel()))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iterations += 1
