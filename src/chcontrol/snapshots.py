"""Plain-text field snapshots.

Format: a single header line

    # t=<time> dim=<d> nx=<nx> ny=<ny> hx=<hx> hy=<hy>

followed by one row per y index of comma-separated decimals printed with
shortest round-trip precision, so a write/read cycle reproduces the values
bitwise.  1D fields occupy a single row.

``write_snapshots`` writes all the snapshots of one run.  Its cost is the
``repr`` of every value, so when a run has at least
``2 * VALUES_PER_PROCESS`` values and ``os.sched_getaffinity`` allows more
than one CPU, the files are split into shares of equal cell count, no more
than one per CPU and one per ``VALUES_PER_PROCESS`` values: the calling
process writes the first share and a forked child (``os.fork``) writes
each other one.  Below that, on one CPU, or where ``os.fork`` is missing,
everything is written in-process.  Every file is formatted by the same
code in whichever process writes it, so the bytes do not depend on the
number of processes.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .grid import Field, Grid

__all__ = ["write_snapshot", "write_snapshots", "read_snapshot", "read_snapshot_header",
           "SnapshotError"]

# Smallest share of values worth a process of its own.  On a 2-vCPU x86_64
# host a fork plus its waitpid costs 2-5 ms, the formatting of about 3000
# values; writing 1024-cell fields, two processes lost to one at 6144 values
# (11.8 against 10.9 ms) and won from 8192 (10.7 against 13.5 ms).
VALUES_PER_PROCESS = 4096


class SnapshotError(ValueError):
    """Malformed snapshot file or a header/grid mismatch."""


def write_snapshot(field: Field, t: float, path) -> str:
    """Write ``field`` at time ``t`` to ``path``; returns the text written."""
    grid = field.grid
    nx, ny = grid.counts
    hx, hy = grid.spacing
    arr = field.values.reshape((nx, ny))
    lines = [f"# t={float(t)!r} dim={grid.dim} nx={nx} ny={ny} hx={hx!r} hy={hy!r}"]
    lines.extend(",".join(map(repr, row)) for row in arr.T.tolist())
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


def _write_share(grid: Grid, share) -> None:
    for values, t, paths in share:
        text = write_snapshot(Field._wrap(grid, values), t, paths[0])
        for path in paths[1:]:
            Path(path).write_text(text, encoding="utf-8")


def _process_count(n_items: int, n_cells: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(n_items, len(os.sched_getaffinity(0)),
                      n_items * n_cells // VALUES_PER_PROCESS))


def write_snapshots(grid: Grid, items) -> int:
    """Write every ``(values, t, paths)`` item; returns the number of processes used.

    Each item's ``values`` (an array of the grid's shape) is formatted once,
    as by ``write_snapshot``, and the same text goes to each of its
    ``paths``.  Above the threshold in the module docstring, forked children
    write all but the first share; they only format and write, and leave
    through ``os._exit``.  Every child is reaped before this returns or
    raises, and a failed child raises ``OSError`` naming its share's files.
    """
    items = list(items)
    k = _process_count(len(items), grid.n_cells)
    shares = [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]
    children = {}
    try:
        for share in shares[1:]:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _write_share(grid, share)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = share
        _write_share(grid, shares[0])
    finally:
        failed = [share for pid, share in children.items()
                  if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0]
    if failed:
        names = ", ".join(str(path) for share in failed for _, _, paths in share for path in paths)
        raise OSError(f"snapshot writer process failed on {names}")
    return k


def _parse_header(path, first: str) -> dict:
    first = first.strip()
    if not first.startswith("# "):
        raise SnapshotError(f"{path}: missing snapshot header")
    meta = {}
    for token in first[2:].split():
        if "=" not in token:
            raise SnapshotError(f"{path}: malformed header token {token!r}")
        key, value = token.split("=", 1)
        meta[key] = value
    try:
        return {
            "t": float(meta["t"]),
            "dim": int(meta["dim"]),
            "nx": int(meta["nx"]),
            "ny": int(meta["ny"]),
            "hx": float(meta["hx"]),
            "hy": float(meta["hy"]),
        }
    except (KeyError, ValueError) as exc:
        raise SnapshotError(f"{path}: bad header ({exc})") from exc


def read_snapshot_header(path) -> dict:
    """Parse the header line into {t, dim, nx, ny, hx, hy}."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_header(path, fh.readline())


def read_snapshot(path, grid: Grid | None = None) -> Field:
    """Read a snapshot, validating the header against ``grid`` when given.

    The file is opened once.  Without a grid, one is reconstructed from the
    header (lengths nx*hx, ny*hy), which may differ from the writer's grid by
    one ulp in the spacing; pass the active grid for exact validation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(path, fh.readline())
        rows = fh.readlines()
    if grid is not None:
        expected = {"dim": grid.dim, "nx": grid.counts[0], "ny": grid.counts[1],
                    "hx": grid.spacing[0], "hy": grid.spacing[1]}
        for key, want in expected.items():
            found = header[key]
            if found != want:
                raise SnapshotError(
                    f"{path}: header mismatch on {key}: expected {want!r}, found {found!r}")
        target = grid
    else:
        target = Grid(header["dim"], (header["nx"], header["ny"]),
                      (header["nx"] * header["hx"], header["ny"] * header["hy"]))

    nx, ny = header["nx"], header["ny"]
    lines = [ln.strip() for ln in rows if ln.strip()]
    if len(lines) != ny:
        raise SnapshotError(f"{path}: expected {ny} data rows, found {len(lines)}")
    arr = np.empty((nx, ny), dtype=float)
    for j, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != nx:
            raise SnapshotError(f"{path}: row {j} has {len(parts)} values, expected {nx}")
        try:
            arr[:, j] = [float(p) for p in parts]
        except ValueError as exc:
            raise SnapshotError(f"{path}: row {j}: malformed number ({exc})") from exc
    return Field(target, arr.reshape(target.shape))
