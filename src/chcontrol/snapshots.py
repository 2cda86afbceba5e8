"""Plain-text field snapshots.

Format: a single header line

    # t=<time> dim=<d> nx=<nx> ny=<ny> hx=<hx> hy=<hy>

followed by one row per y index of comma-separated decimals printed with
shortest round-trip precision, so a write/read cycle reproduces the values
bitwise.  1D fields occupy a single row.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid import Field, Grid

__all__ = ["write_snapshot", "read_snapshot", "read_snapshot_header", "SnapshotError"]


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


def read_snapshot_header(path) -> dict:
    """Parse the header line into {t, dim, nx, ny, hx, hy}."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
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


def read_snapshot(path, grid: Grid | None = None) -> Field:
    """Read a snapshot, validating the header against ``grid`` when given.

    Without a grid, one is reconstructed from the header (lengths
    nx*hx, ny*hy), which may differ from the writer's grid by one ulp in
    the spacing; pass the active grid for exact validation.
    """
    header = read_snapshot_header(path)
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh.readlines()[1:] if ln.strip()]
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
