"""The benchmark's workloads: one CLI command each, plus its output check.

A check reads what the run left behind (stdout, ``run.log``, snapshot
files) and returns ``(ok, detail)``.  Checks parse the files themselves
instead of calling the package, so a defect in the package's readers or
reductions cannot hide a defect in the run.  This module imports neither
numpy nor the package, so importing it costs the measured set-up nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Reached cost of tracking_soft from every seed tried; the run is accepted
# only within OPT_COST_RTOL of it.
OPT_COST = 0.3615002587
OPT_COST_RTOL = 1e-9
GRADCHECK_BOUND = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str
    overrides: tuple
    check: Callable

    def argv(self, root: Path, outdir: Path, extra=()) -> list:
        """Arguments for ``chcontrol.cli.main``; the seed comes from RUN_SEED."""
        return [self.subcommand, str(root / self.config), *self.overrides, *extra,
                f"io.outdir={outdir}"]


def _kv(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def check_optimize(stdout: str, outdir: Path, cfg, control) -> tuple:
    lines = (outdir / "run.log").read_text(encoding="utf-8").splitlines()
    last = _kv(lines[-1]) if lines else {}
    cost = float(last.get("final_cost", "nan"))
    rel = abs(cost - OPT_COST) / OPT_COST
    ok = (last.get("termination") == "tolerance_met" and last.get("kkt_violations") == "0"
          and rel <= OPT_COST_RTOL)
    return ok, (f"termination={last.get('termination')} iterations={last.get('iterations')} "
                f"kkt_violations={last.get('kkt_violations')} final_cost={cost!r} "
                f"rel_to_pinned={rel:.2e}")


def _read_snapshot(path: Path) -> tuple:
    """(cell volume, flat list of values) of one snapshot file."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    meta = _kv(header.lstrip("#"))
    values = [float(v) for row in rows for v in row.split(",")]
    return float(meta["hx"]) * float(meta["hy"]), values


def check_simulate(stdout: str, outdir: Path, cfg, control) -> tuple:
    """Per-step mass defect within 10*cg_tol*(1 + |phi_n| + |sigma_n|).

    Mass and norms are recomputed from the per-level snapshots (the run
    writes every level), with the same exact summation the package uses.
    """
    n_steps = cfg.n_steps
    tau = cfg["time.tau"]
    cg_tol = cfg["solver.cg_tol"]
    log_lines = (outdir / "run.log").read_text(encoding="utf-8").splitlines()
    if len(log_lines) != n_steps:
        return False, f"run.log has {len(log_lines)} step lines, expected {n_steps}"
    worst = 0.0
    prev = None
    for n in range(n_steps + 1):
        vol, phi = _read_snapshot(outdir / f"phi_{n:06d}.csv")
        _, sigma = _read_snapshot(outdir / f"sigma_{n:06d}.csv")
        mass = vol * math.fsum(phi) + vol * math.fsum(sigma)
        norms = (math.sqrt(vol * math.fsum(v * v for v in phi))
                 + math.sqrt(vol * math.fsum(v * v for v in sigma)))
        if prev is not None:
            prev_mass, prev_norms = prev
            supplied = tau * vol * math.fsum(control[n - 1].values.ravel().tolist())
            defect = mass - prev_mass - supplied
            worst = max(worst, abs(defect) / (10.0 * cg_tol * (1.0 + prev_norms)))
        prev = (mass, norms)
    return worst <= 1.0, f"steps={n_steps} worst_mass_defect_margin={worst:.3f}"


def check_gradcheck(stdout: str, outdir: Path, cfg, control) -> tuple:
    worst = math.nan
    for line in stdout.splitlines():
        fields = _kv(line)
        if "max_discrepancy" in fields:
            worst = float(fields["max_discrepancy"])
    return worst <= GRADCHECK_BOUND, f"max_discrepancy={worst!r} bound={GRADCHECK_BOUND!r}"


WORKLOADS = {w.name: w for w in (
    Workload("optimize_1d", "optimize", "configs/tracking_soft.cfg",
             ("opt.u0=filtered_noise seed=0 amplitude=0.5",), check_optimize),
    # Every level is written so the check can recompute each step's mass defect.
    Workload("simulate_2d", "simulate", "configs/twodim.cfg",
             ("grid.nx=64", "grid.ny=64", "init.phi0=filtered_noise seed=0 amplitude=0.6",
              "time.t_final=0.02", "io.snapshot_every=1"), check_simulate),
    Workload("gradcheck_2d", "grad-check", "configs/gradcheck.cfg",
             ("grid.dim=2", "grid.nx=32", "grid.ny=32", "grid.ly=4.0"), check_gradcheck),
)}

# Failure-path input: one CG iteration cannot meet the tolerance, so the CLI
# must report a solver failure with exit code 3.
PROBE_OVERRIDES = ("solver.cg_maxit=1",)
PROBE_EXIT = 3
