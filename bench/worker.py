"""One benchmark sample in a fresh interpreter; prints one JSON object.

    python3 bench/worker.py --workload NAME --outdir DIR [--trace | --probe]

The seed reaches the program only through the RUN_SEED environment
variable, which the caller sets.  A sample measures, in order:

* ``setup_s``: ``import chcontrol.cli``, ``parse_config``,
  ``apply_overrides`` (with RUN_SEED applied to every seeded field, as the
  CLI does), ``build_grid``, ``build_params`` and ``build_initial_control``;
* ``run_s``: one in-process ``chcontrol.cli.main`` call for the workload;
* ``peak_rss_mb``: this process's peak resident set, so one run's own peak;
* ``scale``: REFERENCE_S over the time of ``reference_time()``, averaged
  over one call just before and one just after the run.  Times are
  reported multiplied by it (see bench/README.md, "Steadiness").

With ``--trace`` the call runs under ``layer_trace.traced``; with
``--probe`` it runs the failure-path input instead and reports its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import layer_trace
from workloads import PROBE_OVERRIDES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# reference_time() on an idle core of the 2-vCPU x86_64 machine the bounds
# were set on; it only fixes the scale of the reported seconds.
REFERENCE_S = 0.080


def reference_time() -> float:
    """Wall time of a fixed numpy loop shaped like the package's stencil.

    The loop (``np.pad`` and ``np.diff`` on 32 cells) is benchmark code, so
    no change to the package moves it; what moves it is how fast this core
    runs at the moment.  The first calls are untimed: they pay one-time costs.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 32)
    for _ in range(100):
        np.pad(np.diff(a), 1)
    start = time.perf_counter()
    for _ in range(3000):
        b = np.pad(np.diff(a), 1)
        a = a + 1e-9 * np.diff(b)
    return time.perf_counter() - start


def _setup(workload, outdir: Path, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    import chcontrol.cli
    from chcontrol.config import (FieldExpr, RunConfig, apply_overrides, build_grid,
                                  build_initial_control, build_params, parse_config)

    source = Path(chcontrol.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported chcontrol from {source}, not from {ROOT / 'src'}")
    argv = workload.argv(ROOT, outdir)
    cfg = parse_config(Path(argv[1]).read_text(encoding="utf-8"))
    cfg = apply_overrides(cfg, argv[2:])
    cfg = RunConfig(values={k: v.with_seed(seed) if isinstance(v, FieldExpr) else v
                            for k, v in cfg.values.items()})
    grid = build_grid(cfg)
    params = build_params(cfg, grid)
    control = build_initial_control(cfg, grid, params)
    return chcontrol.cli, cfg, control


def _call(main, argv):
    """Run ``main(argv)`` with its output captured; a crash becomes an error string."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crashing run is a failed sample, not a harness crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, error, elapsed, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--outdir", required=True, type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    seed = int(os.environ["RUN_SEED"])
    outdir = args.outdir.resolve()

    start = time.perf_counter()
    cli, cfg, control = _setup(workload, outdir, seed)
    setup_s = time.perf_counter() - start

    argv = workload.argv(ROOT, outdir, PROBE_OVERRIDES if args.probe else ())
    trace = None
    ref_before = reference_time()
    if args.trace:
        with layer_trace.traced() as trace:
            rc, error, run_s, stdout, stderr = _call(cli.main, argv)
    else:
        rc, error, run_s, stdout, stderr = _call(cli.main, argv)
    scale = REFERENCE_S / (0.5 * (ref_before + reference_time()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok, detail = False, error or f"exit {rc}: {stderr.strip()[-300:]}"
    if rc == 0 and error is None:
        try:
            ok, detail = workload.check(stdout, outdir, cfg, control)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            detail = f"output check could not read the run's output: {exc!r}"

    record = {"ok": ok, "rc": rc, "detail": detail, "setup_s": setup_s, "run_s": run_s,
              "peak_rss_mb": peak_rss_mb, "scale": scale}
    if trace is not None:
        record["layers"] = layer_trace.layer_metrics(trace, run_s)
        record["functions"] = layer_trace.function_table(trace)
        record["spans"] = len(trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
