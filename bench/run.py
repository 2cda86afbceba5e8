"""chcontrol benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 bench/run.py --workload optimize_1d --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload optimize_1d --seed 1 --seconds 40 --trace 1

Run from the root of a source checkout.  Each sample is a fresh worker
interpreter (``worker.py``) running one ``chcontrol.cli.main`` call, one at
a time, with BLAS/OpenMP threads pinned to 1.  Samples are started until
the next one would end after ``--seconds``; sample i uses a RUN_SEED drawn
from ``--seed``.  A failure-path probe (``solver.cg_maxit=1``, which must
exit 3) runs first and also warms the bytecode cache.

``--trace 0`` reports the end-to-end metrics (medians over samples).
``--trace 1`` alternates untraced and traced samples on the same RUN_SEED
and reports the per-layer metrics (medians over traced samples) and the
tracing overhead.  Metric names and units come from BENCHMARK.json.  The
last stdout line is the result; the lines before it record the
environment and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PROBE_EXIT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SAMPLE_TIMEOUT_S = 100


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _environment(args, env) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def _sample(workload: str, run_seed: int, outdir: Path, env: dict, flag=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--outdir", str(outdir)] + ([flag] if flag else [])
    try:
        proc = subprocess.run(cmd, env=dict(env, RUN_SEED=str(run_seed)), cwd=ROOT,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        record = {"ok": False, "detail": f"worker timed out after {SAMPLE_TIMEOUT_S} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"ok": False,
                      "detail": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    shutil.rmtree(outdir, ignore_errors=True)
    record.update(run_seed=run_seed, mode=flag or "untraced")
    return record


def _describe(summary: dict, key: str, series: list) -> float:
    """Record median, quartiles, minimum and count of ``series``; return the median."""
    q1, med, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
    summary[key] = {"median": med, "q1": q1, "q3": q3, "min": min(series), "n": len(series)}
    return med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "chcontrol" / "cli.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"error: not a chcontrol source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    print(json.dumps({"environment": _environment(args, env)}))

    outbase = ROOT / ".bench_out"
    rng = random.Random(args.seed)
    probe = _sample(args.workload, rng.randrange(2**31), outbase / "probe", env, "--probe")
    probe_ok = probe.get("rc") == PROBE_EXIT and not probe.get("ok")
    print(json.dumps({"probe": probe, "counted_as_failure": probe_ok}))

    modes = ("untraced", "--trace") if args.trace else ("untraced",)
    samples = []
    start = time.perf_counter()
    while True:
        run_seed = rng.randrange(2**31)
        for mode in modes:
            flag = None if mode == "untraced" else mode
            record = _sample(args.workload, run_seed, outbase / f"s{len(samples)}", env, flag)
            samples.append(record)
            print(json.dumps({k: v for k, v in record.items() if k != "functions"}))
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(samples) / len(modes))
        if elapsed + per_round > args.seconds:
            break
    try:
        outbase.rmdir()
    except OSError:
        pass

    failed = sum(1 for s in samples if not s.get("ok"))
    good = [s for s in samples if s.get("ok")] or samples
    plain = [s for s in good if s["mode"] == "untraced" and "run_s" in s]
    summary = {}
    values = {}
    for key, scaled in (("run_s", True), ("setup_s", True), ("peak_rss_mb", False)):
        series = [s[key] * s["scale"] if scaled else s[key] for s in plain]
        if series:
            values[key] = _describe(summary, key, series)
        if series and scaled:
            _describe(summary, f"wall_{key}", [s[key] for s in plain])
    values["ok_frac"] = (len(samples) - failed) / len(samples)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [s for s in good if s["mode"] == "--trace" and "layers" in s]
        for key in (traced[0]["layers"] if traced else ()):
            power = {"s": 1, "Mcells/s": -1}.get(units.get(key), 0)
            values[key] = statistics.median(s["layers"][key] * s["scale"] ** power
                                            for s in traced)
        if traced and "run_s" in values:
            traced_run = _describe(summary, "traced_run_s",
                                   [s["run_s"] * s["scale"] for s in traced])
            values["trace.overhead_frac"] = (traced_run - values["run_s"]) / values["run_s"]
            print(json.dumps({"functions": traced[-1]["functions"]}))
    print(json.dumps({"summary": summary, "samples": len(samples)}))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    absent = [m["name"] for m in wanted if m["name"] not in values]
    correct = probe_ok and failed == 0 and not absent
    if absent:
        print(json.dumps({"missing_metrics": absent}))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
