"""The traced run restores every wrapped attribute, and its metrics match
the per-layer list in BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chcontrol.cli as cli  # noqa: E402
from chcontrol import forward, optimize, sensitivity  # noqa: E402

import layer_trace  # noqa: E402

# Five steps, two optimizer iterations: a traced run in well under a second.
SMALL_OPTIMIZE = ["optimize", str(ROOT / "configs" / "tracking_soft.cfg"),
                  "time.t_final=0.01", "opt.max_iters=2"]


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "chcontrol" or name.startswith("chcontrol."))
            for attr, value in vars(module).items() if callable(value)}


def test_untraced_run_after_traced_run_sees_original_functions(tmp_path):
    before = _bindings()
    argv = SMALL_OPTIMIZE + [f"io.outdir={tmp_path}"]
    with layer_trace.traced() as trace:
        for module, attr in ((forward, "cg_solve"), (sensitivity, "adjoint_step"),
                             (optimize, "simulate"), (cli, "projected_gradient")):
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        cli.main(argv)
    spans = len(trace)
    assert spans > 0
    assert _bindings() == before
    cli.main(argv)
    assert len(trace) == spans


def test_attributes_restored_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with layer_trace.traced():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_layer_metrics_match_benchmark_spec(tmp_path):
    with layer_trace.traced() as trace:
        assert cli.main(SMALL_OPTIMIZE + [f"io.outdir={tmp_path}"]) == 1  # iteration cap
    m = layer_trace.layer_metrics(trace, run_s=1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(m) | {"trace.overhead_frac"} == {x["name"] for x in spec["per_layer"]}
    # Every forward, linearized and adjoint step makes one phase and one diffusion solve.
    steps = (m["forward.step.calls"] + m["sensitivity.adjoint_step.calls"]
             + m["sensitivity.linearized_step.calls"])
    assert steps > 0
    assert m["grid.phase_solve.calls"] == m["grid.diffusion_solve.calls"] == steps
    assert m["grid.other_solve.calls"] == 0 and m["grid.solve.failures"] == 0
    assert m["optimize.iterations"] == 2
    assert m["optimize.cost_evals"] == 1 + m["optimize.iterations"] + m["optimize.backtracks"]
