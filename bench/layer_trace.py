"""Per-layer spans for chcontrol, recorded from outside the package.

``traced()`` replaces every public function of the layer modules (``grid``,
``model``, ``forward``, ``sensitivity``, ``optimize``, ``snapshots``) with a
span-recording wrapper, at every module attribute in the package that
holds it, so ``forward.cg_solve``, ``sensitivity.adjoint_step`` and
``cli.projected_gradient`` are all traced.  Every replaced attribute is
restored when the context ends, also on error.

Spans (name, parent, start, end) stay in memory; ``layer_metrics`` and
``function_table`` reduce them after the run.  A span's self time is its
duration minus the durations of its direct child spans.

Solves are told apart by role, not by function: the wrapped
``phase_operator`` and ``diffusion_operator`` tag the closures they return,
and the wrapped ``cg_solve`` reads the tag and counts operator applications.
Untagged solves (today only the ``filtered_noise`` smoother) are "other".
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("grid", "model", "forward", "sensitivity", "optimize", "snapshots")
ROLE_ATTR = "_bench_solve_role"
OPERATOR_ROLES = {"forward.phase_operator": "phase", "forward.diffusion_operator": "diffusion"}
SOLVE_ROLES = ("phase", "diffusion", "other")

# Metric group -> span names; a group's calls and time count outermost spans only.
GROUPS = {
    "grid.stencil": ("grid.laplacian_values",),
    "grid.reduce": ("grid.integrate", "grid.inner_product", "grid.grad_sq_integral",
                    "grid.norm_h"),
    "model.preset_field": ("model.preset_field",),
    "forward.step": ("forward.step",),
    "forward.simulate": ("forward.simulate",),
    "forward.energy": ("forward.energy",),
    "sensitivity.adjoint_step": ("sensitivity.adjoint_step",),
    "sensitivity.solve_adjoint": ("sensitivity.solve_adjoint",),
    "sensitivity.reduced_gradient": ("sensitivity.reduced_gradient",),
    "sensitivity.linearized_step": ("sensitivity.linearized_step",),
    "optimize.project": ("optimize.project",),
    "snapshots.write_snapshot": ("snapshots.write_snapshot",),
}
SELF_TIMED = ("forward.step", "sensitivity.adjoint_step", "sensitivity.linearized_step")


class Trace:
    """Spans of one traced run, as parallel lists indexed by span id."""

    def __init__(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.stack = []
        self.solves = {}        # span id -> (role, operator applications, failed)
        self.iterations = {}    # projected_gradient span id -> accepted steps
        self.stencil_cells = 0

    def __len__(self):
        return len(self.name)


def _span(trace: Trace, name: str, original, fn):
    names, parents, starts, ends, stack = (trace.name, trace.parent, trace.start,
                                           trace.end, trace.stack)
    clock = time.perf_counter

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        idx = len(names)
        names.append(name)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()

    return wrapper


def _instrumented(trace: Trace, name: str, fn):
    """The original function, with the layer counters the metrics need."""
    if name in OPERATOR_ROLES:
        role = OPERATOR_ROLES[name]

        def make_operator(*args, **kwargs):
            op = fn(*args, **kwargs)
            setattr(op, ROLE_ATTR, role)
            return op
        return make_operator

    if name == "grid.cg_solve":
        def solve(apply_op, *args, **kwargs):
            applies = 0

            def counted(f):
                nonlocal applies
                applies += 1
                return apply_op(f)

            failed = True
            try:
                out = fn(counted, *args, **kwargs)
                failed = False
                return out
            finally:
                trace.solves[trace.stack[-1]] = (
                    getattr(apply_op, ROLE_ATTR, "other"), applies, failed)
        return solve

    if name == "grid.laplacian_values":
        def stencil(grid, values):
            trace.stencil_cells += values.size
            return fn(grid, values)
        return stencil

    if name == "optimize.projected_gradient":
        def optimize(*args, **kwargs):
            result = fn(*args, **kwargs)
            trace.iterations[trace.stack[-1]] = result.iterations
            return result
        return optimize

    return fn


def _public_functions():
    """Original function object -> span name, for every layer module."""
    out = {}
    for layer in LAYERS:
        module = sys.modules.get(f"chcontrol.{layer}")
        if module is None:
            raise RuntimeError(f"chcontrol.{layer} is not imported; import chcontrol.cli first")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out[obj] = f"{layer}.{attr}"
    return out


@contextmanager
def traced(trace: Trace | None = None):
    """Trace every layer call made inside the block; restore on exit."""
    trace = Trace() if trace is None else trace
    originals = _public_functions()
    wrappers = {fn: _span(trace, name, fn, _instrumented(trace, name, fn))
                for fn, name in originals.items()}
    patched = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "chcontrol" or mod_name.startswith("chcontrol.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        yield trace
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def _durations(trace: Trace):
    dur = [e - s for s, e in zip(trace.start, trace.end)]
    children = [0.0] * len(dur)
    for i, p in enumerate(trace.parent):
        if p >= 0:
            children[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, children)]


def function_table(trace: Trace) -> dict:
    """Span name -> {calls, s, self_s}; ``s`` sums nested calls of one name."""
    dur, self_s = _durations(trace)
    table = {}
    for i, name in enumerate(trace.name):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += dur[i]
        row["self_s"] += self_s[i]
    return dict(sorted(table.items()))


def layer_metrics(trace: Trace, run_s: float) -> dict:
    """Every per-layer metric of one traced run of ``run_s`` seconds."""
    dur, self_s = _durations(trace)
    group_of = {name: group for group, names in GROUPS.items() for name in names}
    m = {}
    for group in GROUPS:
        m[f"{group}.calls"] = 0
        m[f"{group}.s"] = 0.0
    for group in SELF_TIMED:
        m[f"{group}.self_s"] = 0.0
    for i, name in enumerate(trace.name):
        group = group_of.get(name)
        if group is None:
            continue
        if group in SELF_TIMED:
            m[f"{group}.self_s"] += self_s[i]
        p = trace.parent[i]
        while p >= 0 and group_of.get(trace.name[p]) != group:
            p = trace.parent[p]
        if p < 0:
            m[f"{group}.calls"] += 1
            m[f"{group}.s"] += dur[i]

    for role in SOLVE_ROLES:
        runs = [(i, applies) for i, (r, applies, _) in trace.solves.items() if r == role]
        calls = len(runs)
        applies = sum(a for _, a in runs)
        key = f"grid.{role}_solve"
        m[f"{key}.calls"] = calls
        m[f"{key}.s"] = sum(dur[i] for i, _ in runs)
        m[f"{key}.op_applies"] = applies
        m[f"{key}.applies_per_call"] = applies / calls if calls else 0.0
    m["grid.solve.failures"] = sum(1 for _, _, failed in trace.solves.values() if failed)
    stencil_s = m["grid.stencil.s"]
    m["grid.stencil.cells"] = trace.stencil_cells
    m["grid.stencil.mcells_per_s"] = trace.stencil_cells / stencil_s / 1e6 if stencil_s else 0.0

    # Cost evaluations are the simulates the optimizer itself starts: the
    # initial one per call plus one per trial step.
    runs = len(trace.iterations)
    accepted = sum(trace.iterations.values())
    evals = sum(1 for i, name in enumerate(trace.name) if name == "forward.simulate"
                and trace.parent[i] in trace.iterations)
    trials = evals - runs
    m["optimize.iterations"] = accepted
    m["optimize.cost_evals"] = evals
    m["optimize.backtracks"] = trials - accepted
    m["optimize.accept_ratio"] = accepted / trials if trials else 0.0

    covered = sum(d for d, p in zip(dur, trace.parent) if p < 0)
    m["trace.unattributed_frac"] = (run_s - covered) / run_s
    return m
