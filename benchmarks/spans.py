"""Per-layer spans, recorded by wrapping unigrad's public names from outside.

Tracer.install() replaces each target (a module-level function, a method of
a public class, or the value/grad callables of every ComponentOracle built
while installed) with a wrapper that opens a span, and records for each
span name its calls, total time and self time (total minus the time of the
spans opened inside it).  Every binding of a wrapped function in any
unigrad module is replaced, so `from .bregman import bregman_map` call
sites are traced too.  uninstall() restores the originals.

A target that cannot be found is listed in Tracer.missing; the metrics
built on it are then reported as missing, never as zero.
"""

import importlib
import os
import sys
import time
from collections import defaultdict

# Spans whose children are the per-round work of one solver.
SOLVERS = {
    "unigrad.upgm.upgm_run": "upgm.loop",
    "unigrad.upgm.upgm_fixed_step_run": "upgm.loop",
    "unigrad.udgm.udgm_run": "udgm.loop",
    "unigrad.udgm.udgm_fixed_step_run": "udgm.loop",
    "unigrad.sug.sug_run": "sug.loop",
}

# target -> span name; CompositeProblem.value is named by where it runs.
TARGETS = {
    **SOLVERS,
    "unigrad.harness.run_experiment": "cmd.run",
    "unigrad.harness.check_bounds": "cmd.check",
    "unigrad.harness.evaluate_regret": "harness.evaluate_regret",
    "unigrad.harness.reference_solution": "harness.reference",
    "unigrad.harness.problem_from_descriptor": "problems.build",
    "unigrad.problems.load_samples": "problems.load_samples",
    "unigrad.trace.write_trace_csv": "trace.write",
    "unigrad.trace.parse_trace_csv": "trace.parse",
    "unigrad.bregman.bregman_map": "bregman.map",
    "unigrad.oracles.Regularizer.prox": "oracles.prox",
    "unigrad.oracles.CompositeProblem.value": "problem.value",
    "unigrad.geometry.ProxFunction.bregman": "geometry.bregman",
    "unigrad.udgm.DualModel.argmin": "udgm.argmin",
    "unigrad.udgm.DualModel.fold": "udgm.fold",
    "unigrad.sug.sug_update": "sug.update",
    "unigrad.sug.sug_subproblem": "sug.subproblem",
    "unigrad.sug.sug_init": "sug.init",
    "unigrad.oracles.ComponentOracle": "oracles.component",
}

# Not wrapped: the field of reference_solution's result that counts iterations.
REFERENCE_ITERATIONS = "unigrad.harness.ReferenceSolution.iterations"


def _resolve(target: str):
    """(owner, attribute, object) for a dotted target, or None."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        obj = getattr(owner, parts[-1], None) if owner is not None else None
        return None if obj is None else (owner, parts[-1], obj)
    return None


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child_time]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self.missing = []
        self._restore = []
        self._solver_depth = 0

    def reset(self) -> None:
        for d in (self.calls, self.total, self.self_time, self.extra):
            d.clear()

    def _wrap(self, name, fn, after=None):
        tracer = self
        solver = name in SOLVERS.values()

        def wrapper(*args, **kwargs):
            span = name
            if name == "problem.value" and tracer._solver_depth:
                span = "solver.f_full"
            frame = [span, 0.0]
            tracer.stack.append(frame)
            tracer._solver_depth += solver
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._solver_depth -= solver
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                tracer.calls[span] += 1
                tracer.total[span] += elapsed
                tracer.self_time[span] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after(self, name):
        if name == "harness.reference":
            def after(args, kwargs, result):
                iters = getattr(result, "iterations", None)
                if iters is None:
                    if REFERENCE_ITERATIONS not in self.missing:
                        self.missing.append(REFERENCE_ITERATIONS)
                else:
                    self.extra["harness.reference_iters"] += iters
            return after
        if name == "trace.write":
            def after(args, kwargs, result):
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                self.extra["trace.write_bytes"] += os.path.getsize(path)
            return after
        return None

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.missing = []
        for target, name in TARGETS.items():
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, obj = found
            if name == "oracles.component":
                self._install_component(obj)
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, obj, self._after(name)))
            else:
                wrapper = self._wrap(name, obj, self._after(name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "unigrad" or mod_name.startswith("unigrad."):
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, key, wrapper)

    def _install_component(self, cls) -> None:
        original = cls.__dict__.get("__post_init__")
        tracer = self

        def post_init(obj):
            if original is not None:
                original(obj)
            for field in ("value", "grad"):
                fn = getattr(obj, field)
                object.__setattr__(obj, field, tracer._wrap("oracles.component", fn))

        self._restore.append((cls, "__post_init__", original))
        cls.__post_init__ = post_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
