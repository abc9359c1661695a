"""Run-time tracing of levyfn's public entry points, from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper:
in every loaded ``levyfn`` module namespace that holds the function, and on
the owning class for methods.  ``uninstall`` puts the originals back.

Layer entries record one span each: name, layer, start, end, parent span, op
id and a few facts read off the return value.  Hot leaf calls (psi, the
Gaver-Stehfest inversions, Phi(0)) would overflow memory as spans, so they
keep a count, a total time and a self time per (op, function, enclosing
span).  Self time is a call's time minus the time of the traced calls made
inside it; each thread keeps its own frame stack and counter table, and a
worker thread's frames hang off the span open on the main thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Optional

# (module, owner, attribute, layer, leaf): owner is a class name or None for
# a module-level function
TRACED = [
    ("integral_tests", None, "classify_boundary", "integral_tests", False),
    ("integral_tests", None, "extinction_test", "integral_tests", False),
    ("integral_tests", None, "explosion_test", "integral_tests", False),
    ("integral_tests", None, "improper_integral_verdict", "integral_tests", False),
    ("scale_fn", "ScaleEvaluator", "__init__", "scale_fn", False),
    ("scale_fn", "ScaleEvaluator", "scale_w", "scale_fn", False),
    ("scale_fn", "ScaleEvaluator", "w_shifted", "scale_fn", False),
    ("scale_fn", "ScaleEvaluator", "potential_density", "scale_fn", False),
    ("scale_fn", "ScaleEvaluator", "occupation_expectation", "scale_fn", False),
    ("scale_fn", "ScaleEvaluator", "conditional_exp_functional", "scale_fn", False),
    ("scale_fn", None, "laplace_identity_residual", "scale_fn", False),
    ("scale_fn", None, "gs_invert_float", "scale_fn", True),
    ("scale_fn", None, "gs_invert_mp", "scale_fn", True),
    ("levy_model", "LevyModel", "laplace_exponent", "levy_model", True),
    ("levy_model", None, "laplace_exponent_hp", "levy_model", True),
    ("levy_model", "LevyModel", "phi_zero", "levy_model", True),
    ("montecarlo", None, "mc_estimate", "montecarlo", False),
    ("montecarlo", None, "sample_path", "montecarlo", False),
    ("montecarlo", None, "functional_along_path", "montecarlo", False),
]

LAYER_OF = {(f"{owner}.{attr}" if owner else attr): layer
            for _, owner, attr, layer, _ in TRACED}


def _facts(name: str, args: tuple, result) -> Optional[dict]:
    """Facts a span keeps from its call: verdict routes, panels, path steps."""
    if name in ("extinction_test", "explosion_test", "improper_integral_verdict"):
        d = result.diagnostics
        return {"verdict": result.verdict, "route": d.get("route"), "panels": d.get("panels")}
    if name == "sample_path":
        return {"steps": len(result.values) - 1, "status": result.status,
                "family": _family(args[0])}
    if name == "mc_estimate":
        return {"paths": result.n_paths, "censored_fraction": result.censored_fraction}
    return None


def _family(model) -> str:
    return {"NoJumps": "none", "StablePositive": "stable", "CompoundPoissonExp": "cpexp",
            "TemperedStable": "tempered"}[type(model.jumps).__name__]


class Tracer:
    def __init__(self):
        self.op: Optional[int] = None
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._main_stack = self._state()[0]

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            pass
        # frame = [child_ns, span id, span name]; a worker thread's base frame
        # points at the span open on the main thread (the mc_estimate call)
        main = getattr(self, "_main_stack", None)
        top = main[-1] if main else [0, 0, "op"]
        stack = [[0, top[1], top[2]]]
        table: dict = {}
        with self._lock:
            self._tables.append(table)
        self._tls.state = (stack, table)
        return self._tls.state

    # -- wrappers -----------------------------------------------------------

    def _leaf(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = tracer._state()
            parent = stack[-1]
            frame = [0, parent[1], parent[2]]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                parent[0] += dt
                key = (tracer.op, name, parent[2])
                acc = table.get(key)
                if acc is None:
                    table[key] = [1, dt, dt - frame[0]]
                else:
                    acc[0] += 1
                    acc[1] += dt
                    acc[2] += dt - frame[0]

        return wrapper

    def _span(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, _ = tracer._state()
            parent = stack[-1]
            sid = next(tracer._ids)
            frame = [0, sid, name]
            stack.append(frame)
            op = tracer.op
            facts = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                facts = _facts(name, args, result)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                parent[0] += t1 - t0
                tracer.spans.append((sid, parent[1], name, layer, op, t0, t1,
                                     t1 - t0 - frame[0], facts))

        return wrapper

    def install(self, package) -> None:
        """Wrap every traced entry point of the imported `package`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for modname, owner, attr, layer, leaf in TRACED:
            module = sys.modules[f"{package.__name__}.{modname}"]
            name = f"{owner}.{attr}" if owner else attr
            if owner:
                cls = getattr(module, owner)
                orig = cls.__dict__[attr]
                targets = [cls]
            else:
                orig = getattr(module, attr)
                targets = [m for m in modules if m.__dict__.get(attr) is orig]
            wrapped = self._leaf(orig, name) if leaf else self._span(orig, name, layer)
            for target in targets:
                self._patches.append((target, attr, orig))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def leaf_counters(self) -> dict[tuple, list]:
        """(op, function, enclosing span) -> [calls, total ns, self ns]."""
        merged: dict[tuple, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (n, tot, own) in table.items():
                acc = merged.setdefault(key, [0, 0, 0])
                acc[0] += n
                acc[1] += tot
                acc[2] += own
        return merged

    def write(self, path) -> None:
        """Spans and leaf counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, op, t0, t1, own, facts in self.spans:
                fh.write(json.dumps({"type": "span", "id": sid, "parent": parent,
                                     "name": name, "layer": layer, "op": op,
                                     "start_ns": t0, "end_ns": t1, "self_ns": own,
                                     "facts": facts}) + "\n")
            for (op, name, within), (n, tot, own) in sorted(
                    self.leaf_counters().items(), key=lambda kv: (str(kv[0][0]), kv[0][1:])):
                fh.write(json.dumps({"type": "leaf", "op": op, "name": name,
                                     "layer": LAYER_OF[name], "within": within,
                                     "calls": n, "total_ns": tot, "self_ns": own}) + "\n")
