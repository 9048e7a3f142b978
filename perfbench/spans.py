"""Per-layer timing from outside the program: wrap public entry points.

The traced run swaps each layer's entry point for a wrapper that opens a
span around the call.  A span's *self time* is its duration minus the
durations of the spans it directly encloses, so nested layers (the
simplex inside the LP bounder, propagation inside probing) are each
counted once.  Spans are aggregated as they close, keeping memory flat
however many calls a run makes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Layer name -> entry points, each ``(module, "Class.method")`` or
#: ``(module, "function")``.  ``probe_necessary_assignments`` is bound
#: by name into the solver module too, so both bindings are replaced.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "pb.opb.parse": [("repro.pb.opb", "parse")],
    "lp.simplex.solve": [("repro.lp.simplex", "SimplexSolver.solve"),
                         ("repro.lp.simplex", "SimplexSolver.warm_resolve")],
    "lp.relaxation.compute": [("repro.lp.relaxation", "LPRelaxationBound.compute")],
    "mis.compute": [("repro.mis.independent_set", "MISBound.compute")],
    "lagrangian.compute": [("repro.lagrangian.subgradient", "LagrangianBound.compute")],
    "engine.conflict.analyze": [("repro.engine.conflict", "ConflictAnalyzer.analyze")],
    "core.preprocess": [("repro.core.preprocess", "probe_necessary_assignments"),
                        ("repro.core.solver", "probe_necessary_assignments")],
    "core.cuts": [("repro.core.cuts", "CutGenerator.cuts_for")],
    "core.branching": [("repro.core.branching", "Brancher.pick")],
}

#: The span around ``repro.api.solve`` itself; its self time is the
#: solve time no layer above accounts for.
ROOT = "core.other"


def engine_entry_points() -> List[Tuple[object, str]]:
    """The propagation entry points of the default engine class.

    Without a tracer or metrics the engine rebinds ``propagate`` to
    ``_propagate_loop`` on each instance, so the loop is wrapped as
    well as the public method.
    """
    from repro.core.options import SolverOptions
    from repro.engine.interface import make_engine

    cls = type(make_engine(SolverOptions().propagation, 1))
    return [(cls, "propagate"), (cls, "_propagate_loop")]


class SpanRecorder:
    """Accumulates self time and call counts per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open spans, innermost last: ``[start, time in child spans]``.
        self._open: List[List[float]] = []

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span ``name``."""
        clock, open_spans = self.clock, self._open
        self_time, calls = self.self_time, self.calls

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            open_spans.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                open_spans.pop()
                self_time[name] += duration - frame[1]
                calls[name] += 1
                if open_spans:
                    open_spans[-1][1] += duration

        traced.__wrapped__ = function
        return traced


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """Installs a recorder's wrappers on every layer and removes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        targets = [(name, _resolve(module, path))
                   for name, points in LAYERS.items() for module, path in points]
        targets += [("engine.propagate", point) for point in engine_entry_points()]
        for name, (owner, attr) in targets:
            original = owner.__dict__.get(attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, getattr(owner, attr)))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
