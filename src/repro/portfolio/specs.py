"""Worker specifications for the parallel portfolio.

A worker is just ``(solver_name, options)`` — a name resolved through
:mod:`repro.api` plus a picklable :class:`SolverOptions`.  The default
portfolio diversifies along the axes the paper shows to be
complementary: the lower-bound method (MIS / LGR / LPR / none), the
bound-call schedule (static vs adaptive), restart and phase-saving
policy, PB-resolvent learning, and entirely different search paradigms
(SAT linear search, cutting planes, MILP branch & bound).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.options import SolverOptions

#: Option fields that carry process-local callables or sinks; worker
#: specs must leave them unset — the portfolio runner installs its own
#: incumbent/interrupt hooks inside each worker process.
_PROCESS_LOCAL_FIELDS = (
    "tracer",
    "metrics",
    "hotspot",
    "on_progress",
    "on_incumbent",
    "external_bound",
    "should_stop",
)


class WorkerSpec:
    """One portfolio worker: a registered solver name plus its options."""

    __slots__ = ("solver", "options", "label")

    def __init__(self, solver: str, options: Optional[SolverOptions] = None,
                 label: Optional[str] = None):
        self.solver = solver
        self.options = options
        self.label = label if label is not None else solver
        self.validate()

    def validate(self) -> None:
        """Reject specs that cannot cross a process boundary."""
        if self.options is None:
            return
        for field in _PROCESS_LOCAL_FIELDS:
            if getattr(self.options, field) is not None:
                raise ValueError(
                    "WorkerSpec options must leave %r unset: it cannot be "
                    "pickled into a worker process (the portfolio installs "
                    "its own hooks)" % field
                )

    def __repr__(self) -> str:
        return "WorkerSpec(%r, label=%r)" % (self.solver, self.label)


#: The diversification ladder: each rung is (solver, option overrides).
#: The propagation backend is a diversification axis too: watched-literal
#: rungs race the counter rungs, so whichever engine fits the instance's
#: constraint mix (clause-heavy vs dense PB) reaches the optimum first.
_DEFAULT_LADDER = (
    ("bsolo-lpr", {}),
    ("bsolo-mis", {"restarts": True, "phase_saving": True,
                   "propagation": "watched"}),
    ("linear-search", {"propagation": "watched"}),
    ("bsolo-lgr", {"lb_schedule": "adaptive"}),
    ("bsolo-hybrid", {"pb_learning": True, "lb_schedule": "adaptive",
                      "propagation": "array"}),
    ("cutting-planes", {}),
    ("bsolo-plain", {"restarts": True, "propagation": "watched"}),
    ("bsolo-lpr", {"propagation": "array", "restarts": True}),
    ("milp", {}),
)


def default_specs(
    workers: int = 4, base: Optional[SolverOptions] = None
) -> List[WorkerSpec]:
    """The default diversified portfolio of ``workers`` members.

    The first rungs of the ladder cover the paper's complementary
    bounding strategies plus the comparator paradigms; beyond the ladder
    the bsolo configurations repeat with perturbed VSIDS decay and
    restart intervals so no two workers search identically.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    template = base if base is not None else SolverOptions()
    specs: List[WorkerSpec] = []
    for index in range(workers):
        solver, overrides = _DEFAULT_LADDER[index % len(_DEFAULT_LADDER)]
        options = template.replace(**overrides) if overrides else template
        lap = index // len(_DEFAULT_LADDER)
        if lap:
            # repeat visits get perturbed heuristics for diversity
            options = options.replace(
                vsids_decay=max(0.5, options.vsids_decay - 0.05 * lap),
                restart_interval=options.restart_interval + 50 * lap,
            )
        specs.append(
            WorkerSpec(solver, options, label="%s@%d" % (solver, index))
        )
    return specs
