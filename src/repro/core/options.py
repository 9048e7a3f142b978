"""Configuration for the bsolo solver.

The option set mirrors the paper's experimental matrix: the lower bound
method is one of ``plain`` (none), ``mis``, ``lgr``, ``lpr`` (Table 1
columns), and the additional techniques of Sections 4-5 can be toggled
individually for the ablation benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Lower bound method names (Table 1 column labels).
PLAIN = "plain"
MIS = "mis"
LGR = "lgr"
LPR = "lpr"
#: Extension: cheap MIS pre-filter, LP relaxation only when it fails.
HYBRID = "hybrid"

_METHODS = (PLAIN, MIS, LGR, LPR, HYBRID)

#: Bound scheduling policies (see :mod:`repro.core.lb_schedule`).
STATIC = "static"
ADAPTIVE = "adaptive"

_SCHEDULES = (STATIC, ADAPTIVE)


class UnsupportedOptionError(ValueError):
    """A feature was requested from a solver that cannot honor it.

    Raised uniformly by the façade layers (``repro.api``, the sessions,
    the WBO front end) instead of silently ignoring the request — e.g.
    ``assumptions=`` passed to a baseline without assumption support, or
    ``proof=`` passed to an incremental session.
    """


class SolverOptions:
    """All tunables of :class:`~repro.core.solver.BsoloSolver`."""

    def __init__(
        self,
        lower_bound: str = LPR,
        lb_frequency: int = 1,
        lb_schedule: str = STATIC,
        incremental_bounds: bool = True,
        bound_conflict_learning: bool = True,
        upper_bound_cuts: bool = True,
        cardinality_cuts: bool = True,
        lp_guided_branching: bool = True,
        lgr_alpha_refinement: bool = True,
        preprocess: bool = True,
        probing_implications: int = 0,
        covering_reductions: bool = True,
        restarts: bool = False,
        restart_interval: int = 100,
        phase_saving: bool = False,
        pb_learning: bool = False,
        propagation: str = "counter",
        time_limit: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_decisions: Optional[int] = None,
        vsids_decay: float = 0.95,
        lgr_iterations: int = 60,
        lp_max_iterations: int = 3000,
        max_learned: Optional[int] = 20000,
        tracer=None,
        profile: bool = False,
        metrics=None,
        hotspot=None,
        on_progress=None,
        progress_interval: int = 1000,
        on_incumbent=None,
        external_bound=None,
        should_stop=None,
        poll_interval: int = 16,
        proof=None,
    ):
        if lower_bound not in _METHODS:
            raise ValueError(
                "lower_bound must be one of %s, got %r" % (_METHODS, lower_bound)
            )
        if lb_frequency < 1:
            raise ValueError("lb_frequency must be >= 1")
        if lb_schedule not in _SCHEDULES:
            raise ValueError(
                "lb_schedule must be one of %s, got %r" % (_SCHEDULES, lb_schedule)
            )
        if progress_interval < 1:
            raise ValueError("progress_interval must be >= 1")
        if poll_interval < 1:
            raise ValueError("poll_interval must be >= 1")
        if proof is not None and external_bound is not None:
            raise ValueError(
                "proof logging is incompatible with external_bound: an "
                "imported bound has no derivation the checker could replay"
            )
        #: Which lower bound estimation procedure to run (Section 3).
        self.lower_bound = lower_bound
        #: Estimate the bound every k-th decision node (1 = every node).
        self.lb_frequency = lb_frequency
        #: Bound scheduling policy: ``"static"`` reproduces the classic
        #: modulo-``lb_frequency`` check; ``"adaptive"`` adjusts the
        #: bounding interval from the recent prune rate and skips or
        #: escalates the hybrid MIS pre-filter from its recent payoff
        #: (see :mod:`repro.core.lb_schedule`).
        self.lb_schedule = lb_schedule
        #: Feed trail deltas to the MIS bounder so it re-evaluates only
        #: the constraints touched since the previous call.  Disabling
        #: restores the cold per-node MIS computation.  The LP bound is
        #: solved cold at every node either way.
        self.incremental_bounds = incremental_bounds
        #: Learn w_bc and backtrack non-chronologically on bound conflicts
        #: (Section 4).  When False, bound conflicts backtrack
        #: chronologically over the full decision path (the
        #: "straightforward approach" of Section 4.1).
        self.bound_conflict_learning = bound_conflict_learning
        #: Add the knapsack constraint (eq. 10) on each improved solution.
        self.upper_bound_cuts = upper_bound_cuts
        #: Infer constraints from cardinality constraints (eq. 11-13).
        self.cardinality_cuts = cardinality_cuts
        #: Branch on the most fractional LP variable, VSIDS ties
        #: (Section 5); only effective with lower_bound == "lpr".
        self.lp_guided_branching = lp_guided_branching
        #: Apply the Section 4.3 alpha_j refinement to Lagrangian
        #: explanations.
        self.lgr_alpha_refinement = lgr_alpha_refinement
        #: Probing for necessary assignments before search (Section 6).
        self.preprocess = preprocess
        #: Binary implication clauses collected while probing (the
        #: Savelsbergh/[6] constraint-strengthening flavour); 0 disables.
        self.probing_implications = probing_implications
        #: Covering-matrix reductions (essentiality, subsumption,
        #: dominance — paper refs [5, 7, 15]) applied when the instance
        #: is clause-only.
        self.covering_reductions = covering_reductions
        #: Luby restarts (post-paper extension; learned clauses and the
        #: incumbent survive a restart, so completeness is unaffected).
        self.restarts = restarts
        self.restart_interval = restart_interval
        #: Branch toward the variable's previous value instead of 0.
        self.phase_saving = phase_saving
        #: Learn cutting-plane resolvents alongside first-UIP clauses
        #: (Galena-style PB learning; post-paper extension).
        self.pb_learning = pb_learning
        #: Propagation backend name (``repro.engine.available_engines()``):
        #: ``"counter"`` for eager slack counters (the reference engine),
        #: ``"watched"`` for watched-literal/watched-sum propagation,
        #: ``"array"`` for the vectorized CSR/numpy engine.
        #: Validated lazily by ``make_engine`` so third-party backends
        #: registered after option construction still work.
        self.propagation = propagation
        #: Wall-clock budget in seconds (None = unlimited).
        self.time_limit = time_limit
        #: Conflict budget (None = unlimited).
        self.max_conflicts = max_conflicts
        #: Decision budget (None = unlimited).
        self.max_decisions = max_decisions
        self.vsids_decay = vsids_decay
        #: Subgradient iterations per Lagrangian bound call.
        self.lgr_iterations = lgr_iterations
        #: Simplex iteration cap per LP call.
        self.lp_max_iterations = lp_max_iterations
        #: Learned-clause cap; above it the oldest long clauses are
        #: forgotten (None = keep everything).
        self.max_learned = max_learned
        #: Trace sink (:class:`repro.obs.trace.Tracer`); None = no
        #: tracing, with zero per-event overhead (null-tracer path).
        self.tracer = tracer
        #: Collect per-phase wall times into ``stats.phase_times``.
        self.profile = profile
        #: Metrics registry (:class:`repro.obs.metrics.MetricsRegistry`);
        #: None = no metrics, with zero per-update overhead (the solver
        #: resolves instruments once and guards hot paths on a cached
        #: enabled flag — the null-tracer discipline).
        self.metrics = metrics
        #: Hotspot profiler (:class:`repro.obs.prof.HotspotProfiler`);
        #: when set the solver runs it around the solve, scoping samples
        #: to the phase timer's phases (forces ``profile`` accounting).
        self.hotspot = hotspot
        #: Periodic callback ``(stats, best, lower) -> None`` fired every
        #: ``progress_interval`` conflicts; ``best`` is the incumbent cost
        #: (offset included, None before the first solution) and ``lower``
        #: the most recent lower-bound estimate ``path + bound`` (None
        #: before the first bound call).
        self.on_progress = on_progress
        self.progress_interval = progress_interval
        #: Incumbent callback ``(cost, assignment) -> None`` fired on
        #: every improving solution (cost includes the objective offset).
        #: The portfolio runner uses this to publish incumbents to the
        #: other workers.
        self.on_incumbent = on_incumbent
        #: Cooperative bound import: a zero-argument callable returning
        #: the best cost known *outside* this solver (offset included),
        #: or None.  Polled every ``poll_interval`` search steps; a value
        #: below the current upper bound tightens it exactly as if a
        #: solution of that cost had been found locally (eq. 10 cuts are
        #: generated from the imported bound too).
        self.external_bound = external_bound
        #: Cooperative interrupt: a zero-argument callable returning True
        #: when the solver should stop and report its best-so-far (the
        #: portfolio runner passes ``Event.is_set``).  Polled together
        #: with ``external_bound``.
        self.should_stop = should_stop
        #: Search steps between polls of ``external_bound``/``should_stop``.
        self.poll_interval = poll_interval
        #: Proof sink (:class:`repro.certify.ProofLogger`); when set the
        #: solver records a checkable cutting-planes derivation of its
        #: answer (see ``docs/PROOFS.md``).  Proof mode disables
        #: covering-matrix reductions (their strengthenings are not
        #: implication-sound) and self-checks every bound certificate,
        #: declining prunes it cannot justify — correctness is unchanged,
        #: search may take longer.
        self.proof = proof

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-safe scalar knobs, for trace run headers."""
        return {
            "lower_bound": self.lower_bound,
            "lb_frequency": self.lb_frequency,
            "lb_schedule": self.lb_schedule,
            "incremental_bounds": self.incremental_bounds,
            "bound_conflict_learning": self.bound_conflict_learning,
            "upper_bound_cuts": self.upper_bound_cuts,
            "cardinality_cuts": self.cardinality_cuts,
            "lp_guided_branching": self.lp_guided_branching,
            "lgr_alpha_refinement": self.lgr_alpha_refinement,
            "preprocess": self.preprocess,
            "probing_implications": self.probing_implications,
            "covering_reductions": self.covering_reductions,
            "restarts": self.restarts,
            "restart_interval": self.restart_interval,
            "phase_saving": self.phase_saving,
            "pb_learning": self.pb_learning,
            "propagation": self.propagation,
            "time_limit": self.time_limit,
            "max_conflicts": self.max_conflicts,
            "max_decisions": self.max_decisions,
            "vsids_decay": self.vsids_decay,
            "lgr_iterations": self.lgr_iterations,
            "lp_max_iterations": self.lp_max_iterations,
            "max_learned": self.max_learned,
            "profile": self.profile,
            "progress_interval": self.progress_interval,
            "poll_interval": self.poll_interval,
        }

    # ------------------------------------------------------------------
    def as_kwargs(self) -> Dict[str, Any]:
        """Every constructor argument with its current value (callbacks
        and tracer included), suitable for ``SolverOptions(**kwargs)``."""
        kwargs = self.describe()
        kwargs.update(
            tracer=self.tracer,
            metrics=self.metrics,
            hotspot=self.hotspot,
            on_progress=self.on_progress,
            on_incumbent=self.on_incumbent,
            external_bound=self.external_bound,
            should_stop=self.should_stop,
            proof=self.proof,
        )
        return kwargs

    def replace(self, **overrides) -> "SolverOptions":
        """A copy of these options with some fields overridden."""
        kwargs = self.as_kwargs()
        unknown = set(overrides) - set(kwargs)
        if unknown:
            raise TypeError(
                "unknown option(s): %s" % ", ".join(sorted(unknown))
            )
        kwargs.update(overrides)
        return SolverOptions(**kwargs)

    # ------------------------------------------------------------------
    @classmethod
    def plain(cls, **kwargs) -> "SolverOptions":
        """bsolo with no lower bounding (Table 1 column "plain")."""
        return cls(lower_bound=PLAIN, **kwargs)

    @classmethod
    def with_mis(cls, **kwargs) -> "SolverOptions":
        """Options preset: MIS lower bounding (Section 3.1)."""
        return cls(lower_bound=MIS, **kwargs)

    @classmethod
    def with_lgr(cls, **kwargs) -> "SolverOptions":
        """Options preset: Lagrangian-relaxation bounding (Section 3.2)."""
        return cls(lower_bound=LGR, **kwargs)

    @classmethod
    def with_lpr(cls, **kwargs) -> "SolverOptions":
        """Options preset: LP-relaxation bounding (Section 3.3)."""
        return cls(lower_bound=LPR, **kwargs)

    def __repr__(self) -> str:
        return "SolverOptions(lower_bound=%r)" % self.lower_bound


def merge_solver_options(options: Optional[SolverOptions], **legacy) -> SolverOptions:
    """Combine an optional :class:`SolverOptions` with legacy per-solver
    keyword overrides (``time_limit=...`` etc.); explicitly passed
    (non-None, non-False) legacy values win over the options object.

    The baseline solvers accept both styles — the uniform
    ``(instance, options)`` constructor of the registry and their
    original keyword arguments — and funnel both through this helper.
    """
    base = options if options is not None else SolverOptions()
    effective = {
        key: value
        for key, value in legacy.items()
        if value is not None and value is not False
    }
    if not effective:
        return base
    return base.replace(**effective)
