"""bsolo: hybrid branch-and-bound / SAT-based PBO solver (the paper's tool).

The search is a conflict-driven DPLL over pseudo-boolean constraints
(boolean constraint propagation, first-UIP learning, non-chronological
backtracking) extended with branch-and-bound pruning:

* every complete assignment updates the incumbent ``P.upper`` and
  triggers the Section 5 cuts (knapsack eq. 10, cardinality eq. 11-13);
* at each node a lower bound ``P.lower`` is estimated (MIS / Lagrangian
  relaxation / LP relaxation, Section 3) and the node is pruned when
  ``P.path + P.lower >= P.upper`` (eq. 7);
* pruning learns the bound-conflict clause ``w_bc`` (Section 4) and
  backtracks non-chronologically through the ordinary conflict-analysis
  machinery;
* with LPR the fractional LP solution guides branching (Section 5).

The optimum is proven when the search exhausts (a conflict that does not
depend on any decision).
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..covering.reductions import reduce_covering
from ..engine.activity import VSIDSActivity
from ..engine.conflict import ConflictAnalyzer, RootConflictError, highest_level
from ..engine.interface import make_engine
from ..engine.pb_resolution import ResolutionScratch
from ..engine.restarts import RestartScheduler
from ..lagrangian.subgradient import LagrangianBound, SubgradientOptions
from ..lp.relaxation import LowerBound, LPRelaxationBound
from ..mis.independent_set import MISBound
from ..obs.events import (
    BackjumpEvent,
    ConflictEvent,
    CutEvent,
    DecisionEvent,
    IncumbentEvent,
    LowerBoundEvent,
    ProgressEvent,
    RestartEvent,
    ResultEvent,
    RunHeaderEvent,
)
from ..obs.timers import NULL_TIMER, PhaseTimer
from ..obs.trace import NULL_TRACER
from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .bound_conflicts import (
    bound_conflict_clause,
    infeasibility_clause,
    path_explanation,
)
from .branching import Brancher
from .cuts import CutGenerator
from .lb_schedule import make_schedule
from .options import HYBRID, LGR, LPR, MIS, PLAIN, SolverOptions
from .preprocess import probe_necessary_assignments
from .result import (
    OPTIMAL,
    SATISFIABLE,
    SolveResult,
    UNKNOWN,
    UNSATISFIABLE,
)
from .stats import SolverStats

logger = logging.getLogger("repro.bsolo")


def make_bounders(
    instance: PBInstance,
    options: SolverOptions,
    metrics=None,
) -> Tuple[Optional[MISBound], Optional[object]]:
    """Build the ``(prefilter, bounder)`` pair for ``options.lower_bound``.

    Shared between one-shot solves and incremental sessions (which
    rebuild their bounders whenever the constraint set or objective
    changes structurally).  The prefilter is non-None only for the
    ``hybrid`` method; both slots are None for ``plain`` or a constant
    objective (nothing to bound).
    """
    method = options.lower_bound
    if method == PLAIN or instance.objective.is_constant:
        return None, None
    if method == MIS:
        return None, MISBound(instance, metrics=metrics)
    if method == LGR:
        return None, LagrangianBound(
            instance,
            SubgradientOptions(max_iterations=options.lgr_iterations),
        )
    prefilter = (
        MISBound(instance, metrics=metrics) if method == HYBRID else None
    )
    return prefilter, LPRelaxationBound(
        instance,
        max_iterations=options.lp_max_iterations,
        metrics=metrics,
    )


class BsoloSolver:
    """One-shot solver for a :class:`~repro.pb.instance.PBInstance`.

    With ``session=`` (internal; see :class:`repro.incremental.SolverSession`)
    the solver runs one *call* of a persistent session instead: the
    propagation engine, VSIDS activity, restart/schedule state and the
    bounders are borrowed from the session rather than built, constraints
    are assumed to be loaded already, and the search runs entirely above
    a *guard decision level* so that no assignment ever becomes a
    permanent level-0 fact (level 0 must stay empty between calls for
    ``push``/``pop`` to be able to undo everything).  Assumptions are
    then asserted as decision levels (MiniSat style) instead of root
    assignments, which keeps learned clauses sound across calls: conflict
    analysis drops level-0 literals, so a level-0 assumption would taint
    every clause learned under it.
    """

    name = "bsolo"

    #: The façade checks this before forwarding ``assumptions=``;
    #: baselines without it raise ``UnsupportedOptionError`` instead of
    #: silently ignoring the literals.
    supports_assumptions = True

    def __init__(
        self,
        instance: PBInstance,
        options: Optional[SolverOptions] = None,
        *,
        session=None,
    ):
        self._instance = instance
        self._options = options or SolverOptions()
        self._objective = instance.objective
        self.stats = SolverStats()
        self._session = session
        #: Decision level the search can never backtrack below: 0 for
        #: one-shot solves, 1 (the guard level) for session calls.
        self._root_level = 0 if session is None else 1

        tracer = self._options.tracer
        self._tracer = tracer if tracer is not None else NULL_TRACER
        metrics = self._options.metrics
        self._metrics = (
            metrics if (metrics is not None and metrics.enabled) else None
        )
        self._m_enabled = self._metrics is not None
        #: Opt-in hotspot profiler; forces phase accounting on so its
        #: samples can be scoped to solver phases.
        self._hotspot = self._options.hotspot
        if self._options.profile or self._hotspot is not None:
            listener = (
                self._hotspot.phase_listener if self._hotspot is not None else None
            )
            self._timer = PhaseTimer(listener=listener)
        else:
            self._timer = NULL_TIMER
        if self._m_enabled:
            self._bind_metrics()
        if session is not None:
            # Borrow the session's persistent state: engine (constraints
            # pre-loaded), activity, restart/bound-schedule state and the
            # (already trail-attached) bounders survive across calls.
            self._propagator = session.propagator
            self._activity = session.activity
            self._restart_scheduler = session.restart_scheduler
            self._schedule = session.schedule
            self._prefilter = session.prefilter
            self._bounder = session.bounder
        else:
            self._propagator = make_engine(
                self._options.propagation,
                instance.num_variables,
                tracer=self._tracer if self._tracer.enabled else None,
                metrics=self._metrics,
            )
            self._activity = VSIDSActivity(
                instance.num_variables, decay=self._options.vsids_decay
            )
            self._restart_scheduler = (
                RestartScheduler(self._options.restart_interval)
                if self._options.restarts
                else None
            )
            self._prefilter = None  # set by _make_bounder for "hybrid"
            self._bounder = self._make_bounder()
            self._schedule = make_schedule(self._options)
        # One analyzer per solver: its flat seen-buffer is reused across
        # every conflict (sized to the trail, which sessions extend by a
        # guard variable).
        self._analyzer = ConflictAnalyzer(self._propagator.trail.num_variables)
        self._resolution = ResolutionScratch(self._propagator.trail.num_variables)
        self._brancher = Brancher(
            self._activity,
            lp_guided=self._options.lp_guided_branching
            and self._options.lower_bound == LPR,
            phase_saving=self._options.phase_saving,
        )
        self._cut_generator = CutGenerator(
            instance, cardinality_cuts=self._options.cardinality_cuts
        )
        if session is None and self._options.incremental_bounds:
            # Feed trail deltas to the bounders that can exploit them
            # (the incremental MIS cache; the LP bound is always cold).
            for bounder in (self._prefilter, self._bounder):
                if bounder is not None and hasattr(bounder, "attach_trail"):
                    bounder.attach_trail(self._propagator.trail)
        self._cut_constraints: List[Constraint] = []
        self._lp_values: Dict[int, float] = {}

        # Internal bounds live on the *path-cost scale* (objective offset
        # excluded); results add the offset back.
        self._upper = self._objective.max_value + 1
        self._best_assignment: Optional[Dict[int, int]] = None
        #: Cheapest cost imported through ``set_upper_bound`` /
        #: ``external_bound`` (offset included); the witnessing model is
        #: held by whoever published the bound, not by this solver.
        self._external_cost: Optional[int] = None
        #: Proof logger (:class:`repro.certify.ProofLogger`) or None.
        #: Under proof every learned constraint, cut and bound prune is
        #: recorded with a certificate the logger self-checks first; a
        #: prune whose certificate fails is declined (sound — the search
        #: merely continues), counted in ``stats.uncertified_prunes``.
        self._proof = self._options.proof
        self._cooperative = (
            self._options.should_stop is not None
            or self._options.external_bound is not None
        )
        self._poll_countdown = self._options.poll_interval
        self._deadline: Optional[float] = None
        self._assumptions: List[int] = []
        #: Literals bound ahead of time through ``set_assumptions`` (the
        #: registry path); used when ``solve()`` gets none of its own.
        self._preset_assumptions: Optional[List[int]] = None
        #: Session calls: assumption prefix responsible for an
        #: UNSATISFIABLE outcome (an unminimized core).
        self._assumption_core: Optional[Tuple[int, ...]] = None
        #: Most recent lower-bound estimate (path + bound), for progress.
        self._last_lower: Optional[int] = None
        #: Which bounder produced the last bound (trace attribution).
        self._last_bound_method = self._options.lower_bound
        self._next_progress = self._options.progress_interval

    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        """Resolve metric instruments once, at construction time.

        Hot paths only touch the cached children behind the
        ``self._m_enabled`` guard — the same zero-cost-when-disabled
        discipline as the null tracer.
        """
        m = self._metrics
        conflicts = m.counter(
            "solver_conflicts", "Conflicts by type", labels=("type",)
        )
        self._m_conflicts_logic = conflicts.labels(type="logic")
        self._m_conflicts_bound = conflicts.labels(type="bound")
        self._m_decisions = m.counter(
            "solver_decisions", "Branching decisions"
        )
        self._m_cuts = m.counter(
            "solver_cuts", "Cutting constraints added (Section 5)"
        )
        self._m_prunings = m.counter(
            "solver_prunings", "Nodes pruned by the lower bound"
        )
        self._m_uncertified = m.counter(
            "solver_uncertified_prunes",
            "Prunes declined because no certificate could be logged",
        )
        self._m_incumbents = m.counter(
            "solver_incumbents", "Improving solutions found"
        )
        self._m_restarts = m.counter("solver_restarts", "Restarts performed")
        self._m_lb_seconds = m.histogram(
            "solver_lower_bound_seconds",
            "Wall time of one lower-bound estimation",
            labels=("method",),
        )

    # ------------------------------------------------------------------
    def _make_bounder(self):
        self._prefilter, bounder = make_bounders(
            self._instance, self._options, metrics=self._metrics
        )
        return bounder

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, assumptions: Optional[Sequence[int]] = None) -> SolveResult:
        """Run the search to completion or until a budget expires.

        ``assumptions`` are literals asserted at the root before search:
        the result is then relative to the instance *plus* those facts
        (an UNSATISFIABLE outcome means "unsatisfiable under the
        assumptions").
        """
        start = time.monotonic()
        if assumptions is None:
            assumptions = self._preset_assumptions
        self._assumptions = list(assumptions or [])
        if self._options.time_limit is not None:
            self._deadline = start + self._options.time_limit
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                RunHeaderEvent(
                    solver=self.name,
                    instance=getattr(tracer, "instance_label", ""),
                    options=self._options.describe(),
                )
            )
        if self._hotspot is not None:
            self._hotspot.start()
        try:
            result = self._search()
            self._finalize_proof(result)
        finally:
            if self._hotspot is not None:
                self._hotspot.stop()
            self.stats.elapsed = time.monotonic() - start
            self.stats.phase_times = self._timer.snapshot()
            self._collect_lb_stats()
        if tracer.enabled:
            tracer.emit(
                ResultEvent(
                    status=result.status,
                    cost=result.best_cost,
                    decisions=self.stats.decisions,
                    conflicts=self.stats.conflicts,
                )
            )
            tracer.flush()
        logger.debug("solve finished: %r (%s)", result, self.stats)
        return result

    def set_assumptions(self, literals: Sequence[int]) -> None:
        """Bind assumption literals ahead of :meth:`solve` — the registry
        constructors' first-class ``assumptions=`` path.  A later
        ``solve(assumptions=...)`` call overrides the preset."""
        self._preset_assumptions = list(literals)

    def set_upper_bound(self, cost: int) -> bool:
        """Inform the search that a solution of ``cost`` (offset
        included) exists elsewhere — the portfolio incumbent protocol.

        Tightens the pruning threshold when ``cost`` beats everything
        known locally; any now-dominated local incumbent is dropped (its
        witnessing model lives with whoever published the bound).
        Returns True when the bound actually tightened.
        """
        if self._proof is not None:
            # An imported bound has no derivation the proof could replay;
            # ignoring it keeps the emitted certificate self-contained.
            return False
        path_cost = cost - self._objective.offset
        if path_cost >= self._upper:
            return False
        self._upper = path_cost
        self._external_cost = cost
        # The local incumbent's cost was the previous ``_upper``, hence
        # strictly worse than the imported solution.
        self._best_assignment = None
        self.stats.external_bounds += 1
        return True

    def _collect_lb_stats(self) -> None:
        detail: Dict[str, Dict[str, float]] = {}
        if self._prefilter is not None:
            detail["mis_prefilter"] = self._prefilter.stats_dict()
        if self._bounder is not None:
            detail[self._bounder.name] = self._bounder.stats_dict()
        if self._bounder is not None or self._prefilter is not None:
            detail["scheduler"] = self._schedule.stats_dict()
        self.stats.lb_stats = detail

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _search(self) -> SolveResult:
        self._timer.push("preprocess")
        try:
            early = self._setup_root()
        finally:
            self._timer.pop()
        if early is not None:
            return early
        return self._main_loop()

    def _setup_root(self) -> Optional[SolveResult]:
        """Load constraints, assumptions and preprocessing; a returned
        result means the search never starts (root conflict)."""
        propagator = self._propagator
        if self._session is not None:
            # Session call: constraints are already attached to the
            # persistent engine (preprocessing/covering reductions are
            # forced off by the session — both assert permanent level-0
            # facts, which must not exist between calls).  Open the guard
            # level, then re-queue every constraint: the root implications
            # discovered last call were undone by the end-of-call
            # backtrack(0) and the engine's propagate is demand-driven.
            for literal in self._assumptions:
                var = literal if literal > 0 else -literal
                if var > self._instance.num_variables or var < 1:
                    raise ValueError("assumption literal %d out of range" % literal)
            propagator.decide(self._session.guard_var)
            propagator.reschedule_all()
            return None
        proof = self._proof
        if proof is not None:
            proof.start(self._instance)
        forced_literals: List[int] = []
        dropped_indices = set()
        if (
            self._options.covering_reductions
            # dominance/pure-polarity reductions preserve *some* optimum
            # but are not implied constraints, so no proof step exists
            # for them: proof mode runs without covering reductions
            and proof is None
            and self._instance.is_covering
            # dominance/pure-polarity keep only *some* optimal solution,
            # which user assumptions might exclude: skip them then
            and not self._assumptions
        ):
            reduction = reduce_covering(self._instance)
            if reduction.conflict:
                return self._finish()
            forced_literals = reduction.forced_literals
            dropped_indices = reduction.dropped_indices
        for index, constraint in enumerate(self._instance.constraints):
            if index in dropped_indices:
                continue  # subsumed clause (covering reduction)
            conflict = propagator.add_constraint(constraint)
            if conflict is not None:  # pragma: no cover - instance rejects these
                return self._finish()
        if propagator.propagate() is not None:
            return self._finish()
        for literal in self._assumptions:
            var = literal if literal > 0 else -literal
            if var > self._instance.num_variables or var < 1:
                raise ValueError("assumption literal %d out of range" % literal)
            if proof is not None:
                # Logged before asserting so a root conflict among the
                # assumptions is already visible to the checker; the
                # final claim becomes conditional on these axioms.
                proof.log_assumption(literal)
            if propagator.trail.is_assigned(var):
                if not propagator.trail.literal_is_true(literal):
                    return self._finish()
                continue
            propagator.assume(literal)
            if propagator.propagate() is not None:
                return self._finish()
        for literal in forced_literals:
            var = literal if literal > 0 else -literal
            if propagator.trail.is_assigned(var):
                if not propagator.trail.literal_is_true(literal):
                    return self._finish()  # assumption contradicts reduction
                continue
            propagator.assume(literal)
            if propagator.propagate() is not None:
                return self._finish()  # assumption-induced conflict

        if self._options.preprocess:
            preprocess = probe_necessary_assignments(
                propagator,
                learn_implications=self._options.probing_implications > 0,
                max_implications=self._options.probing_implications,
            )
            self.stats.necessary_assignments = len(preprocess.necessary_literals)
            if proof is not None:
                # Each necessary literal (in discovery order) and each
                # probing implication is RUP: probing found it by unit
                # propagation, which the checker replays identically.
                for literal in preprocess.necessary_literals:
                    proof.log_rup((literal,))
            if preprocess.unsatisfiable:
                return self._finish()
            for clause in preprocess.implications:
                if proof is not None:
                    proof.log_rup(clause.literals)
                propagator.add_constraint(clause)
        return None

    def _main_loop(self) -> SolveResult:
        propagator = self._propagator
        timer = self._timer
        tracer = self._tracer
        profiling = timer.enabled
        while True:
            if self._budget_exhausted():
                return self._timeout()
            if self._cooperative:
                self._poll_countdown -= 1
                if self._poll_countdown <= 0:
                    self._poll_countdown = self._options.poll_interval
                    outcome = self._poll_cooperative()
                    if outcome is not None:
                        return outcome

            if profiling:
                timer.push("propagate")
            conflict = propagator.propagate()
            if profiling:
                timer.pop()
            if conflict is not None:
                self.stats.logic_conflicts += 1
                self.stats.propagations = propagator.num_propagations
                if self._m_enabled:
                    self._m_conflicts_logic.inc()
                if tracer.enabled:
                    tracer.emit(
                        ConflictEvent(
                            type="logic", level=propagator.trail.decision_level
                        )
                    )
                source = conflict.stored.constraint if conflict.stored else None
                if profiling:
                    timer.push("analyze")
                resolved = self._resolve(conflict.literals, source)
                if profiling:
                    timer.pop()
                self._maybe_progress()
                if not resolved:
                    return self._finish()
                self._maybe_reduce_learned()
                if (
                    self._restart_scheduler is not None
                    and self._restart_scheduler.on_conflict()
                    and propagator.trail.decision_level > self._root_level
                ):
                    self.stats.restarts += 1
                    if self._m_enabled:
                        self._m_restarts.inc()
                    if tracer.enabled:
                        tracer.emit(RestartEvent(conflicts=self.stats.conflicts))
                    # Session calls restart to the guard level, never to 0.
                    propagator.backtrack(self._root_level)
                continue

            if self._session is not None and self._assumptions:
                # Assumptions-as-decision-levels: assert the next pending
                # assumption before branching (and before treating a full
                # trail as a solution — a falsified assumption ends the
                # call).  Whenever an assumption is still unassigned there
                # are no free decisions above it, so a false assumption
                # literal is *entailed* false by the database plus the
                # earlier assumptions: the prefix up to and including it
                # is a valid (unminimized) core.
                pending = None
                trail = propagator.trail
                for position, literal in enumerate(self._assumptions):
                    if trail.literal_is_true(literal):
                        continue
                    if trail.literal_is_false(literal):
                        self._assumption_core = tuple(
                            self._assumptions[: position + 1]
                        )
                        return self._finish()
                    pending = literal
                    break
                if pending is not None:
                    propagator.decide(pending)
                    continue

            if propagator.trail.all_assigned():
                outcome = self._on_solution()
                if outcome is not None:
                    return outcome
                continue

            if self._bounder is not None and self._should_bound():
                bound_start = time.monotonic()
                pruned, exhausted = self._apply_lower_bound()
                bound_seconds = time.monotonic() - bound_start
                self._schedule.record(
                    pruned, bound_seconds, self._last_bound_method
                )
                if self._m_enabled:
                    self._m_lb_seconds.labels(
                        method=self._last_bound_method
                    ).observe(bound_seconds)
                if pruned:
                    self._maybe_progress()
                if exhausted:
                    return self._finish()
                if pruned:
                    continue

            if profiling:
                timer.push("branching")
            literal = self._brancher.pick(propagator.trail, self._lp_values)
            if profiling:
                timer.pop()
            if literal is None:  # pragma: no cover - all_assigned handles this
                return self._finish()
            self.stats.decisions += 1
            if self._m_enabled:
                self._m_decisions.inc()
            if (
                self._options.max_decisions is not None
                and self.stats.decisions > self._options.max_decisions
            ):
                return self._timeout()
            if tracer.enabled:
                tracer.emit(
                    DecisionEvent(
                        literal=literal,
                        level=propagator.trail.decision_level + 1,
                    )
                )
            propagator.decide(literal)

    # ------------------------------------------------------------------
    # Cooperative hooks (portfolio protocol)
    # ------------------------------------------------------------------
    def _poll_cooperative(self) -> Optional[SolveResult]:
        """Check the interrupt and bound-import hooks; a returned result
        ends the search (stop requested, or the imported bound proved
        the remaining search space empty)."""
        options = self._options
        if options.should_stop is not None and options.should_stop():
            self.stats.interrupted = True
            return self._timeout()
        if options.external_bound is not None and not self._objective.is_constant:
            cost = options.external_bound()
            if cost is not None:
                return self._import_bound(cost)
        return None

    def _import_bound(self, cost: int) -> Optional[SolveResult]:
        """Apply an externally published incumbent cost mid-search.

        Beyond tightening ``P.upper`` this generates the Section 5 cuts
        from the imported bound, exactly as a locally found solution
        would — the imported incumbent prunes through propagation, not
        just through the bound comparison.
        """
        if not self.set_upper_bound(cost):
            return None
        if self._options.upper_bound_cuts:
            self._timer.push("cuts")
            cuts, proven = self._cut_generator.cuts_for(self._upper)
            self._timer.pop()
            if proven:
                return self._finish()
            for cut in cuts:
                conflict = self._propagator.add_constraint(cut)
                self.stats.cuts_added += 1
                if self._m_enabled:
                    self._m_cuts.inc()
                if self._tracer.enabled:
                    self._tracer.emit(CutEvent(size=len(cut)))
                if conflict is not None and not self._resolve(
                    conflict.literals,
                    conflict.stored.constraint if conflict.stored else None,
                ):
                    return self._finish()
            self._cut_constraints = list(cuts)
        return None

    # ------------------------------------------------------------------
    # Periodic progress (callback + trace heartbeat)
    # ------------------------------------------------------------------
    def _maybe_progress(self) -> None:
        """Fire ``on_progress``/emit a progress event every N conflicts."""
        if self.stats.conflicts < self._next_progress:
            return
        self._next_progress = self.stats.conflicts + self._options.progress_interval
        self.stats.progress_reports += 1
        best = (
            self._upper + self._objective.offset
            if self._best_assignment is not None
            else None
        )
        if self._options.on_progress is not None:
            self._options.on_progress(self.stats, best, self._last_lower)
        if self._tracer.enabled:
            self._tracer.emit(
                ProgressEvent(
                    conflicts=self.stats.conflicts,
                    decisions=self.stats.decisions,
                    best=best,
                    lower=self._last_lower,
                )
            )

    # ------------------------------------------------------------------
    # Lower bounding (Sections 3-4)
    # ------------------------------------------------------------------
    def _should_bound(self) -> bool:
        return self._schedule.should_bound()

    def _apply_lower_bound(self) -> Tuple[bool, bool]:
        """Estimate ``P.lower``; prune on a bound conflict.

        Returns ``(pruned, search_exhausted)``.
        """
        trail = self._propagator.trail
        timer = self._timer
        tracer = self._tracer
        fixed = trail.assignment()
        path = self._objective.path_cost(fixed)
        bound = self._compute_bound(fixed, path)
        self.stats.lower_bound_calls += 1

        if bound.infeasible:
            clause = infeasibility_clause(
                self._instance, trail, self._cut_constraints
            )
            if not self._certify_infeasibility(clause):
                self.stats.uncertified_prunes += 1
                if self._m_enabled:
                    self._m_uncertified.inc()
                return False, False
            self.stats.bound_conflicts += 1
            if self._m_enabled:
                self._m_conflicts_bound.inc()
            if tracer.enabled:
                tracer.emit(
                    LowerBoundEvent(
                        method=self._last_bound_method,
                        value=0,
                        path=path,
                        level=trail.decision_level,
                        infeasible=True,
                        pruned=True,
                    )
                )
                tracer.emit(
                    ConflictEvent(type="bound", level=trail.decision_level)
                )
            timer.push("analyze")
            resolved = self._resolve(clause)
            timer.pop()
            return True, not resolved

        if bound.fractional:
            self._lp_values = bound.fractional
        self._last_lower = path + bound.value

        pruned = path + bound.value >= self._upper
        if tracer.enabled:
            tracer.emit(
                LowerBoundEvent(
                    method=self._last_bound_method,
                    value=bound.value,
                    path=path,
                    level=trail.decision_level,
                    pruned=pruned,
                )
            )
        if pruned:
            if self._options.bound_conflict_learning:
                alpha = self._alpha_refinement(bound, fixed)
                clause = bound_conflict_clause(
                    self._objective, trail, bound.explanation, alpha
                )
                bound_clause: Optional[Tuple[int, ...]] = clause
            else:
                # Chronological variant: blame every decision on the path.
                clause = tuple(
                    -trail.decision_at(level)
                    for level in range(1, trail.decision_level + 1)
                )
                # The decisions clause is certified through w_bc: once
                # the bound clause is in the proof database, asserting
                # all decisions replays the trail and violates it.
                bound_clause = (
                    bound_conflict_clause(
                        self._objective, trail, bound.explanation, None
                    )
                    if self._proof is not None
                    else None
                )
            if not self._certify_bound_clause(bound_clause, bound, clause):
                self.stats.uncertified_prunes += 1
                if self._m_enabled:
                    self._m_uncertified.inc()
                return False, False
            self.stats.bound_conflicts += 1
            self.stats.prunings += 1
            if self._m_enabled:
                self._m_conflicts_bound.inc()
                self._m_prunings.inc()
            if tracer.enabled:
                tracer.emit(
                    ConflictEvent(type="bound", level=trail.decision_level)
                )
            timer.push("analyze")
            resolved = self._resolve(clause)
            timer.pop()
            return True, not resolved
        return False, False

    # ------------------------------------------------------------------
    # Proof-mode certificates (see repro.certify)
    # ------------------------------------------------------------------
    def _certify_infeasibility(self, clause: Tuple[int, ...]) -> bool:
        """Log a single-constraint witness for an infeasible relaxation.

        Some constraint must be unsatisfiable under the current partial
        assignment for the clause to be implied with multiplier 1; LP
        phase-1 infeasibility without such a witness cannot be certified
        and the prune is declined.  Always True outside proof mode.
        """
        proof = self._proof
        if proof is None:
            return True
        trail = self._propagator.trail
        with self._timer.phase("proof"):
            for constraint in (
                list(self._instance.constraints) + self._cut_constraints
            ):
                supply = sum(
                    coef
                    for coef, lit in constraint.terms
                    if not trail.literal_is_false(lit)
                )
                if supply < constraint.rhs and proof.log_infeasibility(
                    clause, constraint
                ):
                    return True
        return False

    def _certify_bound_clause(
        self,
        bound_clause: Optional[Tuple[int, ...]],
        bound: LowerBound,
        clause: Tuple[int, ...],
    ) -> bool:
        """Log a lower-bound certificate for ``bound_clause`` (w_bc) and,
        when the learned ``clause`` differs (chronological mode), the
        RUP step deriving it.  True means the prune may proceed; always
        True outside proof mode."""
        proof = self._proof
        if proof is None:
            return True
        with self._timer.phase("proof"):
            if self._last_bound_method == "mis":
                trail = self._propagator.trail
                path_vars = [
                    var
                    for var, cost in self._objective.costs.items()
                    if cost > 0 and trail.value(var) == 1
                ]
                logged = proof.log_bound_mis(
                    bound_clause, path_vars, bound.explanation
                )
            else:
                logged = proof.log_bound_linear(
                    bound_clause, list(bound.duals_by_row.items())
                )
            if not logged:
                return False
            if tuple(clause) != tuple(bound_clause):
                proof.log_rup(clause)
        return True

    def _compute_bound(self, fixed: Dict[int, int], path: int) -> LowerBound:
        timer = self._timer
        if self._prefilter is not None and self._schedule.use_prefilter():
            # hybrid mode: if the cheap MIS bound already prunes (or
            # detects infeasibility), skip the LP entirely.  The adaptive
            # schedule benches the pre-filter while its payoff is
            # negligible, escalating straight to the LP.
            timer.push("lower_bound.mis")
            cheap = self._prefilter.compute(fixed, self._cut_constraints)
            timer.pop()
            if cheap.infeasible or path + cheap.value >= self._upper:
                self._last_bound_method = "mis"
                return cheap
        self._last_bound_method = self._bounder.name
        timer.push("lower_bound." + self._bounder.name)
        try:
            if isinstance(self._bounder, LagrangianBound):
                target = max(float(self._upper - path), 1.0)
                return self._bounder.compute(
                    fixed, self._cut_constraints, upper_target=target
                )
            return self._bounder.compute(fixed, self._cut_constraints)
        finally:
            timer.pop()

    def _alpha_refinement(
        self, bound: LowerBound, fixed: Dict[int, int]
    ) -> Optional[Dict[int, float]]:
        if not (
            self._options.lgr_alpha_refinement
            and isinstance(self._bounder, LagrangianBound)
            and bound.duals_by_row
        ):
            return None
        return self._bounder.alpha_of_assigned(fixed, bound.duals_by_row)

    # ------------------------------------------------------------------
    # Solutions and cuts (Section 5)
    # ------------------------------------------------------------------
    def _on_solution(self) -> Optional[SolveResult]:
        assignment = self._propagator.model()
        if self._session is not None:
            # The guard variable is search scaffolding, not part of the
            # instance: results, callbacks and cuts see real variables.
            assignment.pop(self._session.guard_var, None)
        cost = self._objective.path_cost(assignment)
        self.stats.solutions_found += 1
        improved = cost < self._upper
        if improved:
            if self._proof is not None:
                # The 'o' step doubles as the derivation of the eq. 10
                # improvement axiom the later steps build on.
                self._proof.log_solution(
                    [
                        var if value else -var
                        for var, value in sorted(assignment.items())
                    ]
                )
            # Without the eq. 10 cut the search can reach non-improving
            # solutions; the incumbent only ever tightens.
            self._best_assignment = dict(assignment)
            self._upper = cost
            reported = cost + self._objective.offset
            if self._m_enabled:
                self._m_incumbents.inc()
            logger.debug("new incumbent: cost %d", reported)
            if self._tracer.enabled:
                self._tracer.emit(
                    IncumbentEvent(
                        cost=reported,
                        decisions=self.stats.decisions,
                        conflicts=self.stats.conflicts,
                    )
                )
            if self._options.on_incumbent is not None:
                self._options.on_incumbent(reported, dict(assignment))

        if self._objective.is_constant:
            return SolveResult(
                SATISFIABLE,
                best_cost=self._objective.offset,
                best_assignment=self._best_assignment,
                stats=self.stats,
                solver_name=self.name,
            )

        if self._session is not None:
            # Everything learned from here on depends on the incumbent
            # (eq. 10/11-13 cuts, w_pp, and every clause resolved against
            # them) and is therefore solve-local: the session snapshots
            # the currently retainable learned set and discards the rest
            # at end of call.  Constraints learned *before* the first
            # solution are implied by the instance plus the active frames
            # (no incumbent-dependent constraint existed yet) and may be
            # kept across calls.
            self._session.on_solve_local(self._propagator)

        if improved and self._options.upper_bound_cuts:
            proof = self._proof
            self._timer.push("cuts")
            knapsack = self._cut_generator.knapsack_cut(self._upper)
            pairs, proven_source = (
                self._cut_generator.cardinality_cuts_with_sources(self._upper)
            )
            self._timer.pop()
            if proven_source is not None:
                # Eq. 12's V alone reaches the bound: incumbent optimal.
                # Under proof the unsatisfiable eq. 13 cut is the
                # certificate (it contradicts the checker's database).
                if proof is None or proof.log_proven_cut(proven_source):
                    return self._finish()
                self.stats.uncertified_prunes += 1
                if self._m_enabled:
                    self._m_uncertified.inc()
            # The knapsack cut (eq. 10) IS the improvement axiom the 'o'
            # step derived, so it needs no proof step of its own.
            cuts = [] if knapsack is None else [knapsack]
            for cut, source in pairs:
                if proof is not None and not proof.log_cardinality_cut(
                    source, cut
                ):
                    continue  # uncertifiable cut: skip rather than trust
                cuts.append(cut)
            for cut in cuts:
                # Session calls flag cuts as learned so the end-of-call
                # cleanup can delete them (they are incumbent-relative).
                self._propagator.add_constraint(
                    cut, learned=self._session is not None
                )
                self.stats.cuts_added += 1
                if self._m_enabled:
                    self._m_cuts.inc()
                if self._tracer.enabled:
                    self._tracer.emit(CutEvent(size=len(cut)))
            # For the relaxations, each new solution's cuts dominate the
            # previous round's (smaller rhs, same support): replace rather
            # than accumulate, keeping the LPs small.
            self._cut_constraints = list(cuts)

        # The solution node itself is now bound-conflicting
        # (path >= upper): learn w_pp and continue the search.
        clause = tuple(path_explanation(self._objective, self._propagator.trail))
        if self._proof is not None:
            # RUP: negating w_pp sets every costed path variable to 1,
            # which violates the current improvement axiom.
            self._proof.log_rup(clause)
        if not self._resolve(clause):
            return self._finish()
        return None

    # ------------------------------------------------------------------
    # Conflict resolution (logic conflicts and bound conflicts alike)
    # ------------------------------------------------------------------
    def _resolve(
        self,
        literals: Sequence[int],
        conflict_constraint: Optional[Constraint] = None,
    ) -> bool:
        """Learn from a set of false literals; False = search exhausted."""
        trail = self._propagator.trail
        if not literals:
            return False
        level = highest_level(literals, trail)
        if level <= self._root_level:
            # One-shot solves: a level-0 conflict means the search space
            # is exhausted.  Session calls: level 0 is empty and the
            # guard variable appears in no constraint, so every guard
            # level implication is entailed by the database alone — a
            # conflict entirely at the guard level is a database-level
            # contradiction, exhausted all the same.
            return False
        if level < trail.decision_level:
            # Bound-conflict clauses may not touch the deepest levels:
            # rewind to the highest responsible level first (Section 4.1).
            self._propagator.backtrack(level)
        try:
            analysis = self._analyzer.analyze(literals, trail)
        except RootConflictError:
            return False
        proof = self._proof
        resolvent = None
        resolution_trace: Optional[List[Tuple]] = None
        if self._options.pb_learning and conflict_constraint is not None:
            # must run before the backjump pops the antecedents
            resolution_trace = [] if proof is not None else None
            resolvent = self._resolution.derive(
                conflict_constraint,
                analysis.resolved_variables,
                self._propagator.antecedent,
                resolution_trace,
            )
        self._activity.bump_all(analysis.seen_variables)
        self._activity.decay()
        self.stats.record_backjump(level, analysis.backtrack_level)
        self.stats.resolution_steps += analysis.resolution_steps
        if self._tracer.enabled:
            self._tracer.emit(
                BackjumpEvent(
                    from_level=level,
                    to_level=analysis.backtrack_level,
                    learned_size=len(analysis.learned_literals),
                )
            )
        # Session calls clamp the backjump to the guard level: asserting
        # literals then land at level 1 (implied by the learned clause)
        # instead of becoming permanent level-0 facts that pop() could
        # never undo.  The conflict level is > root_level here, so the
        # asserting literal is always unassigned after the backjump.
        self._propagator.backtrack(
            max(analysis.backtrack_level, self._root_level)
        )
        learned = Constraint.clause(analysis.learned_literals)
        if proof is not None:
            # First-UIP clauses are RUP against the proof database: the
            # checker's propagation has the same strength as the engine's
            # and every constraint the analysis touched is in the log.
            with self._timer.phase("proof"):
                proof.log_rup(analysis.learned_literals)
        conflict = self._propagator.add_constraint(learned, learned=True)
        self.stats.learned_constraints += 1
        if conflict is not None:  # pragma: no cover - learned clause asserts
            return self._resolve(conflict.literals)
        if analysis.asserting_literal is not None:
            self._propagator.imply(
                analysis.asserting_literal, analysis.learned_literals
            )
        if resolvent is not None and proof is not None:
            with self._timer.phase("proof"):
                logged_resolvent = proof.log_resolvent(
                    conflict_constraint, resolution_trace, resolvent
                )
        else:
            logged_resolvent = True
        if resolvent is not None and proof is not None and not logged_resolvent:
            # The checker-side replay disagreed with the engine's
            # derivation: drop the resolvent instead of learning an
            # unprovable constraint (the clausal learner above suffices).
            resolvent = None
        if resolvent is not None:
            conflict = self._propagator.add_constraint(resolvent, learned=True)
            self.stats.learned_constraints += 1
            self.stats.pb_resolvents += 1
            if conflict is not None:
                return self._resolve(
                    conflict.literals,
                    conflict.stored.constraint if conflict.stored else None,
                )
        return True

    def _maybe_reduce_learned(self) -> None:
        """Forget old, long learned clauses above the configured cap."""
        limit = self._options.max_learned
        if limit is None:
            return
        database = self._propagator.database
        if database.num_learned() <= limit:
            return
        indices = sorted(
            stored.index
            for stored in database.constraints
            if stored.learned and len(stored.constraint) > 2
        )
        if not indices:
            return
        cutoff = indices[len(indices) // 2]
        # Session frame constraints ride in the database as learned (so
        # pop() can delete them) but must never be garbage-collected.
        protected = (
            self._session.protected_ids if self._session is not None else None
        )
        self._propagator.reduce_learned(
            lambda stored: (protected is not None and id(stored) in protected)
            or len(stored.constraint) <= 2
            or stored.index > cutoff
        )

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        if (
            self._options.max_conflicts is not None
            and self.stats.conflicts > self._options.max_conflicts
        ):
            return True
        return False

    def _finalize_proof(self, result: SolveResult) -> None:
        """Emit the contradiction and final-claim steps, then flush.

        OPTIMAL and UNSATISFIABLE both rest on the proof database now
        propagating to a root conflict (for OPTIMAL, under the incumbent
        improvement axiom); SATISFIABLE rests on the verified incumbent
        alone, and a budget/interrupt exit claims nothing.
        """
        proof = self._proof
        if proof is None:
            return
        with self._timer.phase("proof"):
            if result.status == OPTIMAL:
                proof.log_contradiction()
                proof.log_end("optimal", result.best_cost)
            elif result.status == SATISFIABLE:
                proof.log_end("satisfiable", result.best_cost)
            elif result.status == UNSATISFIABLE:
                proof.log_contradiction()
                proof.log_end("unsatisfiable")
            else:
                proof.log_end("unknown")
            proof.close()

    def _finish(self) -> SolveResult:
        if self._best_assignment is not None:
            status = SATISFIABLE if self._objective.is_constant else OPTIMAL
            return SolveResult(
                status,
                best_cost=self._upper + self._objective.offset,
                best_assignment=self._best_assignment,
                stats=self.stats,
                solver_name=self.name,
            )
        if self._external_cost is not None:
            # The search ruled out every solution cheaper than the
            # imported incumbent: that incumbent — held by another
            # portfolio worker — is optimal.
            return SolveResult(
                OPTIMAL,
                best_cost=self._external_cost,
                stats=self.stats,
                solver_name=self.name,
            )
        core: Optional[Tuple[int, ...]] = None
        if self._session is not None:
            # A falsified assumption yields its prefix as the core; pure
            # exhaustion happened at the guard level, i.e. independent of
            # the assumptions: the empty core.
            core = (
                self._assumption_core
                if self._assumption_core is not None
                else ()
            )
        return SolveResult(
            UNSATISFIABLE, stats=self.stats, solver_name=self.name, core=core
        )

    def _timeout(self) -> SolveResult:
        if self._best_assignment is not None:
            best_cost = self._upper + self._objective.offset
        else:
            best_cost = self._external_cost
        return SolveResult(
            UNKNOWN,
            best_cost=best_cost,
            best_assignment=self._best_assignment,
            stats=self.stats,
            solver_name=self.name,
        )


def solve(instance: PBInstance, options: Optional[SolverOptions] = None) -> SolveResult:
    """Convenience wrapper: build a solver and run it."""
    return BsoloSolver(instance, options).solve()
