"""Linear-programming relaxation lower bounding (paper Sections 3.1, 4.2).

``z*_lpr <= z*_cp``: the LP optimum over ``0 <= x <= 1`` bounds the PB
optimum from below, and since the PB optimum is integral the bound can be
rounded up.  Besides the bound value, this module extracts

* the *fractional* LP values, which drive the paper's branching rule
  (Section 5: branch on the variable closest to 0.5), and
* the set ``S`` of tight constraints (zero LP slack), whose currently
  false literals form the explanation ``w_pl`` of a bound conflict
  (Section 4.2, eq. 9).

The bound is solved cold at every search node: the relaxation of the
sub-problem is rebuilt by :func:`~repro.lp.standard_form.build_lp_data`
(satisfied rows dropped, fixed variables substituted out) and handed to
a fresh two-phase :class:`~repro.lp.simplex.SimplexSolver`.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional, Sequence

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .simplex import INFEASIBLE, OPTIMAL, SimplexSolver
from .standard_form import build_lp_data
from .tolerances import TIGHT_TOL, ceil_guarded


class LowerBound:
    """A lower bound on the cost of completing the current assignment."""

    __slots__ = ("value", "infeasible", "explanation", "fractional", "duals_by_row", "iterations")

    def __init__(
        self,
        value: int,
        infeasible: bool = False,
        explanation: Sequence[Constraint] = (),
        fractional: Optional[Mapping[int, float]] = None,
        duals_by_row: Optional[Mapping[Constraint, float]] = None,
        iterations: int = 0,
    ):
        #: ``P.lower``: integer lower bound on the *remaining* cost.
        self.value = value
        #: True when the relaxation itself is infeasible.
        self.infeasible = infeasible
        #: Constraints responsible for the bound (the paper's set ``S``).
        self.explanation = list(explanation)
        #: LP value per free variable (only meaningful for LPR).
        self.fractional: Dict[int, float] = dict(fractional or {})
        #: Dual value per binding constraint (warm start for Lagrangian).
        self.duals_by_row: Dict[Constraint, float] = dict(duals_by_row or {})
        #: Work spent (simplex or subgradient iterations).
        self.iterations = iterations

    def __repr__(self) -> str:
        if self.infeasible:
            return "LowerBound(infeasible)"
        return "LowerBound(%d)" % self.value


def integer_ceil_bound(lp_objective: float) -> int:
    """Round an LP bound *up* to the next integer, guarding float noise."""
    return ceil_guarded(lp_objective)


class LPRelaxationBound:
    """Lower bound estimation via linear-programming relaxation."""

    name = "lpr"

    def __init__(
        self,
        instance: PBInstance,
        max_iterations: int = 20000,
        tight_tol: float = TIGHT_TOL,
        metrics=None,
    ):
        self._instance = instance
        self._max_iterations = max_iterations
        self._tight_tol = tight_tol
        self.num_calls = 0
        self.total_iterations = 0
        self.total_batch_pivots = 0
        self.total_seconds = 0.0
        # Metrics (optional): pivot counters resolved once, fed with the
        # per-call deltas after each compute.
        live = metrics if (metrics is not None and metrics.enabled) else None
        self._m_pivots = (
            live.counter("lp_pivots", "Simplex pivots performed by the LP bounder")
            if live is not None
            else None
        )
        self._m_batch_pivots = (
            live.counter(
                "lp_batch_pivots",
                "Simplex pivots applied via the batched array kernels",
            )
            if live is not None
            else None
        )

    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, float]:
        """Structured per-bounder stats (merged into ``SolverStats``)."""
        return {
            "calls": self.num_calls,
            "iterations": self.total_iterations,
            "batch_pivots": self.total_batch_pivots,
            "seconds": round(self.total_seconds, 6),
        }

    def compute(
        self,
        fixed: Mapping[int, int],
        extra_constraints: Sequence[Constraint] = (),
    ) -> LowerBound:
        """``P.lower`` for the sub-problem under the partial assignment.

        ``extra_constraints`` lets the solver include learned knapsack
        cuts in the relaxation (Section 5) without mutating the instance.
        """
        started = time.perf_counter()
        iterations_before = self.total_iterations
        batch_before = self.total_batch_pivots
        self.num_calls += 1
        try:
            return self._compute_cold(fixed, extra_constraints)
        finally:
            self.total_seconds += time.perf_counter() - started
            if self._m_pivots is not None:
                delta = self.total_iterations - iterations_before
                if delta:
                    self._m_pivots.inc(delta)
                batch_delta = self.total_batch_pivots - batch_before
                if batch_delta and self._m_batch_pivots is not None:
                    self._m_batch_pivots.inc(batch_delta)

    def _compute_cold(
        self,
        fixed: Mapping[int, int],
        extra_constraints: Sequence[Constraint] = (),
    ) -> LowerBound:
        """Build the node's reduced relaxation and solve it from scratch."""
        data = build_lp_data(self._instance, fixed, extra_constraints)
        if data is None:
            return LowerBound(0, infeasible=True)
        if data.num_rows == 0:
            # Nothing left to satisfy: remaining cost is simply 0.
            return LowerBound(0)
        solver = SimplexSolver(
            data.c, data.A, data.b, data.senses,
            upper=[1.0] * data.num_columns,
            max_iterations=self._max_iterations,
        )
        result = solver.solve()
        self.total_iterations += result.iterations
        self.total_batch_pivots += solver.batch_pivots
        if result.status == INFEASIBLE:
            return LowerBound(0, infeasible=True, iterations=result.iterations)
        if result.status != OPTIMAL:
            # Iteration limit: fall back to the trivial bound 0 (sound).
            return LowerBound(0, iterations=result.iterations)
        value = integer_ceil_bound(result.objective)
        tight = result.tight_rows(self._tight_tol)
        explanation = [data.rows[i] for i in tight]
        duals_by_row = {
            data.rows[i]: float(result.duals[i])
            for i in range(data.num_rows)
            if i < len(result.duals)
        }
        fractional = {
            data.columns[j]: float(result.x[j]) for j in range(data.num_columns)
        }
        return LowerBound(
            value,
            explanation=explanation,
            fractional=fractional,
            duals_by_row=duals_by_row,
            iterations=result.iterations,
        )


def root_lpr_bound(
    instance: PBInstance, bounder: Optional[LPRelaxationBound] = None
) -> int:
    """LPR bound of the whole instance (no assignments): ``ceil(z*_lpr)``.

    Pass a pre-built ``bounder`` to have the call counted in its stats.
    """
    if bounder is None:
        bounder = LPRelaxationBound(instance)
    return bounder.compute({}).value
