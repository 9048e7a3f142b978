"""Bounded-variable two-phase revised simplex (dense, from scratch).

Solves::

    minimize    c . x
    subject to  A x  {>=, <=, =}  b     (row-wise senses)
                0 <= x_j <= u_j         (u_j may be +inf)

This is the LP substrate behind the paper's linear-programming relaxation
lower bound (Section 3.1): relaxing ``x in {0,1}`` to ``0 <= x <= 1``.

Implementation notes
--------------------
* Surplus/slack columns turn every row into an equality; phase 1 adds one
  artificial column per row and minimizes their sum.  In phase 2 the
  artificials stay in the tableau *locked to the range [0, 0]* — the
  bounded ratio test then keeps them at zero and kicks them out of the
  basis on contact, which sidesteps the classical drive-out procedure.
* The basis inverse is maintained explicitly with product-form (eta)
  updates and refactorized periodically for numerical hygiene.
* Dantzig pricing with an automatic switch to Bland's rule after a stall,
  which guarantees termination on degenerate instances.
* Pivots are *batched array kernels*: the basis lives in an int array,
  reduced costs and basic values are maintained incrementally by rank-1
  row updates after each pivot (one ``Binv`` row times the tableau)
  instead of the full ``c_B B^-1 T`` re-price per iteration, and both
  are recomputed from scratch at every periodic refactorization so
  incremental drift cannot outlive a refactor interval (the
  ``lp_batch_pivots`` observability counter tracks these cheap pivots).

The solver reports primal values, row activities/slacks (used for the
paper's eq. 9 bound-conflict explanations) and duals (used to warm-start
the Lagrangian multipliers).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .tolerances import FEAS_TOL, TIGHT_TOL

#: Row senses.
GE = ">="
LE = "<="
EQ = "="

#: Solution statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_TOL = 1e-9
_PRIMAL_FEAS_TOL = 1e-7  # basic-value bound violation treated as zero
_STALL_LIMIT = 200  # Dantzig iterations without progress before Bland

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


class LPResult:
    """Outcome of an LP solve."""

    __slots__ = ("status", "objective", "x", "duals", "activities", "slacks", "iterations")

    def __init__(self, status, objective, x, duals, activities, slacks, iterations):
        #: One of OPTIMAL / INFEASIBLE / UNBOUNDED / ITERATION_LIMIT.
        self.status = status
        #: Optimal objective value (None unless OPTIMAL).
        self.objective = objective
        #: Structural variable values, numpy array of length n.
        self.x = x
        #: Dual value per row (y, from c_B B^-1), numpy array of length m.
        self.duals = duals
        #: Row activities ``A_i x``.
        self.activities = activities
        #: Row slacks: ``A_i x - b_i`` for >=, ``b_i - A_i x`` for <=, 0 for =.
        self.slacks = slacks
        #: Simplex iterations over both phases.
        self.iterations = iterations

    def tight_rows(self, tol: float = TIGHT_TOL) -> List[int]:
        """Indices of rows with (near-)zero slack — the binding constraints.

        These are the paper's set ``S`` (Section 4.2): the constraints that
        actually limit the relaxation value.
        """
        if self.slacks is None:
            return []
        return [i for i, s in enumerate(self.slacks) if s <= tol]

    def __repr__(self) -> str:
        return "LPResult(%s, objective=%r)" % (self.status, self.objective)


class SimplexSolver:
    """Reusable simplex solver for one LP instance."""

    def __init__(
        self,
        c: Sequence[float],
        A: Sequence[Sequence[float]],
        b: Sequence[float],
        senses: Sequence[str],
        upper: Optional[Sequence[float]] = None,
        max_iterations: int = 20000,
    ):
        self.c = np.asarray(c, dtype=float)
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            self.A = self.A.reshape((len(b), -1))
        self.b = np.asarray(b, dtype=float)
        self.senses = list(senses)
        self.n = self.c.shape[0]
        self.m = self.b.shape[0]
        if self.A.shape != (self.m, self.n):
            raise ValueError("A must be %dx%d, got %r" % (self.m, self.n, self.A.shape))
        for sense in self.senses:
            if sense not in (GE, LE, EQ):
                raise ValueError("unknown sense %r" % sense)
        if upper is None:
            upper = [math.inf] * self.n
        self.upper = np.asarray(upper, dtype=float)
        if self.upper.shape != (self.n,):
            raise ValueError("upper bounds must have length %d" % self.n)
        if np.any(self.upper < 0):
            raise ValueError("upper bounds must be non-negative")
        self.max_iterations = max_iterations
        self._iterations = 0
        #: Pivots applied through the incremental (rank-1) pricing
        #: kernels rather than a full re-price — the batched-pivot
        #: figure surfaced as the ``lp_batch_pivots`` metric.
        self.batch_pivots = 0

    # ------------------------------------------------------------------
    def solve(self) -> LPResult:
        """Run the two-phase simplex from scratch; numerically-failed
        runs degrade to an unsolved LPResult instead of raising."""
        try:
            return self._solve()
        except np.linalg.LinAlgError:
            # Total numerical breakdown: report as an iteration-limit
            # outcome; callers fall back to the trivial bound.
            return LPResult(
                ITERATION_LIMIT, None, None, None, None, None, self._iterations
            )

    # The benchmark's span table (perfbench/spans.py) still names this
    # entry point; the alias goes when that entry goes.
    warm_resolve = solve

    def _solve(self) -> LPResult:
        n, m = self.n, self.m
        # Build the extended tableau: structural | slack/surplus | artificial.
        num_slack = sum(1 for s in self.senses if s != EQ)
        total = n + num_slack + m
        T = np.zeros((m, total))
        T[:, :n] = self.A
        upper = np.full(total, math.inf)
        upper[:n] = self.upper
        col = n
        self._slack_col = [-1] * m
        for i, sense in enumerate(self.senses):
            if sense == GE:
                T[i, col] = -1.0  # surplus
                self._slack_col[i] = col
                col += 1
            elif sense == LE:
                T[i, col] = 1.0  # slack
                self._slack_col[i] = col
                col += 1
        art_start = col
        status = np.full(total, _AT_LOWER, dtype=int)

        # Crash start: put each bounded structural variable at whichever
        # bound reduces the total >=-row residual (for covering-style LPs
        # this alone reaches feasibility and phase 1 becomes a no-op).
        sense_sign = np.array(
            [1.0 if s == GE else (-1.0 if s == LE else 0.0) for s in self.senses]
        )
        score = sense_sign @ self.A
        for j in range(n):
            if score[j] > 0 and math.isfinite(self.upper[j]) and self.upper[j] > 0:
                status[j] = _AT_UPPER

        start_x = np.where(status[:n] == _AT_UPPER, self.upper, 0.0)
        residual = self.b - self.A @ start_x
        basis: List[int] = []
        needs_artificial = False
        for i, sense in enumerate(self.senses):
            slack_col = self._slack_col[i]
            slack_feasible = (
                (sense == GE and residual[i] <= 0.0)
                or (sense == LE and residual[i] >= 0.0)
            )
            if slack_feasible:
                basis.append(slack_col)
                status[slack_col] = _BASIC
                T[i, art_start + i] = 1.0  # unused artificial, kept square
            else:
                T[i, art_start + i] = 1.0 if residual[i] >= 0 else -1.0
                basis.append(art_start + i)
                status[art_start + i] = _BASIC
                needs_artificial = True

        self._T = T
        self._upper = upper
        self._status = status
        # int array: pivots index/assign it without list<->array copies
        self._basis = np.asarray(basis, dtype=np.intp)
        self._total = total
        self._iterations = 0

        if needs_artificial:
            # Phase 1: minimize the artificial sum.
            phase1_cost = np.zeros(total)
            phase1_cost[art_start:] = 1.0
            outcome = self._optimize(phase1_cost)
            if outcome == ITERATION_LIMIT:
                return self._result(ITERATION_LIMIT)
            phase1_value = self._objective_value(phase1_cost)
            if phase1_value > FEAS_TOL:
                return self._result(INFEASIBLE)
        # Phase 2: lock artificials into [0, 0] and minimize the real cost.
        self._upper[art_start:] = 0.0
        phase2_cost = np.zeros(total)
        phase2_cost[: self.n] = self.c
        outcome = self._optimize(phase2_cost)
        if outcome == UNBOUNDED:
            return self._result(UNBOUNDED)
        if outcome == ITERATION_LIMIT:
            return self._result(ITERATION_LIMIT)
        return self._result(OPTIMAL)

    # ------------------------------------------------------------------
    def _factorize(self) -> None:
        B = self._T[:, self._basis]
        try:
            self._Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            # Accumulated eta updates can drive the basis numerically
            # singular; the pseudo-inverse keeps the iteration moving and
            # the iteration limit bounds the damage.
            self._Binv = np.linalg.pinv(B)

    def _nonbasic_values(self) -> np.ndarray:
        values = np.where(self._status == _AT_UPPER, self._upper, 0.0)
        values[self._basis] = 0.0
        return values

    def _basic_values(self) -> np.ndarray:
        rhs = self.b - self._T @ self._nonbasic_values()
        return self._Binv @ rhs

    def _objective_value(self, cost: np.ndarray) -> float:
        values = np.where(self._status == _AT_UPPER, self._upper, 0.0)
        values[self._basis] = self._basic_values()
        return float(cost @ values)

    def _optimize(self, cost: np.ndarray) -> str:
        self._factorize()
        x_b = self._basic_values()
        # Full price once; every pivot below patches `reduced` with a
        # rank-1 row update (pivot row of the updated inverse times the
        # tableau) — the classic ``d -= d_j * alpha_r`` identity — so the
        # per-iteration ``c_B B^-1 T`` matmul disappears.  Refactor
        # points recompute from scratch, bounding numerical drift.
        y = cost[self._basis] @ self._Binv
        reduced = cost - y @ self._T
        stall = 0
        use_bland = False
        refactor_counter = 0
        while True:
            if self._iterations >= self.max_iterations:
                return ITERATION_LIMIT
            self._iterations += 1
            refactor_counter += 1
            if refactor_counter >= 60:
                self._factorize()
                x_b = self._basic_values()
                y = cost[self._basis] @ self._Binv
                reduced = cost - y @ self._T
                refactor_counter = 0

            entering = self._pick_entering(reduced, use_bland)
            if entering is None:
                return OPTIMAL

            direction = 1.0 if self._status[entering] == _AT_LOWER else -1.0
            entering_reduced = reduced[entering]  # pre-pivot, for the stall test
            w = self._Binv @ self._T[:, entering]

            # Bounded ratio test (vectorized).
            t_max = self._upper[entering]  # bound flip
            leaving = -1
            leaving_to_upper = False
            step = direction * w
            basis_arr = self._basis
            with np.errstate(divide="ignore", invalid="ignore"):
                down = np.where(step > _TOL, x_b / step, np.inf)
                caps = self._upper[basis_arr]
                up = np.where(step < -_TOL, (caps - x_b) / (-step), np.inf)
            down_min = down.min() if down.size else math.inf
            up_min = up.min() if up.size else math.inf
            if down_min < t_max - _TOL and down_min <= up_min:
                # among (near-)ties pick the largest pivot for stability
                ties = np.nonzero(down <= down_min + 1e-9)[0]
                leaving = int(ties[np.abs(step[ties]).argmax()])
                leaving_to_upper = False
                t_max = down_min
            elif up_min < t_max - _TOL:
                ties = np.nonzero(up <= up_min + 1e-9)[0]
                leaving = int(ties[np.abs(step[ties]).argmax()])
                leaving_to_upper = True
                t_max = up_min
            if math.isinf(t_max):
                return UNBOUNDED
            t_max = max(t_max, 0.0)

            if leaving < 0:
                # Bound flip: entering jumps to its other bound.
                x_b -= direction * t_max * w
                self._status[entering] = (
                    _AT_UPPER if self._status[entering] == _AT_LOWER else _AT_LOWER
                )
            else:
                entering_value = (
                    0.0
                    if self._status[entering] == _AT_LOWER
                    else self._upper[entering]
                ) + direction * t_max
                x_b -= direction * t_max * w
                leaving_var = int(self._basis[leaving])
                self._status[leaving_var] = _AT_UPPER if leaving_to_upper else _AT_LOWER
                self._basis[leaving] = entering
                self._status[entering] = _BASIC
                x_b[leaving] = entering_value
                self._eta_update(leaving, w)
                # Patch the reduced costs through the updated pivot row
                # instead of re-pricing next iteration.
                alpha_row = self._Binv[leaving] @ self._T
                reduced = reduced - reduced[entering] * alpha_row
                reduced[entering] = 0.0
                self.batch_pivots += 1

            # Objective change = reduced cost * signed step (Dantzig
            # improvement test for the anti-cycling stall counter).
            if entering_reduced * direction * t_max < -1e-12:
                stall = 0
                use_bland = False
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    use_bland = True

    def _pick_entering(self, reduced: np.ndarray, use_bland: bool) -> Optional[int]:
        movable = self._upper > 0
        at_lower = (self._status == _AT_LOWER) & movable
        at_upper = (self._status == _AT_UPPER) & movable
        score = np.where(at_lower, -reduced, 0.0)
        score = np.where(at_upper, reduced, score)
        if use_bland:
            eligible = np.nonzero(score > _TOL)[0]
            return int(eligible[0]) if eligible.size else None
        j = int(score.argmax())
        return j if score[j] > _TOL else None

    def _eta_update(self, row: int, w: np.ndarray) -> None:
        """Product-form update of the explicit inverse after a pivot."""
        pivot = w[row]
        if abs(pivot) < 1e-12:  # pragma: no cover - defensive
            self._factorize()
            return
        self._Binv[row, :] /= pivot
        factors = w.copy()
        factors[row] = 0.0
        self._Binv -= np.outer(factors, self._Binv[row, :])

    # ------------------------------------------------------------------
    def _result(self, status: str) -> LPResult:
        if status != OPTIMAL:
            return LPResult(status, None, None, None, None, None, self._iterations)
        values = np.where(self._status == _AT_UPPER, self._upper, 0.0)
        values[self._basis] = self._basic_values()
        x = values[: self.n].copy()
        # Numerical clean-up: clamp into the box.
        finite = np.isfinite(self.upper)
        x[finite] = np.minimum(x[finite], self.upper[finite])
        x = np.maximum(x, 0.0)
        objective = float(self.c @ x)
        activities = self.A @ x
        slacks = np.zeros(self.m)
        for i, sense in enumerate(self.senses):
            if sense == GE:
                slacks[i] = activities[i] - self.b[i]
            elif sense == LE:
                slacks[i] = self.b[i] - activities[i]
        cost_full = np.zeros(self._total)
        cost_full[: self.n] = self.c
        duals = cost_full[self._basis] @ self._Binv
        return LPResult(
            OPTIMAL, objective, x, np.asarray(duals), activities, slacks, self._iterations
        )


def solve_lp(
    c: Sequence[float],
    A: Sequence[Sequence[float]],
    b: Sequence[float],
    senses: Sequence[str],
    upper: Optional[Sequence[float]] = None,
    max_iterations: int = 20000,
) -> LPResult:
    """One-shot convenience wrapper around :class:`SimplexSolver`."""
    return SimplexSolver(c, A, b, senses, upper, max_iterations).solve()
