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
  updates.  Every starting basic column is a +-1 slack or artificial
  unit column, so the start inverse is that diagonal, written directly.
  The inverse is refactorized from scratch only at the start of phase 2
  when phase 1 pivoted, and every 60 iterations of a phase for
  numerical hygiene.
* Dantzig pricing with an automatic switch to Bland's rule after a stall,
  which guarantees termination on degenerate instances.  Pricing reads
  one entering sign per column (-1 nonbasic at lower and free to rise,
  +1 at upper and free to fall, 0 basic or fixed), updated in place on
  each pivot or bound flip along with the basic columns' caps.
* Pivots are *batched array kernels*: the basis lives in an int array,
  reduced costs and basic values are maintained incrementally by rank-1
  row updates after each pivot (one ``Binv`` row times the tableau)
  instead of the full ``c_B B^-1 T`` re-price per iteration, and both
  are recomputed from scratch at every periodic refactorization so
  incremental drift cannot outlive a refactor interval (the
  ``lp_batch_pivots`` observability counter tracks these cheap pivots).
* The node LPs of the LP bound are tiny (around 10 x 10), so a pivot's
  cost is the number of numpy calls it makes, not their arithmetic: the
  setup, ratio test and result mapping are whole-array operations with
  no per-row Python loop.

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
_STALL_LIMIT = 200  # Dantzig iterations without progress before Bland

#: Sense -> sign of the row slack ``A_i x - b_i`` (``=`` rows have none).
_SENSE_SIGN = {GE: 1.0, LE: -1.0, EQ: 0.0}


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
        return np.flatnonzero(self.slacks <= tol).tolist()

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
        self.b = np.asarray(b, dtype=float)
        self.n = self.c.shape[0]
        self.m = self.b.shape[0]
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            self.A = self.A.reshape((self.m, self.n))  # e.g. [] for no rows
        if self.A.shape != (self.m, self.n):
            raise ValueError("A must be %dx%d, got %r" % (self.m, self.n, self.A.shape))
        self.senses = list(senses)
        for sense in self.senses:
            if sense not in _SENSE_SIGN:
                raise ValueError("unknown sense %r" % sense)
        self._sense_sign = np.array([_SENSE_SIGN[sense] for sense in self.senses])
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
        rows = np.arange(m)
        sense_sign = self._sense_sign
        # Build the extended tableau: structural | slack/surplus | artificial.
        has_slack = sense_sign != 0.0
        slack_col = n - 1 + np.cumsum(has_slack)
        art_start = n + int(has_slack.sum())
        total = art_start + m
        T = np.zeros((m, total))
        T[:, :n] = self.A
        T[rows[has_slack], slack_col[has_slack]] = -sense_sign[has_slack]
        upper = np.full(total, math.inf)
        upper[:n] = self.upper

        # Crash start: put each bounded structural variable at whichever
        # bound reduces the total >=-row residual (for covering-style LPs
        # this alone reaches feasibility and phase 1 becomes a no-op).
        at_upper = (sense_sign @ self.A > 0) & (self.upper > 0) & (self.upper < math.inf)
        residual = self.b - self.A @ np.where(at_upper, self.upper, 0.0)
        # A row starts on its slack when that slack absorbs the residual,
        # otherwise on its artificial, signed to match (unused artificials
        # still get a unit column, keeping the tableau square).
        slack_feasible = has_slack & (sense_sign * residual <= 0.0)
        T[rows, art_start + rows] = np.where(slack_feasible | (residual >= 0), 1.0, -1.0)
        basis = np.where(slack_feasible, slack_col, art_start + rows)

        # Entering sign per column: -1 nonbasic at lower and free to rise,
        # +1 nonbasic at upper and free to fall, 0 basic or fixed.
        sign = np.where(upper > 0, -1.0, 0.0)
        sign[:n][at_upper] = 1.0
        sign[basis] = 0.0

        self._T = T
        self._upper = upper
        self._sign = sign
        self._basis = basis
        # Every starting basic column is a +-1 unit column.
        self._Binv = np.diag(1.0 / T[rows, basis])
        self._iterations = 0

        if not slack_feasible.all():
            # Phase 1: minimize the artificial sum.
            phase1_cost = np.zeros(total)
            phase1_cost[art_start:] = 1.0
            outcome = self._optimize(phase1_cost)
            if outcome == ITERATION_LIMIT:
                return self._result(ITERATION_LIMIT)
            if float(phase1_cost @ self._values()) > FEAS_TOL:
                return self._result(INFEASIBLE)
            if self.batch_pivots:
                self._factorize()  # drop the phase 1 eta updates
        # Phase 2: lock artificials into [0, 0] and minimize the real cost.
        upper[art_start:] = 0.0
        sign[art_start:] = 0.0
        phase2_cost = np.zeros(total)
        phase2_cost[:n] = self.c
        return self._result(self._optimize(phase2_cost), phase2_cost)

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

    def _values(self) -> np.ndarray:
        """Every column's value: nonbasic ones at their bound, basic ones
        solved through the current inverse."""
        values = np.where(self._sign > 0, self._upper, 0.0)
        values[self._basis] = self._Binv @ (self.b - self._T @ values)
        return values

    def _optimize(self, cost: np.ndarray) -> str:
        T, upper, sign, basis, m = self._T, self._upper, self._sign, self._basis, self.m
        # Full price once; every pivot below patches `reduced` with a
        # rank-1 row update (pivot row of the updated inverse times the
        # tableau) — the classic ``d -= d_j * alpha_r`` identity — so the
        # per-iteration ``c_B B^-1 T`` matmul disappears.  Refactor
        # points recompute from scratch, bounding numerical drift.
        x_b = self._values()[basis]
        reduced = cost - (cost[basis] @ self._Binv) @ T
        caps = upper[basis]
        no_limit = np.full(m, math.inf)
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
                x_b = self._values()[basis]
                reduced = cost - (cost[basis] @ self._Binv) @ T
                refactor_counter = 0

            score = sign * reduced
            if use_bland:
                eligible = np.flatnonzero(score > _TOL)
                if not eligible.size:
                    return OPTIMAL
                entering = int(eligible[0])
            else:
                entering = int(score.argmax())
                if not score[entering] > _TOL:
                    return OPTIMAL

            from_lower = sign[entering] < 0
            direction = 1.0 if from_lower else -1.0
            entering_reduced = reduced[entering]  # pre-pivot, for the stall test
            w = self._Binv @ T[:, entering]

            # Bounded ratio test: a basic value falling to 0 (down) or
            # rising to its cap (up), against the entering bound flip.
            t_max = upper[entering]
            step = direction * w
            down = no_limit.copy()
            np.divide(x_b, step, out=down, where=step > _TOL)
            up = no_limit.copy()
            np.divide(caps - x_b, -step, out=up, where=step < -_TOL)
            down_min = down.min() if m else math.inf
            up_min = up.min() if m else math.inf
            if down_min < t_max - _TOL and down_min <= up_min:
                ratios, t_max, leaving_to_upper = down, down_min, False
            elif up_min < t_max - _TOL:
                ratios, t_max, leaving_to_upper = up, up_min, True
            else:
                ratios = None
            if math.isinf(t_max):
                return UNBOUNDED
            if ratios is not None:
                # among (near-)ties pick the largest pivot for stability
                ties = (ratios <= t_max + 1e-9).nonzero()[0]
                leaving = int(ties[0] if ties.size == 1 else ties[np.abs(step[ties]).argmax()])
            t_max = max(t_max, 0.0)
            x_b -= direction * t_max * w

            if ratios is None:
                # Bound flip: entering jumps to its other bound.
                sign[entering] = -sign[entering]
            else:
                entering_value = (0.0 if from_lower else upper[entering]) + direction * t_max
                leaving_var = basis[leaving]
                if upper[leaving_var] > 0:
                    sign[leaving_var] = 1.0 if leaving_to_upper else -1.0
                basis[leaving] = entering
                sign[entering] = 0.0
                caps[leaving] = upper[entering]
                x_b[leaving] = entering_value
                self._eta_update(leaving, w)
                # Patch the reduced costs through the updated pivot row
                # instead of re-pricing next iteration.
                reduced -= reduced[entering] * (self._Binv[leaving] @ T)
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

    def _eta_update(self, row: int, w: np.ndarray) -> None:
        """Product-form update of the explicit inverse after a pivot."""
        pivot = w[row]
        if abs(pivot) < 1e-12:  # pragma: no cover - defensive
            self._factorize()
            return
        pivot_row = self._Binv[row]
        pivot_row /= pivot
        factors = w.copy()
        factors[row] = 0.0
        self._Binv -= factors[:, None] * pivot_row

    # ------------------------------------------------------------------
    def _result(self, status: str, cost: Optional[np.ndarray] = None) -> LPResult:
        if status != OPTIMAL:
            return LPResult(status, None, None, None, None, None, self._iterations)
        # Numerical clean-up: clamp into the box.
        x = np.maximum(np.minimum(self._values()[: self.n], self.upper), 0.0)
        objective = float(self.c @ x)
        activities = self.A @ x
        slacks = self._sense_sign * (activities - self.b)
        duals = cost[self._basis] @ self._Binv
        return LPResult(OPTIMAL, objective, x, duals, activities, slacks, self._iterations)


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
