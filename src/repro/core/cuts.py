"""Constraint generation from improved solutions (paper Section 5).

Two families of cuts are added whenever a better solution (upper bound
``ub``) is found:

* the *knapsack constraint* (eq. 10)::

      sum_j c_j x_j <= ub - 1

  which forces every later solution to improve on the incumbent, and

* *cardinality-derived* constraints (eq. 11-13): for each cardinality
  constraint ``sum_{j in K} x_j >= U`` over positive literals, any
  solution pays at least ``V`` = the sum of the ``U`` smallest costs in
  ``K``, hence::

      sum_{j in N-K} c_j x_j <= ub - 1 - V

A cut whose right-hand side is negative proves that no better solution
exists at all — the caller can declare the incumbent optimal.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..pb.constraints import Constraint, Term, normalize_terms
from ..pb.instance import PBInstance

#: A cost sum ``sum c_j x_j`` (all ``c_j > 0``) presummed for ``<=``
#: cuts: the terms ``c_j ~x_j`` sorted by variable, unsaturated, and
#: their total ``K = sum c_j``.
CostSum = Tuple[Tuple[Term, ...], int]


def _at_most(cost_terms: CostSum, budget: int) -> Constraint:
    """``sum c_j x_j <= budget``: the constraint ``Constraint.less_equal``
    builds, read off the presummed normal form.

    With positive costs on distinct variables, ``less_equal`` turns the
    sum into ``sum c_j ~x_j >= K - budget`` and saturates each
    coefficient at that rhs; a rhs of 0 or less is the tautology.
    """
    terms, total = cost_terms
    rhs = total - budget
    if rhs <= 0:
        return Constraint((), 0)
    return Constraint(
        tuple(term if term[0] <= rhs else (rhs, term[1]) for term in terms), rhs
    )


class CutGenerator:
    """Produces eq. 10 / eq. 13 cuts for a given instance."""

    def __init__(self, instance: PBInstance, cardinality_cuts: bool = True):
        costs = instance.objective.costs
        self._objective_sum: Optional[CostSum] = None
        if costs:
            flipped = [(-cost, var) for var, cost in costs.items()]
            self._objective_sum = normalize_terms(flipped, 0, saturate=False)
        # Each cardinality constraint usable by eq. 11 (all literals
        # positive: the "smallest costs" argument needs x_j = 1 to be
        # what pays) with a positive ``V``, as ``(source, V, outside)``;
        # ``outside`` is the normal form of the eq. 13 sum over N-K.  The
        # source is kept so each emitted cut can name the input it was
        # derived from (proof logging references cuts by source id).
        self._sources: List[Tuple[Constraint, int, CostSum]] = []
        if not (cardinality_cuts and costs):
            return
        for constraint in instance.constraints:
            if not constraint.is_cardinality:
                continue
            members = constraint.literals
            if any(lit < 0 for lit in members):
                continue
            threshold = constraint.cardinality_threshold
            if threshold < 1:
                continue
            value_v = sum(sorted(costs.get(var, 0) for var in members)[:threshold])
            if value_v <= 0:
                continue  # eq. 12 gives nothing
            member_set = set(members)
            outside = tuple(
                term for term in self._objective_sum[0] if -term[1] not in member_set
            )
            total = sum(coef for coef, _ in outside)
            self._sources.append((constraint, value_v, (outside, total)))

    # ------------------------------------------------------------------
    def knapsack_cut(self, upper: int) -> Optional[Constraint]:
        """Eq. 10: require cost at most ``upper - 1`` (path-cost scale,
        i.e. excluding the objective offset)."""
        if self._objective_sum is None:
            return None
        cut = _at_most(self._objective_sum, upper - 1)
        if cut.is_tautology:
            return None
        return cut

    def cardinality_cuts_with_sources(
        self, upper: int
    ) -> Tuple[List[Tuple[Constraint, Constraint]], Optional[Constraint]]:
        """Eq. 13 cuts for the new ``upper``, each paired with its source.

        Returns ``(pairs, proven_source)``: ``pairs`` holds
        ``(cut, source_cardinality_constraint)`` and ``proven_source`` is
        the input whose cut's rhs went negative (eq. 12's ``V`` alone
        reaches the bound, so the incumbent is optimal), or None.
        """
        pairs: List[Tuple[Constraint, Constraint]] = []
        for source, value_v, outside in self._sources:
            budget = upper - 1 - value_v
            if budget < 0:
                return pairs, source
            cut = _at_most(outside, budget)
            if not cut.is_tautology:
                pairs.append((cut, source))
        return pairs, None

    def cuts_for(
        self, upper: int
    ) -> Tuple[
        Optional[Constraint],
        List[Tuple[Constraint, Constraint]],
        Optional[Constraint],
    ]:
        """All cuts triggered by a solution of cost ``upper``.

        Returns ``(knapsack, pairs, proven_source)``: the eq. 10 cut of
        :meth:`knapsack_cut` (or None), followed by the eq. 13 result of
        :meth:`cardinality_cuts_with_sources`.
        """
        knapsack = self.knapsack_cut(upper)
        pairs, proven_source = self.cardinality_cuts_with_sources(upper)
        return knapsack, pairs, proven_source
