"""Building LP data from pseudo-boolean instances.

Paper Section 2: "The linear integer programming formulation for the
constraints can be obtained if we replace literals ~x_j by 1 - x_j."
This module performs that substitution, optionally under a partial
assignment (fixed variables substituted out), producing the dense
``(c, A, b, senses)`` data the simplex solver consumes, together with a
map from LP rows/columns back to the original constraints/variables.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..pb.constraints import Constraint
from ..pb.instance import PBInstance
from .simplex import GE


class LPData:
    """Dense relaxation data plus the bookkeeping to map back."""

    __slots__ = ("c", "A", "b", "senses", "columns", "column_of", "rows")

    def __init__(self, c, A, b, senses, columns, column_of, rows):
        self.c = c
        self.A = A
        self.b = b
        self.senses = senses
        #: LP column index -> original variable index.
        self.columns: List[int] = columns
        #: original variable index -> LP column index.
        self.column_of: Dict[int, int] = column_of
        #: LP row index -> original constraint.
        self.rows: List[Constraint] = rows

    @property
    def num_columns(self) -> int:
        """Number of LP columns (variables)."""
        return len(self.columns)

    @property
    def num_rows(self) -> int:
        """Number of constraint rows."""
        return len(self.rows)


def build_lp_data(
    instance: PBInstance,
    fixed: Optional[Mapping[int, int]] = None,
    extra_constraints: Sequence[Constraint] = (),
) -> Optional[LPData]:
    """LP relaxation data for the sub-problem under ``fixed``.

    Constraints already satisfied by ``fixed`` are dropped; fixed
    variables are substituted into the remaining rows.  The objective
    covers only free variables (the paper's ``P.lower`` estimates the cost
    of satisfying "the constraints not yet satisfied"; the cost of fixed
    assignments is ``P.path`` and accounted separately).

    Returns ``None`` when some constraint is already violated by ``fixed``
    (callers treat that as a logic conflict, not a bound conflict).
    """
    fixed = fixed or {}
    columns: List[int] = []
    column_of: Dict[int, int] = {}

    def column(var: int) -> int:
        index = column_of.get(var)
        if index is None:
            index = len(columns)
            column_of[var] = index
            columns.append(var)
        return index

    rows: List[Constraint] = []
    row_coeffs: List[Dict[int, float]] = []
    row_rhs: List[float] = []
    all_constraints = list(instance.constraints) + list(extra_constraints)
    for constraint in all_constraints:
        coeffs: Dict[int, float] = {}
        rhs = float(constraint.rhs)
        satisfied = False
        # ``rhs`` is adjusted in-loop both by fixed-true literals and by
        # the ~x -> 1-x substitution, so ``rhs <= 0`` mid-loop means the
        # *remaining* integer-form rhs is non-positive: the row is
        # satisfied by zero-filling every free variable.  Dropping such a
        # row only relaxes the LP (sound for lower bounding), and the
        # MILP baseline's zero-fill completion satisfies it by the same
        # argument.
        for coef, lit in constraint.terms:
            var = lit if lit > 0 else -lit
            value = fixed.get(var)
            if value is not None:
                lit_true = (value == 1) == (lit > 0)
                if lit_true:
                    rhs -= coef
                    if rhs <= 0:
                        satisfied = True
                        break
                continue
            # ~x -> 1 - x
            if lit > 0:
                coeffs[var] = coeffs.get(var, 0.0) + coef
            else:
                coeffs[var] = coeffs.get(var, 0.0) - coef
                rhs -= coef
        if satisfied:
            continue
        if not coeffs:
            if rhs > 1e-9:
                return None  # violated by the fixing alone
            continue
        # Max achievable lhs: positive weights at 1, negative at 0 -> sum of
        # positive weights.  If even that cannot reach rhs, it is violated.
        achievable = sum(w for w in coeffs.values() if w > 0)
        if achievable < rhs - 1e-9:
            return None
        for var in coeffs:
            column(var)
        rows.append(constraint)
        row_coeffs.append(coeffs)
        row_rhs.append(rhs)

    n = len(columns)
    m = len(rows)
    A = np.zeros((m, n))
    for i, coeffs in enumerate(row_coeffs):
        for var, weight in coeffs.items():
            A[i, column_of[var]] = weight
    b = np.asarray(row_rhs)
    c = np.zeros(n)
    for var, cost in instance.objective.costs.items():
        if var in column_of:
            c[column_of[var]] = float(cost)
    # Free costed variables that appear in no remaining row still belong in
    # the LP (their optimal value is simply 0) -- they are omitted, which
    # is equivalent and smaller.
    senses = [GE] * m
    return LPData(c, A, b, senses, columns, column_of, rows)
