"""The benchmark's own view of an instance: OPB text in, answers checked.

Nothing here imports ``repro``.  The reader below is deliberately a
second, independent implementation of the OPB subset the generators
write, so a parser bug in the program under test cannot also hide in
the checker.  Reference answers come from HiGHS through
``scipy.optimize.milp``, which shares no code with the solver either.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Mapping, Optional, Tuple

#: One constraint: ``(terms, relation, rhs)`` with terms ``(coef, lit)``
#: and ``lit`` a signed variable index (negative = negated).
Constraint = Tuple[List[Tuple[int, int]], str, int]

_OFFSET = re.compile(r"^\*\s*offset=\s*(-?\d+)")
_TOKEN = re.compile(r"min:|>=|<=|=|;|[+-]?\d+|~?x\d+")


class Instance:
    """A pseudo-Boolean instance as read from OPB text."""

    def __init__(self, objective: Dict[int, int], offset: int,
                 constraints: List[Constraint], num_variables: int):
        self.objective = objective
        self.offset = offset
        self.constraints = constraints
        self.num_variables = num_variables

    @property
    def optimization(self) -> bool:
        """Whether the instance has a cost function."""
        return bool(self.objective)


def read_opb(text: str) -> Instance:
    """Parse the OPB subset the generators write (``min:``, ``>=``,
    ``<=``, ``=``, ``~x`` literals, an ``* offset=`` comment)."""
    objective: Dict[int, int] = {}
    offset = 0
    constraints: List[Constraint] = []
    num_variables = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("*"):
            match = _OFFSET.match(line)
            if match:
                offset = int(match.group(1))
            continue
        tokens = _TOKEN.findall(line)
        if "".join(tokens) != re.sub(r"\s+", "", line) or tokens[-1] != ";":
            raise ValueError("unreadable OPB line %r" % line)
        body = tokens[1:-1] if tokens[0] == "min:" else tokens[:-1]
        if tokens[0] != "min:":
            relation, rhs = body[-2], int(body[-1])
            body = body[:-2]
        terms = []
        for coef, literal in zip(body[::2], body[1::2]):
            var = int(literal.lstrip("~x"))
            num_variables = max(num_variables, var)
            terms.append((int(coef), -var if literal.startswith("~") else var))
        if tokens[0] == "min:":
            for coef, lit in terms:
                if lit < 0:
                    raise ValueError("negated literal in objective %r" % line)
                objective[lit] = objective.get(lit, 0) + coef
        else:
            constraints.append((terms, relation, rhs))
    return Instance(objective, offset, constraints, num_variables)


def write_opb(instance: Instance) -> str:
    """Render an :class:`Instance` back to OPB text."""
    lines = ["* #variable= %d #constraint= %d"
             % (instance.num_variables, len(instance.constraints))]
    if instance.offset:
        lines.append("* offset= %d" % instance.offset)
    if instance.objective:
        lines.append("min: " + " ".join(
            "%+d x%d" % (coef, var)
            for var, coef in sorted(instance.objective.items())) + " ;")
    for terms, relation, rhs in instance.constraints:
        lines.append(" ".join(
            "%+d %sx%d" % (coef, "~" if lit < 0 else "", abs(lit))
            for coef, lit in terms) + " %s %d ;" % (relation, rhs))
    return "\n".join(lines) + "\n"


def renamed(instance: Instance, rng: random.Random) -> Instance:
    """The same instance under a random variable permutation, with its
    constraints and terms shuffled."""
    order = list(range(1, instance.num_variables + 1))
    rng.shuffle(order)
    perm = {old: new for old, new in zip(range(1, instance.num_variables + 1), order)}

    def move(lit: int) -> int:
        return perm[lit] if lit > 0 else -perm[-lit]

    constraints = []
    for terms, relation, rhs in instance.constraints:
        terms = [(coef, move(lit)) for coef, lit in terms]
        rng.shuffle(terms)
        constraints.append((terms, relation, rhs))
    rng.shuffle(constraints)
    objective = {perm[var]: coef for var, coef in instance.objective.items()}
    return Instance(objective, instance.offset, constraints,
                    instance.num_variables)


def cost_of(instance: Instance, model: Mapping[int, int]) -> int:
    """Objective value of a complete model."""
    return instance.offset + sum(
        coef * model[var] for var, coef in instance.objective.items())


def violated(instance: Instance, model: Mapping[int, int]) -> Optional[int]:
    """Index of the first constraint ``model`` violates, else None.
    Raises ``KeyError`` when the model leaves a variable unassigned."""
    for index, (terms, relation, rhs) in enumerate(instance.constraints):
        lhs = sum(coef * (model[lit] if lit > 0 else 1 - model[-lit])
                  for coef, lit in terms)
        if not (lhs >= rhs if relation == ">=" else
                lhs <= rhs if relation == "<=" else lhs == rhs):
            return index
    return None


#: Reference verdicts of :func:`reference`.
INFEASIBLE = "infeasible"
FEASIBLE = "feasible"


def reference(instance: Instance):
    """The optimum cost (an int), ``FEASIBLE`` for a satisfiable
    instance without a cost function, or ``INFEASIBLE``; from HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = instance.num_variables
    rows = np.zeros((len(instance.constraints), n))
    lower = np.full(len(instance.constraints), -np.inf)
    upper = np.full(len(instance.constraints), np.inf)
    for row, (terms, relation, rhs) in enumerate(instance.constraints):
        for coef, lit in terms:
            if lit > 0:
                rows[row, lit - 1] += coef
            else:  # coef * (1 - x)
                rows[row, -lit - 1] -= coef
                rhs -= coef
        if relation in (">=", "="):
            lower[row] = rhs
        if relation in ("<=", "="):
            upper[row] = rhs
    costs = np.zeros(n)
    for var, coef in instance.objective.items():
        costs[var - 1] = coef
    result = milp(costs, integrality=np.ones(n), bounds=Bounds(0, 1),
                  constraints=[LinearConstraint(rows, lower, upper)])
    if result.status == 2:
        return INFEASIBLE
    if result.status != 0:
        raise RuntimeError("HiGHS gave no verdict: %s" % result.message)
    if not instance.optimization:
        return FEASIBLE
    return instance.offset + int(round(result.fun))


def check(instance: Instance, expected, status: Optional[str],
          cost: Optional[int], model: Optional[Mapping]) -> Optional[str]:
    """Why an answer is wrong, or None when it matches the reference.

    ``model`` may be keyed by int or by decimal string (the service's
    JSON); values are 0/1.  A budget hit (any status other than the
    conclusive one the reference calls for) is a failure.
    """
    if expected == INFEASIBLE:
        return None if status == "unsatisfiable" else (
            "status %s, reference infeasible" % status)
    wanted = ("optimal",) if instance.optimization else ("satisfiable", "optimal")
    if status not in wanted:
        return "status %s, expected %s" % (status, wanted[0])
    if model is None:
        return "no model"
    assignment = {int(var): int(value) for var, value in model.items()}
    try:
        bad = violated(instance, assignment)
        value = cost_of(instance, assignment)
    except KeyError as exc:
        return "model leaves x%s unassigned" % exc.args[0]
    if bad is not None:
        return "model violates constraint %d" % bad
    if instance.optimization:
        if cost != expected:
            return "cost %s, reference optimum %s" % (cost, expected)
        if value != cost:
            return "model costs %d, reported %s" % (value, cost)
    return None
