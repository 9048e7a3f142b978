"""Differential harness: the propagation engine against a reference.

The reference is a from-scratch fixpoint: take the decisions on the
engine's trail, recompute every constraint's slack under the current
assignment and close under the rule in ``repro.engine.interface`` — an
unassigned literal whose coefficient exceeds the slack is true — until
nothing changes or some slack goes negative.  Three layers of evidence:

* a randomized fuzz driving the engine through decide / add /
  propagate / backtrack scripts and comparing the implied set and the
  conflict outcome with the reference at every step;
* the same fuzz with coefficients and right-hand sides at or above
  ``2**62``, where only exact integer arithmetic gets the slacks right,
  plus a bsolo-mis solve of such an instance against brute force;
* full solves on small instances from each benchmark family, which must
  reach the same status and optimum as the LP-based MILP baseline.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set

import pytest

from repro import api
from repro.benchgen import generate_planted, ptl_suite, routing_suite
from repro.core import OPTIMAL, BsoloSolver, SolverOptions
from repro.engine.interface import Conflict, make_engine
from repro.pb import Objective, PBInstance
from repro.pb.constraints import Constraint

ENGINE = "counter"
HUGE = 1 << 62


# ----------------------------------------------------------------------
# Reference fixpoint
# ----------------------------------------------------------------------
def reference_closure(
    constraints: Sequence[Constraint], decisions: Sequence[int]
) -> Optional[Set[int]]:
    """The literals true at the fixpoint reached from ``decisions``, or
    None when closing under the implication rule hits a conflict."""
    value = {}
    for lit in decisions:
        value[abs(lit)] = lit > 0
    changed = True
    while changed:
        changed = False
        for constraint in constraints:
            slack = -constraint.rhs
            for coef, lit in constraint.terms:
                if value.get(abs(lit)) != (lit < 0):  # not false
                    slack += coef
            if slack < 0:
                return None
            for coef, lit in constraint.terms:
                if coef > slack and abs(lit) not in value:
                    value[abs(lit)] = lit > 0
                    changed = True
    return {var if positive else -var for var, positive in value.items()}


def _decisions(trail) -> List[int]:
    return [trail.decision_at(level) for level in range(1, trail.decision_level + 1)]


def _check_against_reference(engine, constraints, conflict, context) -> None:
    """The engine's propagate outcome must match the reference fixpoint."""
    reference = reference_closure(constraints, _decisions(engine.trail))
    assert (conflict is not None) == (reference is None), (
        "conflict mismatch",
        context,
    )
    if reference is not None:
        implied = set(engine.trail.literals)
        assert implied == reference, ("implied mismatch", context, implied ^ reference)


# ----------------------------------------------------------------------
# Fuzz
# ----------------------------------------------------------------------
def _random_constraint(rng: random.Random, num_vars: int, base: int = 0) -> Constraint:
    """A clause, cardinality or general PB constraint; ``base`` is added
    to every coefficient and to the rhs of general constraints."""
    kind = rng.randrange(3)
    arity = rng.randint(1, min(6, num_vars))
    variables = rng.sample(range(1, num_vars + 1), arity)
    lits = [v if rng.random() < 0.5 else -v for v in variables]
    if kind == 0 and not base:
        return Constraint.clause(lits)
    if kind == 1 and not base:
        return Constraint.at_least(lits, rng.randint(1, arity))
    coefs = [base + rng.randint(1, 7) for _ in lits]
    rhs = rng.randint(1, max(1, sum(coefs) - 1 - base)) + base
    return Constraint.greater_equal(list(zip(coefs, lits)), rhs)


def _run_fuzz_seed(seed: int, base: int = 0) -> None:
    rng = random.Random(seed)
    num_vars = rng.randint(4, 14)
    engine = make_engine(ENGINE, num_vars)
    trail = engine.trail
    pool = [_random_constraint(rng, num_vars, base) for _ in range(rng.randint(2, 20))]
    attached: List[Constraint] = []
    # Highest level at which a constraint was attached above the root.
    # Its implications there may already hold lower down; the engine
    # rediscovers those only when rescheduled (as sessions do), so a
    # backtrack below that level is followed by ``reschedule_all``.
    added_level = 0

    def backtrack(context) -> Optional[Conflict]:
        """Backtrack to a random lower level and propagate again."""
        nonlocal added_level
        target = rng.randint(0, trail.decision_level - 1)
        engine.backtrack(target)
        if added_level > target:
            engine.reschedule_all()
            added_level = target
        conflict = engine.propagate()
        _check_against_reference(engine, attached, conflict, context)
        return conflict

    for step in range(rng.randint(10, 60)):
        context = (seed, step)
        op = rng.random()
        if pool and op < 0.25:
            constraint = pool.pop()
            attached.append(constraint)
            added_level = max(added_level, trail.decision_level)
            conflict = engine.add_constraint(constraint) or engine.propagate()
            _check_against_reference(engine, attached, conflict, context)
        elif op < 0.65:
            free = [v for v in range(1, num_vars + 1) if trail.value(v) < 0]
            if not free:
                continue
            var = rng.choice(free)
            engine.decide(var if rng.random() < 0.5 else -var)
            conflict = engine.propagate()
            _check_against_reference(engine, attached, conflict, context)
        elif trail.decision_level > 0:
            conflict = backtrack(context)
        else:
            continue
        while conflict is not None:
            if trail.decision_level == 0:
                return
            conflict = backtrack(context)


class TestReferenceFuzz:
    @pytest.mark.parametrize("block", range(4))
    def test_engine_matches_reference_fixpoint(self, block):
        for seed in range(block * 20, (block + 1) * 20):
            _run_fuzz_seed(seed)


class TestHugeCoefficients:
    def test_terms_beyond_two_to_the_62_propagate_exactly(self):
        for seed in range(40):
            _run_fuzz_seed(1000 + seed, base=HUGE)

    def test_bsolo_mis_matches_brute_force(self):
        rng = random.Random(62)
        for _ in range(6):
            num_vars = 9
            constraints = [
                _random_constraint(rng, num_vars, base=HUGE)
                for _ in range(rng.randint(3, 7))
            ]
            assert any(
                coef >= HUGE for constraint in constraints for coef, _ in constraint.terms
            )
            costs = {var: rng.randint(1, 9) for var in range(1, num_vars + 1)}
            instance = PBInstance(constraints, Objective(costs), num_vars)
            expected = api.solve(instance, "brute-force")
            result = api.solve(instance, "bsolo-mis")
            assert result.status == expected.status
            assert result.best_cost == expected.best_cost


# ----------------------------------------------------------------------
# Full-solve agreement
# ----------------------------------------------------------------------
def _small_instances():
    instances = []
    instances += [("ptl", inst) for inst in ptl_suite(2, seed=11, nodes=8, extra_edges=4)]
    instances += [("grout", inst) for inst in routing_suite(1, seed=3)]
    instances += [
        (
            "random",
            generate_planted(
                num_variables=12,
                num_constraints=18,
                max_arity=6,
                max_coefficient=5,
                seed=41,
            )[0],
        )
    ]
    return instances


class TestFullSolveAgreement:
    def test_same_status_and_optimum_on_every_family(self):
        for label, instance in _small_instances():
            options = SolverOptions.plain(propagation=ENGINE, time_limit=30.0)
            result = BsoloSolver(instance, options).solve()
            reference = api.solve(instance, "milp", SolverOptions(time_limit=30.0))
            assert result.status == reference.status, label
            if reference.status == OPTIMAL:
                assert result.best_cost == reference.best_cost, label
