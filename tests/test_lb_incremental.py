"""Differential tests: incremental bounders vs their cold references.

The incremental machinery (the trail-delta MIS cache) must be
*invisible*: at every node of any walk the incremental bounder
returns the same ``(value, infeasible)`` as a cold bounder handed the
same partial assignment.  These tests replay seeded decision walks on a
real propagation engine and compare the pair in lockstep, on random
instances and on the Table 1 families, then check the solver end-to-end
under every incremental/cold and schedule configuration.
"""

import random

import pytest

from repro.core.options import SolverOptions
from repro.core.solver import BsoloSolver
from repro.engine.interface import Conflict, make_engine
from repro.experiments.table1 import family_instances
from repro.mis import MISBound
from repro.pb import Constraint, Objective, PBInstance


def random_instance(seed: int, num_variables: int = 14) -> PBInstance:
    rng = random.Random(seed)
    constraints = []
    for _ in range(rng.randint(6, 14)):
        arity = rng.randint(2, 5)
        variables = rng.sample(range(1, num_variables + 1), arity)
        terms = [
            (rng.randint(1, 4), var if rng.random() < 0.7 else -var)
            for var in variables
        ]
        rhs = rng.randint(1, max(1, sum(coef for coef, _ in terms) // 2))
        constraints.append(Constraint.greater_equal(terms, rhs))
    costs = {
        var: rng.randint(1, 9)
        for var in range(1, num_variables + 1)
        if rng.random() < 0.8
    }
    if not costs:
        costs = {1: 1}
    return PBInstance(constraints, Objective(costs), num_variables)


def walk_nodes(instance, seed, max_nodes):
    """Yield the ``fixed`` mapping of each non-conflicting node of a
    seeded decide/propagate/backtrack walk, with the live trail."""
    engine = make_engine("counter", instance.num_variables)
    for constraint in instance.constraints:
        engine.add_constraint(constraint)
    if isinstance(engine.propagate(), Conflict):
        return
    trail = engine.trail
    rng = random.Random(seed)
    order = list(range(1, instance.num_variables + 1))
    values = trail._value
    yield trail, trail.assignment()
    nodes = 1
    while nodes < max_nodes:
        progressed = False
        rng.shuffle(order)
        for variable in order:
            if nodes >= max_nodes:
                return
            if values[variable] >= 0:
                continue
            engine.decide(variable if rng.random() < 0.5 else -variable)
            progressed = True
            if isinstance(engine.propagate(), Conflict):
                level = trail.decision_level
                if level == 0:
                    return
                engine.backtrack(level - 1)
                continue
            yield trail, trail.assignment()
            nodes += 1
        if not progressed:
            return
        engine.backtrack(0)


def drive_walk(instance, seed, max_nodes):
    """Bound every node of one seeded walk with a trail-attached and a
    cold :class:`MISBound`, asserting they agree; returns the
    incremental bounder."""
    incremental = MISBound(instance)
    cold = MISBound(instance)
    attached = False
    for trail, fixed in walk_nodes(instance, seed, max_nodes):
        if not attached:
            incremental.attach_trail(trail)
            attached = True
        a = incremental.compute(fixed)
        b = cold.compute(fixed)
        assert (a.value, a.infeasible) == (b.value, b.infeasible)
        assert [tuple(c) for c in a.explanation] == [
            tuple(c) for c in b.explanation
        ]
    return incremental


class TestMISLockstep:
    @pytest.mark.parametrize("seed", range(12))
    def test_incremental_equals_cold(self, seed):
        incremental = drive_walk(random_instance(seed), seed + 500, max_nodes=50)
        assert incremental.cache_hits > 0 or incremental.num_calls <= 1

    def test_extras_churn(self):
        instance = random_instance(99)
        incremental = MISBound(instance)
        cold = MISBound(instance)
        cut_a = Constraint.clause([1, 2, 3])
        cut_b = Constraint.clause([2, 4])
        for extras in ([], [cut_a], [cut_a, cut_b], [cut_b], []):
            a = incremental.compute({}, extras)
            b = cold.compute({}, extras)
            assert (a.value, a.infeasible) == (b.value, b.infeasible)


class TestTable1Lockstep:
    """The lockstep on the Table 1 families: two instances each at
    scale 0.5, 40 bounded nodes per walk."""

    @pytest.mark.parametrize("family", ["mcnc", "ptl", "grout"])
    def test_incremental_equals_cold_on_family(self, family):
        instances, _ = family_instances(family, count=2, scale=0.5)
        for index, instance in enumerate(instances):
            incremental = drive_walk(instance, 1000 + index, max_nodes=40)
            assert incremental.num_calls > 1


class TestSolverEquivalence:
    @pytest.mark.parametrize("method", ["mis", "lpr", "hybrid"])
    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_matches_cold_optimum(self, method, seed):
        instance = random_instance(seed * 31 + 2)
        results = {}
        for incremental in (True, False):
            options = SolverOptions(
                lower_bound=method,
                incremental_bounds=incremental,
                max_conflicts=3000,
                time_limit=10,
            )
            results[incremental] = BsoloSolver(instance, options).solve()
        assert results[True].status == results[False].status
        if results[True].status == "optimal":
            assert results[True].best_cost == results[False].best_cost

    @pytest.mark.parametrize("family", ["mcnc", "ptl", "grout"])
    def test_table1_optimum_agrees_across_configs(self, family):
        """Cold/static, incremental/static and incremental/adaptive
        hybrid bounding prove the same optimum on the Table 1 families."""
        instances, labels = family_instances(family, count=2, scale=0.5)
        for instance, label in zip(instances, labels):
            costs = set()
            for incremental, schedule in (
                (False, "static"), (True, "static"), (True, "adaptive")
            ):
                options = SolverOptions(
                    lower_bound="hybrid",
                    lb_schedule=schedule,
                    incremental_bounds=incremental,
                    max_conflicts=400,
                    time_limit=10,
                )
                result = BsoloSolver(instance, options).solve()
                assert result.status == "optimal", (label, schedule, incremental)
                costs.add(result.best_cost)
            assert len(costs) == 1, (label, costs)
