"""Differential tests: incremental bounders vs their cold references.

The incremental machinery (the trail-delta MIS cache) must be
*invisible*: at every node of any walk the incremental bounder
returns the same ``(value, infeasible)`` as a cold bounder handed the
same partial assignment.  These tests replay seeded decision walks on a
real propagation engine and compare the pair in lockstep, then check
the solver end-to-end under every incremental/cold configuration.
"""

import random

import pytest

from repro.core.options import SolverOptions
from repro.core.solver import BsoloSolver
from repro.engine.interface import Conflict, make_engine
from repro.experiments.lbbench import bench_drive, drive_walk
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


class TestMISLockstep:
    @pytest.mark.parametrize("seed", range(12))
    def test_incremental_equals_cold(self, seed):
        instance = random_instance(seed)
        incremental = MISBound(instance)
        cold = MISBound(instance)
        attached = False
        for trail, fixed in walk_nodes(instance, seed + 500, max_nodes=50):
            if not attached:
                incremental.attach_trail(trail)
                attached = True
            a = incremental.compute(fixed)
            b = cold.compute(fixed)
            assert (a.value, a.infeasible) == (b.value, b.infeasible)
            assert [tuple(c) for c in a.explanation] == [
                tuple(c) for c in b.explanation
            ]
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


class TestBenchDriveLockstep:
    """The benchmark's own lockstep flags must hold (the CI smoke job
    asserts them from the generated report)."""

    def test_drive_walk_flags(self):
        instance = random_instance(11)
        outcome = drive_walk(instance, seed=1, max_nodes=40)
        assert outcome["mis_equal"]

    def test_bench_drive_aggregates(self):
        instances = [random_instance(s) for s in (21, 22)]
        result = bench_drive(instances, seed=5, max_nodes=25)
        assert result["lockstep_bounds_equal"]
        assert result["mis_incremental"]["calls"] == result["mis_cold"]["calls"]


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
