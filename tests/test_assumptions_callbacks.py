"""Tests for solve-under-assumptions and the solution callback."""

import pytest

from repro.core import (
    BsoloSolver,
    SolverOptions,
    OPTIMAL,
    SATISFIABLE,
    UNSATISFIABLE,
)
from repro.pb import Constraint, Objective, PBInstance


def covering_instance():
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


class TestAssumptions:
    def test_assumption_changes_optimum(self):
        instance = covering_instance()
        free = BsoloSolver(instance).solve()
        assert free.best_cost == 4  # b + c
        # forbid variable 2: optimum becomes a + c = 5
        constrained = BsoloSolver(instance).solve(assumptions=[-2])
        assert constrained.status == OPTIMAL
        assert constrained.best_cost == 5
        assert constrained.best_assignment[2] == 0

    def test_positive_assumption_respected(self):
        instance = covering_instance()
        result = BsoloSolver(instance).solve(assumptions=[1])
        assert result.status == OPTIMAL
        assert result.best_assignment[1] == 1
        assert result.best_cost >= 3

    def test_contradictory_assumptions_unsat(self):
        instance = covering_instance()
        result = BsoloSolver(instance).solve(assumptions=[1, -1])
        assert result.status == UNSATISFIABLE

    def test_assumption_conflicting_with_constraints(self):
        instance = PBInstance([Constraint.clause([1])])
        result = BsoloSolver(instance).solve(assumptions=[-1])
        assert result.status == UNSATISFIABLE

    def test_out_of_range_assumption_rejected(self):
        instance = covering_instance()
        with pytest.raises(ValueError):
            BsoloSolver(instance).solve(assumptions=[99])

    def test_assumptions_on_satisfaction_instance(self):
        instance = PBInstance([Constraint.clause([1, 2])])
        result = BsoloSolver(instance).solve(assumptions=[-1])
        assert result.status == SATISFIABLE
        assert result.best_assignment[2] == 1

    def test_assumptions_disable_covering_reductions(self):
        # dominance would force x2 = 0 here (x1 cheaper, covers more);
        # assuming x2 = 1 must still find the x2 solution
        instance = PBInstance(
            [Constraint.clause([1, 2]), Constraint.clause([1, 3])],
            Objective({1: 2, 2: 5, 3: 5}),
        )
        result = BsoloSolver(instance).solve(assumptions=[2])
        assert result.status == OPTIMAL
        assert result.best_assignment[2] == 1

    def test_solver_reuse_not_required(self):
        # two fresh solvers with different assumptions
        instance = covering_instance()
        first = BsoloSolver(instance).solve(assumptions=[-1])
        second = BsoloSolver(instance).solve(assumptions=[-3])
        assert first.status == second.status == OPTIMAL
        assert first.best_cost == 4 and second.best_cost == 5


class TestSolutionCallback:
    def test_callback_sees_improving_sequence(self):
        trace = []

        def record(cost, assignment):
            trace.append((cost, assignment))

        instance = covering_instance()
        options = SolverOptions(
            lower_bound="plain", on_incumbent=record
        )
        result = BsoloSolver(instance, options).solve()
        assert result.status == OPTIMAL
        costs = [cost for cost, _ in trace]
        assert costs, "callback never fired"
        assert costs == sorted(costs, reverse=True)  # strictly improving
        assert costs[-1] == result.best_cost
        # assignments are snapshots, complete, and feasible
        for cost, assignment in trace:
            assert instance.check(assignment)
            assert instance.cost(assignment) == cost

    def test_callback_gets_offset_adjusted_cost(self):
        instance = PBInstance(
            [Constraint.clause([1])], Objective({1: 2}, offset=10)
        )
        seen = []
        options = SolverOptions(on_incumbent=lambda c, a: seen.append(c))
        BsoloSolver(instance, options).solve()
        assert seen == [12]
