"""Unit tests for LP data building and the LPR lower bound."""

import pytest

from repro.api import solve
from repro.benchgen.random_pb import generate_planted
from repro.core import OPTIMAL, verify_result
from repro.lp import (
    LPRelaxationBound,
    build_lp_data,
    integer_ceil_bound,
    root_lpr_bound,
)
from repro.pb import Constraint, Objective, PBInstance


def covering_instance():
    """min 3a + 2b + 2c with clauses (a|b), (b|c), (a|c)."""
    return PBInstance(
        [
            Constraint.clause([1, 2]),
            Constraint.clause([2, 3]),
            Constraint.clause([1, 3]),
        ],
        Objective({1: 3, 2: 2, 3: 2}),
    )


class TestBuildLPData:
    def test_basic_shape(self):
        data = build_lp_data(covering_instance())
        assert data.num_rows == 3
        assert data.num_columns == 3
        assert sorted(data.columns) == [1, 2, 3]

    def test_negative_literal_substitution(self):
        instance = PBInstance(
            [Constraint.greater_equal([(2, -1), (1, 2)], 2)], Objective({1: 1, 2: 1})
        )
        data = build_lp_data(instance)
        col1 = data.column_of[1]
        col2 = data.column_of[2]
        # 2*~x1 + x2 >= 2  ->  -2*x1 + x2 >= 0
        assert data.A[0, col1] == -2.0
        assert data.A[0, col2] == 1.0
        assert data.b[0] == 0.0

    def test_fixed_variables_substituted(self):
        data = build_lp_data(covering_instance(), fixed={1: 1})
        # clauses containing a are satisfied; only (b|c) remains
        assert data.num_rows == 1
        assert 1 not in data.column_of

    def test_violated_fixing_returns_none(self):
        instance = PBInstance([Constraint.clause([1, 2])])
        assert build_lp_data(instance, fixed={1: 0, 2: 0}) is None

    def test_unreachable_rhs_returns_none(self):
        instance = PBInstance([Constraint.at_least([1, 2, 3], 2)])
        assert build_lp_data(instance, fixed={1: 0, 2: 0}) is None

    def test_extra_constraints_included(self):
        extra = Constraint.clause([2])
        data = build_lp_data(covering_instance(), extra_constraints=[extra])
        assert data.num_rows == 4

    def test_all_satisfied_empty_lp(self):
        data = build_lp_data(covering_instance(), fixed={1: 1, 2: 1, 3: 1})
        assert data.num_rows == 0


class TestIntegerCeilBound:
    def test_rounds_up(self):
        assert integer_ceil_bound(2.3) == 3

    def test_integral_value_stable(self):
        assert integer_ceil_bound(5.0) == 5
        assert integer_ceil_bound(5.0000000001) == 5
        assert integer_ceil_bound(4.9999999999) == 5

    def test_deprecated_alias_removed(self):
        # integer_floor_bound always rounded *up*; the misnamed alias
        # finished its deprecation window and is gone.
        import repro.lp

        assert not hasattr(repro.lp, "integer_floor_bound")


class TestLPRelaxationBound:
    def test_root_bound_le_optimum(self):
        instance = covering_instance()
        # true optimum: pick b and either a or c... b covers rows 1,2; row 3
        # needs a or c: cost 2+2=4
        bound = LPRelaxationBound(instance).compute({})
        assert not bound.infeasible
        assert bound.value <= 4
        assert bound.value >= 3  # LP: x=0.5 everywhere -> 3.5 -> ceil 4? compute

    def test_fractional_values_exposed(self):
        bound = LPRelaxationBound(covering_instance()).compute({})
        assert set(bound.fractional) == {1, 2, 3}
        for value in bound.fractional.values():
            assert -1e-9 <= value <= 1 + 1e-9

    def test_explanation_subset_of_rows(self):
        instance = covering_instance()
        bound = LPRelaxationBound(instance).compute({})
        for constraint in bound.explanation:
            assert constraint in instance.constraints

    def test_fixed_reduces_bound_scope(self):
        instance = covering_instance()
        bound = LPRelaxationBound(instance).compute({2: 1})
        # remaining: (a|c) -> LP min(3,2) picks c: bound 2
        assert bound.value == 2

    def test_infeasible_fixing(self):
        instance = PBInstance([Constraint.clause([1, 2])], Objective({1: 1}))
        bound = LPRelaxationBound(instance).compute({1: 0, 2: 0})
        assert bound.infeasible

    def test_nothing_left(self):
        bound = LPRelaxationBound(covering_instance()).compute({1: 1, 2: 1, 3: 1})
        assert bound.value == 0 and not bound.infeasible

    def test_call_statistics(self):
        lpr = LPRelaxationBound(covering_instance())
        lpr.compute({})
        lpr.compute({1: 1})
        assert lpr.num_calls == 2
        assert lpr.total_iterations > 0

    def test_root_helper(self):
        assert root_lpr_bound(covering_instance()) >= 3

    def test_root_helper_reuses_bounder(self):
        instance = covering_instance()
        bounder = LPRelaxationBound(instance)
        assert root_lpr_bound(instance, bounder=bounder) == root_lpr_bound(instance)
        assert bounder.num_calls == 1


class TestBoundSoundness:
    """The LPR bound never exceeds the true optimum (brute force)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        import itertools
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 5)
        constraints = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n)
            variables = rng.sample(range(1, n + 1), size)
            terms = [
                (rng.randint(1, 4), v if rng.random() < 0.7 else -v)
                for v in variables
            ]
            rhs = rng.randint(1, max(1, sum(c for c, _ in terms) - 1))
            constraint = Constraint.greater_equal(terms, rhs)
            if not constraint.is_tautology and not constraint.is_unsatisfiable:
                constraints.append(constraint)
        if not constraints:
            pytest.skip("degenerate draw")
        objective = Objective({v: rng.randint(0, 5) for v in range(1, n + 1)})
        instance = PBInstance(constraints, objective, num_variables=n)

        best = None
        for bits in itertools.product([0, 1], repeat=n):
            assignment = {v: bits[v - 1] for v in range(1, n + 1)}
            if instance.check(assignment):
                cost = instance.cost(assignment)
                best = cost if best is None else min(best, cost)

        bound = LPRelaxationBound(instance).compute({})
        if best is None:
            # integrally infeasible; LP may be feasible, bound must still
            # be a *lower* bound (vacuous) or detected infeasible.
            return
        assert not bound.infeasible
        assert bound.value <= best


class TestDeadline:
    def test_planted_instance_solves_well_inside_the_deadline(self):
        # 300 variables and 600 rows: large enough that a per-node LP
        # costing O(m * (n + 2m)) per pivot exhausts the 5 s budget.
        instance, _ = generate_planted(
            num_variables=300, num_constraints=600, seed=300
        )
        result = solve(instance, "bsolo-lpr", timeout=5)
        assert result.status == OPTIMAL
        assert verify_result(instance, result)
