"""Unit tests for the Section 5 cut generator."""

from repro.core import CutGenerator
from repro.pb import Constraint, Objective, PBInstance


def instance_with_cardinality():
    """x1+x2+x3 >= 2 with costs 1..5 on five variables."""
    return PBInstance(
        [Constraint.at_least([1, 2, 3], 2), Constraint.clause([4, 5])],
        Objective({1: 1, 2: 2, 3: 3, 4: 4, 5: 5}),
    )


class TestKnapsackCut:
    def test_shape(self):
        cut = CutGenerator(instance_with_cardinality()).knapsack_cut(8)
        assert cut is not None
        # sum c_j x_j <= 7  ==  sum c_j ~x_j >= sum(c) - 7 = 8
        assert cut.rhs == 8
        assert all(lit < 0 for lit in cut.literals)

    def test_forces_improvement(self):
        instance = instance_with_cardinality()
        cut = CutGenerator(instance).knapsack_cut(8)
        cheap = {1: 1, 2: 1, 3: 0, 4: 1, 5: 0}  # cost 7
        expensive = {1: 1, 2: 1, 3: 1, 4: 1, 5: 0}  # cost 10
        assert cut.is_satisfied_by(cheap)
        assert not cut.is_satisfied_by(expensive)

    def test_tautology_returns_none(self):
        instance = instance_with_cardinality()
        total = sum(instance.objective.costs.values())
        assert CutGenerator(instance).knapsack_cut(total + 1) is None

    def test_no_costs_returns_none(self):
        instance = PBInstance([Constraint.clause([1])])
        assert CutGenerator(instance).knapsack_cut(5) is None


class TestCardinalityCuts:
    def test_eq13_cut_emitted(self):
        instance = instance_with_cardinality()
        pairs, proven = CutGenerator(instance).cardinality_cuts_with_sources(9)
        assert proven is None
        # Both constraints are cardinality constraints (the clause (4|5)
        # has threshold 1).  For {1,2,3} >= 2: V = 1 + 2 = 3 and the cut is
        # c4 x4 + c5 x5 <= 9 - 1 - 3 = 5.
        assert len(pairs) == 2
        cut = next(c for c, _ in pairs if 4 in {abs(l) for l in c.literals})
        solution_ok = {4: 1, 5: 0, 1: 0, 2: 0, 3: 0}  # outside cost 4 <= 5
        solution_bad = {4: 1, 5: 1, 1: 0, 2: 0, 3: 0}  # outside cost 9 > 5
        assert cut.is_satisfied_by(solution_ok)
        assert not cut.is_satisfied_by(solution_bad)

    def test_optimum_proven_when_v_reaches_bound(self):
        instance = instance_with_cardinality()
        # upper = 3: V = 3 > upper - 1 = 2 -> no better solution exists
        _, proven = CutGenerator(instance).cardinality_cuts_with_sources(3)
        assert proven is not None

    def test_negative_literals_excluded(self):
        instance = PBInstance(
            [Constraint.at_least([-1, 2], 1)], Objective({1: 1, 2: 2, 3: 5})
        )
        pairs, proven = CutGenerator(instance).cardinality_cuts_with_sources(10)
        assert pairs == [] and proven is None

    def test_disabled(self):
        generator = CutGenerator(instance_with_cardinality(), cardinality_cuts=False)
        pairs, proven = generator.cardinality_cuts_with_sources(9)
        assert pairs == [] and proven is None

    def test_tautological_cut_skipped(self):
        instance = instance_with_cardinality()
        # huge upper: budget exceeds total outside cost
        pairs, proven = CutGenerator(instance).cardinality_cuts_with_sources(100)
        assert pairs == [] and proven is None


class TestCutsFor:
    def test_combined(self):
        instance = instance_with_cardinality()
        knapsack, pairs, proven = CutGenerator(instance).cuts_for(9)
        assert proven is None
        assert knapsack is not None
        assert len(pairs) == 2  # two cardinality cuts

    def test_cut_soundness_never_removes_better_solutions(self):
        """Any solution strictly cheaper than the incumbent satisfies all
        cuts (exhaustive check)."""
        import itertools

        instance = instance_with_cardinality()
        upper = 9
        knapsack, pairs, proven = CutGenerator(instance).cuts_for(upper)
        assert proven is None
        cuts = [knapsack] + [cut for cut, _ in pairs]
        n = instance.num_variables
        for bits in itertools.product((0, 1), repeat=n):
            assignment = {v: bits[v - 1] for v in range(1, n + 1)}
            if not instance.check(assignment):
                continue
            cost = instance.cost(assignment)
            if cost < upper:
                for cut in cuts:
                    assert cut.is_satisfied_by(assignment), (
                        "cut %r removed solution %r of cost %d" % (cut, assignment, cost)
                    )


def reference_cuts(instance, upper):
    """Eq. 10 and eq. 13 built term by term with ``Constraint.less_equal``."""
    costs = instance.objective.costs
    knapsack = None
    if costs:
        knapsack = Constraint.less_equal([(c, v) for v, c in costs.items()], upper - 1)
        if knapsack.is_tautology:
            knapsack = None
    pairs = []
    for source in instance.constraints:
        if not source.is_cardinality or any(lit < 0 for lit in source.literals):
            continue
        threshold = source.cardinality_threshold
        if threshold < 1:
            continue
        value_v = sum(sorted(costs.get(v, 0) for v in source.literals)[:threshold])
        if value_v <= 0:
            continue
        budget = upper - 1 - value_v
        if budget < 0:
            return knapsack, pairs, source
        outside = [(c, v) for v, c in costs.items() if v not in set(source.literals)]
        cut = Constraint.less_equal(outside, budget)
        if not cut.is_tautology:
            pairs.append((cut, source))
    return knapsack, pairs, None


def property_instances():
    import random

    from repro.experiments.table1 import family_instances

    instances = []
    for family, scale in (("grout", 0.4), ("mcnc", 0.3), ("ptl", 0.3)):
        instances.extend(family_instances(family, 2, scale)[0])
    rng = random.Random(13)
    for _ in range(6):
        n = rng.randint(3, 8)
        constraints = []
        for _ in range(rng.randint(1, 5)):
            members = rng.sample(range(1, n + 1), rng.randint(1, n))
            constraints.append(Constraint.at_least(members, rng.randint(1, len(members))))
        # a cardinality over every variable leaves nothing outside
        constraints.append(Constraint.at_least(range(1, n + 1), 1))
        costs = {v: rng.randint(0, 9) for v in range(1, n + 1)}
        instances.append(PBInstance(constraints, Objective(costs)))
    return instances


class TestPresummedCutsMatchLessEqual:
    def test_seeded_budgets(self):
        import random

        rng = random.Random(5)
        checked = {"tautology": 0, "proven": 0, "empty_outside": 0, "cut": 0}
        for instance in property_instances():
            generator = CutGenerator(instance)
            total = sum(instance.objective.costs.values())
            uppers = set(range(-2, 12)) | set(range(total - 2, total + 3))
            uppers |= {rng.randint(0, total) for _ in range(30)}
            for upper in sorted(uppers):
                knapsack, pairs, proven = reference_cuts(instance, upper)
                assert generator.knapsack_cut(upper) == knapsack
                got_pairs, got_proven = generator.cardinality_cuts_with_sources(upper)
                assert got_pairs == pairs
                assert got_proven is proven
                checked["tautology"] += knapsack is None
                checked["proven"] += proven is not None
                checked["cut"] += len(pairs)
            costed = set(instance.objective.costs)
            checked["empty_outside"] += any(
                costed <= set(c.literals) for c in instance.constraints
            )
        assert all(checked.values()), checked
