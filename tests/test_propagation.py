"""Unit tests for PB propagation: the counter engine, the rules every
backend shares, the engine registry and learned-constraint deletion."""

import pytest

from repro.engine import (
    Conflict,
    Propagator,
    UnknownEngineError,
    available_engines,
    engine_descriptions,
    make_engine,
)
from repro.pb import Constraint

#: Every shipped backend; the rule tests below run on each.
BACKENDS = ["counter"]


def propagator_with(num_vars, constraints, backend="counter"):
    prop = make_engine(backend, num_vars)
    for constraint in constraints:
        assert prop.add_constraint(constraint) is None
    assert prop.propagate() is None
    return prop


class TestSlackBookkeeping:
    def test_initial_slack(self):
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(2, 1), (3, -2), (1, 3)], 3))
        (stored,) = prop.database.constraints
        assert stored.slack == 3

    def test_slack_decreases_when_literal_false(self):
        prop = propagator_with(3, [Constraint.greater_equal([(2, 1), (3, -2), (1, 3)], 3)])
        prop.decide(2)  # makes ~x2 false
        (stored,) = prop.database.constraints
        assert stored.slack == 0

    def test_slack_restored_on_backtrack(self):
        prop = propagator_with(3, [Constraint.greater_equal([(2, 1), (3, -2), (1, 3)], 3)])
        prop.decide(2)
        prop.backtrack(0)
        (stored,) = prop.database.constraints
        assert stored.slack == 3
        prop.database.check_slacks()

    def test_check_slacks_detects_drift(self):
        prop = propagator_with(2, [Constraint.clause([1, 2])])
        prop.database.constraints[0].slack = 99
        with pytest.raises(AssertionError):
            prop.database.check_slacks()


class TestUnitPropagation:
    def test_unit_clause_propagates(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)
        assert prop.trail.reason(2) == (2, 1)

    def test_chain_propagation(self):
        prop = Propagator(4)
        prop.add_constraint(Constraint.clause([-1, 2]))
        prop.add_constraint(Constraint.clause([-2, 3]))
        prop.add_constraint(Constraint.clause([-3, 4]))
        prop.decide(1)
        assert prop.propagate() is None
        assert all(prop.trail.literal_is_true(l) for l in (2, 3, 4))

    def test_pb_implication(self):
        # 3*x1 + 2*x2 + 2*x3 >= 5: x1 is implied immediately (slack 2 < 3)
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(3, 1), (2, 2), (2, 3)], 5))
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(1)
        assert prop.trail.level(1) == 0

    def test_pb_implication_after_assignment(self):
        # 3*x1 + 2*x2 + 2*x3 >= 4: nothing implied initially (slack 3)
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(3, 1), (2, 2), (2, 3)], 4))
        assert prop.propagate() is None
        assert len(prop.trail) == 0
        prop.decide(-2)  # slack 1 -> x1 and x3 both implied
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(1)
        assert prop.trail.literal_is_true(3)

    def test_propagation_counter(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        prop.propagate()
        assert prop.num_propagations == 1


class TestConflicts:
    def test_clause_conflict(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        assert prop.propagate() is None
        prop.backtrack(0)
        prop.decide(-1)
        prop.decide(-2)
        conflict = prop.propagate()
        assert conflict is not None
        assert set(conflict.literals) == {1, 2}

    def test_pb_conflict_explanation_is_minimal_greedy(self):
        # 2*x1 + x2 + x3 >= 2 with x1, x2, x3 all false: the greedy
        # explanation takes x1 (coef 2) and x2 and can drop x3.
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(2, 1), (1, 2), (1, 3)], 2))
        prop.decide(-2)
        prop.decide(-3)
        prop.decide(-1)
        conflict = prop.propagate()
        assert conflict is not None
        assert set(conflict.literals) == {1, 2}  # x3 not needed to explain

    def test_conflict_on_add_constraint(self):
        prop = Propagator(2)
        prop.decide(-1)
        prop.decide(-2)
        conflict = prop.add_constraint(Constraint.clause([1, 2]))
        assert conflict is not None
        assert set(conflict.literals) == {1, 2}

    def test_added_constraint_propagates(self):
        prop = Propagator(2)
        prop.decide(-1)
        assert prop.add_constraint(Constraint.clause([1, 2])) is None
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)


class TestReasons:
    def test_pb_reason_sufficient(self):
        # 2*x1 + 2*x2 + 1*x3 + 1*x4 >= 3; after ~x1, ~x3: slack = 3-3... let
        # us force x2: total=6, rhs=3. Falsify x1 (slack 1): x2 implied
        # (coef 2 > 1). Reason needs false coef sum > 6-3-2 = 1: {~x1} (coef
        # 2) suffices; x3/x4 must not appear.
        prop = Propagator(4)
        prop.add_constraint(
            Constraint.greater_equal([(2, 1), (2, 2), (1, 3), (1, 4)], 3)
        )
        prop.decide(-1)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)
        assert prop.trail.reason(2) == (2, 1)

    def test_reason_literals_all_false(self):
        prop = Propagator(3)
        prop.add_constraint(Constraint.greater_equal([(2, 1), (1, 2), (1, 3)], 3))
        prop.decide(-2)
        assert prop.propagate() is None
        for var in (1, 3):
            if prop.trail.is_assigned(var):
                reason = prop.trail.reason(var)
                if reason:
                    assert all(
                        prop.trail.literal_is_false(lit) for lit in reason[1:]
                    )


class TestBacktrackIntegration:
    def test_propagate_after_backtrack(self):
        prop = Propagator(3)
        prop.add_constraint(Constraint.clause([1, 2, 3]))
        prop.decide(-1)
        prop.decide(-2)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(3)
        prop.backtrack(1)
        assert not prop.trail.is_assigned(3)
        prop.decide(-3)
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)
        prop.database.check_slacks()

    def test_reschedule_all(self):
        prop = Propagator(2)
        prop.add_constraint(Constraint.clause([1, 2]))
        prop.decide(-1)
        prop.propagate()
        prop.backtrack(0)
        prop.decide(-1)
        # simulate a stale queue: clear and rely on reschedule
        prop._clear_pending()
        prop.reschedule_all()
        assert prop.propagate() is None
        assert prop.trail.literal_is_true(2)

    def test_model_requires_completeness(self):
        prop = Propagator(2)
        prop.decide(1)
        with pytest.raises(ValueError):
            prop.model()
        prop.decide(2)
        assert prop.model() == {1: 1, 2: 1}


# ----------------------------------------------------------------------
# Rules every backend closes (clause, cardinality and general PB)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestClauseRules:
    def test_unit_implication_with_reason(self, backend):
        engine = propagator_with(3, [Constraint.clause([1, 2, 3])], backend)
        engine.decide(-1)
        assert engine.propagate() is None
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(3)
        assert set(engine.trail.reason(3)) == {1, 2, 3}

    def test_conflict_when_all_false(self, backend):
        engine = propagator_with(2, [Constraint.clause([1, 2])], backend)
        engine.decide(-1)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2)
        engine.backtrack(0)
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)

    def test_top_level_implication_survives_backtrack_to_zero(self, backend):
        # a unit clause implies at level 0; rewinding to 0 keeps it
        engine = make_engine(backend, 2)
        engine.add_constraint(Constraint.clause([1]))
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        engine.decide(2)
        assert engine.propagate() is None
        engine.backtrack(0)
        assert engine.trail.literal_is_true(1)
        assert not engine.trail.is_assigned(2)

    def test_two_open_literals_keep_clause_silent(self, backend):
        engine = propagator_with(4, [Constraint.clause([1, 2, 3, 4])], backend)
        engine.decide(-1)
        assert engine.propagate() is None
        engine.decide(-2)
        assert engine.propagate() is None
        # two non-false literals remain: nothing implied yet
        assert not engine.trail.is_assigned(3)
        assert not engine.trail.is_assigned(4)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCardinalityRules:
    def test_implies_all_remaining_when_tight(self, backend):
        engine = propagator_with(4, [Constraint.at_least([1, 2, 3, 4], 3)], backend)
        engine.decide(-1)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2)
        assert engine.trail.literal_is_true(3)
        assert engine.trail.literal_is_true(4)

    def test_conflict_when_too_many_false(self, backend):
        engine = propagator_with(4, [Constraint.at_least([1, 2, 3, 4], 3)], backend)
        engine.assume(-1)
        engine.assume(-2)
        conflict = engine.propagate()
        assert isinstance(conflict, Conflict)

    def test_backtrack_to_zero_then_repropagate(self, backend):
        engine = propagator_with(4, [Constraint.at_least([1, 2, 3, 4], 2)], backend)
        engine.decide(-1)
        assert engine.propagate() is None
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(3)
        engine.backtrack(0)
        assert not engine.trail.is_assigned(3)
        engine.decide(-3)
        assert engine.propagate() is None
        engine.decide(-4)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        assert engine.trail.literal_is_true(2)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGeneralPBRules:
    def test_coefficient_tie_implies_both(self, backend):
        # 3a + 3b + 2c >= 6: falsifying c leaves slack 2 < 3, so the
        # tied big coefficients are both implied in one scan
        engine = propagator_with(
            3, [Constraint.greater_equal([(3, 1), (3, 2), (2, 3)], 6)], backend
        )
        engine.decide(-3)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        assert engine.trail.literal_is_true(2)

    def test_implication_reason_is_sufficient(self, backend):
        engine = propagator_with(
            4,
            [Constraint.greater_equal([(3, 1), (3, 2), (2, 3), (2, 4)], 6)],
            backend,
        )
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        # reason is in clause form: the implied literal plus the false
        # constraint literals (in their constraint polarity)
        reason = engine.trail.reason(1)
        assert 1 in reason and 2 in reason

    def test_necessary_assignment_implied_at_top_level(self, backend):
        # total - coef(x1) = 6 < rhs: x1 is forced with an unconditional
        # (unit) reason before any decision is made
        engine = make_engine(backend, 4)
        engine.add_constraint(
            Constraint.greater_equal([(4, 1), (3, 2), (2, 3), (1, 4)], 7)
        )
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)
        assert engine.trail.level(1) == 0
        assert engine.trail.reason(1) == (1,)

    def test_conflict_explained_by_false_literals(self, backend):
        engine = propagator_with(
            3, [Constraint.greater_equal([(2, 1), (2, 2), (2, 3)], 4)], backend
        )
        engine.assume(-1)
        engine.assume(-2)
        conflict = engine.propagate()
        assert isinstance(conflict, Conflict)
        assert set(conflict.literals) <= {1, 2}

    def test_backtrack_to_zero_restores_slack(self, backend):
        engine = propagator_with(
            4,
            [Constraint.greater_equal([(3, 1), (3, 2), (2, 3), (2, 4)], 6)],
            backend,
        )
        engine.decide(-1)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(2)
        engine.backtrack(0)
        assert not engine.trail.is_assigned(1)
        assert not engine.trail.is_assigned(2)
        # the constraint still propagates correctly after the rewind
        engine.decide(-2)
        assert engine.propagate() is None
        assert engine.trail.literal_is_true(1)

    def test_violated_at_add_returns_conflict(self, backend):
        engine = make_engine(backend, 2)
        engine.assume(-1)
        engine.assume(-2)
        conflict = engine.add_constraint(
            Constraint.greater_equal([(2, 1), (2, 2)], 2)
        )
        assert isinstance(conflict, Conflict)

    def test_tautology_is_inert(self, backend):
        engine = make_engine(backend, 2)
        assert engine.add_constraint(Constraint.greater_equal([(2, 1)], 0)) is None
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_registered(self):
        names = available_engines()
        assert "counter" in names
        assert "array" not in names

    def test_descriptions_cover_all_engines(self):
        descriptions = engine_descriptions()
        for name in available_engines():
            assert descriptions[name]

    def test_make_engine_dispatches(self):
        assert isinstance(make_engine("counter", 4), Propagator)

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownEngineError):
            make_engine("no-such-backend", 4)
        with pytest.raises(UnknownEngineError):
            make_engine("watched", 4)
        with pytest.raises(UnknownEngineError):
            make_engine("array", 4)

    def test_unknown_engine_is_value_error(self):
        with pytest.raises(ValueError):
            make_engine("no-such-backend", 4)


# ----------------------------------------------------------------------
# Learned-constraint deletion (stale-reference audit)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestReduceLearnedMidSearch:
    def test_deleted_mid_search_never_wakes_again(self, backend):
        engine = make_engine(backend, 4)
        engine.add_constraint(Constraint.clause([1, 2, 3, 4]))
        assert engine.propagate() is None
        engine.decide(-1)
        assert engine.propagate() is None
        # learn two clauses mid-search, then forget one of them
        engine.add_constraint(Constraint.clause([2, 3]), learned=True)
        engine.add_constraint(Constraint.clause([1, 2]), learned=True)
        assert engine.propagate() is None
        removed = engine.reduce_learned(
            lambda stored: stored.constraint.literals == (2, 3)
        )
        assert removed == 1
        survivors = [s.constraint.literals for s in engine.database.constraints]
        assert (1, 2) not in survivors
        # back at the root, falsify the deleted clause's literals: a live
        # (1,2) would imply 2 under -1 and then conflict under -2, so the
        # silent propagates are the staleness proof
        engine.backtrack(0)
        engine.decide(-1)
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(2)  # deleted (1,2) stays silent
        engine.decide(-2)
        assert engine.propagate() is None  # a live (1,2) would conflict here
        assert engine.trail.literal_is_true(3)  # from the surviving (2,3)
        engine.backtrack(0)
        assert engine.propagate() is None

    def test_deleted_general_pb_mid_search(self, backend):
        engine = make_engine(backend, 3)
        engine.add_constraint(Constraint.clause([1, 2, 3]))
        assert engine.propagate() is None
        engine.decide(3)
        assert engine.propagate() is None
        engine.add_constraint(
            Constraint.greater_equal([(2, 1), (2, 2), (1, -3)], 2), learned=True
        )
        assert engine.propagate() is None
        assert engine.reduce_learned(lambda stored: False) == 1
        assert engine.database.num_learned() == 0
        # re-propagating after deletion must not touch the dead constraint
        engine.decide(-1)
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(2)
        engine.backtrack(0)
        assert engine.propagate() is None

    def test_pending_queue_purged_on_delete(self, backend):
        engine = make_engine(backend, 3)
        engine.decide(1)
        # added under assignment: sits in the pending queue unscanned
        engine.add_constraint(Constraint.clause([-1, 2, 3]), learned=True)
        assert engine.reduce_learned(lambda stored: False) == 1
        assert engine.propagate() is None
        assert not engine.trail.is_assigned(2)
        assert not engine.trail.is_assigned(3)
