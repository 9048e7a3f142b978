"""Tests for the metrics registry (repro.obs.metrics).

Covers instrument semantics (counter/gauge/histogram), family labeling
rules, deterministic exposition, cross-process snapshot/merge, the
NULL_METRICS zero-cost contract, and solver integration (counters agree
with SolverStats).
"""

import pytest

from repro import SolverOptions, parse, solve
from repro.api import available_solvers
from repro.benchgen import routing_suite
from repro.experiments.table1 import family_instances
from repro.core.solver import BsoloSolver
from repro.obs import NULL_TRACER, LowerBoundEvent, TeeTracer, Tracer, sink_for
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    NULL_METRICS,
    NullMetricsRegistry,
)

OPT_INSTANCE = """\
* #variable= 3 #constraint= 3
min: +1 x1 +2 x2 +3 x3 ;
+1 x1 +1 x2 >= 1 ;
+1 x2 +1 x3 >= 1 ;
+1 x1 +1 x3 >= 1 ;
"""


class TestInstruments:
    """Raw instrument semantics."""

    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5

    def test_histogram_buckets_and_sum(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)  # lands in the +Inf tail
        assert hist.count == 3
        assert hist.sum == 105.5
        assert hist.counts == [1, 1, 1]

    def test_histogram_cumulative_rendering(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        assert hist.cumulative() == [("1", 1), ("10", 2), ("+Inf", 3)]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    """Family registration, labels, and lookup."""

    def test_unlabeled_counter_returns_instrument(self):
        registry = MetricsRegistry()
        counter = registry.counter("decisions", "decisions made")
        counter.inc(3)
        assert registry.get_value("decisions") == 3

    def test_labeled_family_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("conflicts", labels=("type",))
        family.labels(type="logic").inc(2)
        family.labels(type="bound").inc(1)
        assert registry.get_value("conflicts", type="logic") == 2
        assert registry.get_value("conflicts", type="bound") == 1

    def test_labels_must_match_declaration(self):
        registry = MetricsRegistry()
        family = registry.counter("conflicts", labels=("type",))
        with pytest.raises(ValueError):
            family.labels(wrong="x")
        with pytest.raises(ValueError):
            family.labels()

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", labels=("outcome",))
        second = registry.counter("hits", labels=("outcome",))
        first.labels(outcome="hit").inc()
        second.labels(outcome="hit").inc()
        assert registry.get_value("hits", outcome="hit") == 2

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("x", labels=("a",))

    def test_get_value_missing_returns_none(self):
        registry = MetricsRegistry()
        assert registry.get_value("nothing") is None
        registry.counter("present", labels=("k",))
        assert registry.get_value("present", k="never-touched") is None

    def test_get_value_histogram_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        hist.observe(0.25)
        assert registry.get_value("latency") == {"sum": 0.25, "count": 1}


class TestExposition:
    """render_text / as_dict determinism."""

    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("b_counter", "second family").inc(2)
        family = registry.counter("a_counter", "first family", labels=("kind",))
        family.labels(kind="z").inc()
        family.labels(kind="a").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        return registry

    def test_render_text_is_deterministic_and_sorted(self):
        text_a = self._populated().render_text()
        text_b = self._populated().render_text()
        assert text_a == text_b
        # families lexicographic, label values lexicographic within
        assert text_a.index("a_counter") < text_a.index("b_counter")
        assert text_a.index('kind="a"') < text_a.index('kind="z"')

    def test_render_text_prometheus_shapes(self):
        text = self._populated().render_text()
        assert "# TYPE a_counter counter" in text
        assert '# HELP a_counter first family' in text
        assert 'a_counter{kind="a"} 3' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 0.5" in text
        assert "h_count 1" in text
        assert text.endswith("\n")

    def test_as_dict_round_trips_values(self):
        data = self._populated().as_dict()
        assert data["b_counter"]["samples"][0]["value"] == 2
        kinds = {
            sample["labels"]["kind"]: sample["value"]
            for sample in data["a_counter"]["samples"]
        }
        assert kinds == {"a": 3, "z": 1}
        hist = data["h"]["samples"][0]
        assert hist["count"] == 1
        assert hist["buckets"][-1] == {"le": "+Inf", "count": 1}

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_text() == ""
        assert MetricsRegistry().as_dict() == {}


class TestSnapshotMerge:
    """Cross-process aggregation: snapshot() -> merge_snapshot()."""

    def test_counters_add(self):
        worker = MetricsRegistry()
        worker.counter("decisions").inc(4)
        coordinator = MetricsRegistry()
        coordinator.counter("decisions").inc(1)
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.get_value("decisions") == 5

    def test_gauges_take_last_write(self):
        worker = MetricsRegistry()
        worker.gauge("depth").set(7)
        coordinator = MetricsRegistry()
        coordinator.gauge("depth").set(3)
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.get_value("depth") == 7

    def test_histograms_add_binwise(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        coordinator = MetricsRegistry()
        coordinator.histogram("lat", buckets=(1.0,)).observe(2.0)
        coordinator.merge_snapshot(worker.snapshot())
        value = coordinator.get_value("lat")
        assert value == {"sum": 2.5, "count": 2}

    def test_merge_creates_missing_families(self):
        worker = MetricsRegistry()
        worker.counter("only_in_worker", "w", labels=("k",)).labels(k="x").inc(2)
        coordinator = MetricsRegistry()
        coordinator.merge_snapshot(worker.snapshot())
        assert coordinator.get_value("only_in_worker", k="x") == 2
        # metadata travelled too: re-registration must agree
        coordinator.counter("only_in_worker", labels=("k",))

    def test_merge_is_associative_over_workers(self):
        snaps = []
        for amount in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("n").inc(amount)
            snaps.append(registry.snapshot())
        left = MetricsRegistry()
        for snap in snaps:
            left.merge_snapshot(snap)
        right = MetricsRegistry()
        for snap in reversed(snaps):
            right.merge_snapshot(snap)
        assert left.render_text() == right.render_text()
        assert left.get_value("n") == 6

    def test_histogram_bucket_mismatch_rejected(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        coordinator = MetricsRegistry()
        coordinator.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            coordinator.merge_snapshot(worker.snapshot())

    def test_snapshot_is_plain_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", labels=("k",)).labels(k="v").inc()
        registry.histogram("h").observe(0.1)
        json.dumps(registry.snapshot())  # must be JSON/pickle-safe


class TestNullMetrics:
    """The disabled registry is inert and branch-free to wire."""

    def test_disabled_flag(self):
        assert NULL_METRICS.enabled is False
        assert MetricsRegistry().enabled is True

    def test_instruments_accept_all_operations(self):
        counter = NULL_METRICS.counter("x", labels=("k",))
        counter.labels(k="v").inc(5)
        NULL_METRICS.gauge("g").set(3)
        NULL_METRICS.gauge("g").dec()
        NULL_METRICS.histogram("h").observe(1.0)
        assert NULL_METRICS.render_text() == ""
        assert NULL_METRICS.as_dict() == {}
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.get_value("x", k="v") is None

    def test_merge_into_null_is_dropped(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        null = NullMetricsRegistry()
        null.merge_snapshot(registry.snapshot())
        assert null.families() == []


class TestSolverIntegration:
    """Metrics recorded during a real solve agree with SolverStats."""

    def test_solve_records_consistent_counters(self):
        instance = parse(OPT_INSTANCE)
        registry = MetricsRegistry()
        result = solve(instance, SolverOptions(metrics=registry))
        assert result.status == "optimal"
        assert result.best_cost == 3
        assert (
            registry.get_value("solver_decisions") == result.stats.decisions
        )
        text = registry.render_text()
        assert "engine_propagations" in text
        # propagation counters carry the backend label
        assert 'backend="' in text

    def test_default_solve_records_nothing(self):
        # No tracer and no (or a disabled) registry: the solve reports to
        # the null sink, and the engine runs its raw propagation loop.
        assert sink_for(SolverOptions()) is NULL_TRACER
        assert sink_for(SolverOptions(metrics=NULL_METRICS)) is NULL_TRACER
        solver = BsoloSolver(parse(OPT_INSTANCE))
        assert solver._tracer is NULL_TRACER
        propagator = solver._propagator
        assert propagator.propagate == propagator._propagate_loop
        assert solver.solve().status == "optimal"
        assert propagator.propagate_calls == 0

    def test_lower_bound_histogram_observed(self):
        instance = parse(OPT_INSTANCE)
        registry = MetricsRegistry()
        result = solve(instance, SolverOptions(metrics=registry))
        assert result.status == "optimal"
        calls = result.stats.lower_bound_calls
        if calls:
            family = registry.as_dict().get("solver_lower_bound_seconds")
            assert family is not None
            observed = sum(sample["count"] for sample in family["samples"])
            assert observed == calls

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class ListTracer(Tracer):
    """Collects events in memory."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestEventSink:
    """The registry is one subscriber of the search-event stream."""

    def test_resolver_tees_tracer_and_registry(self):
        tracer = ListTracer()
        registry = MetricsRegistry()
        assert sink_for(SolverOptions(tracer=tracer)) is tracer
        assert isinstance(sink_for(SolverOptions(metrics=registry)), MetricsSink)
        both = sink_for(SolverOptions(tracer=tracer, metrics=registry))
        assert isinstance(both, TeeTracer)
        result = solve(
            parse(OPT_INSTANCE), SolverOptions(tracer=tracer, metrics=registry)
        )
        kinds = [event.kind for event in tracer.events]
        assert registry.get_value("solver_decisions") == kinds.count("decision")
        assert registry.get_value("solver_decisions") == result.stats.decisions
        calls = tracer.events[-1].propagate_calls
        assert calls > 0
        assert registry.get_value("engine_propagate_calls", backend="counter") == calls

    def test_decision_budget_exit_counts_only_made_decisions(self):
        tracer = ListTracer()
        registry = MetricsRegistry()
        result = solve(
            routing_suite(count=3, seed=7)[2],
            SolverOptions(
                lower_bound="mis", max_decisions=5, tracer=tracer, metrics=registry
            ),
        )
        decisions = [e for e in tracer.events if e.kind == "decision"]
        assert result.stats.decisions == 5
        assert len(decisions) == 5
        assert registry.get_value("solver_decisions") == 5

    def test_covering_bnb_prunings_match_bound_events(self):
        tracer = ListTracer()
        registry = MetricsRegistry()
        instances, _ = family_instances("mcnc", count=1, scale=0.6)
        result = solve(
            instances[0], "covering-bnb", tracer=tracer, metrics=registry
        )
        pruned = [
            e for e in tracer.events
            if isinstance(e, LowerBoundEvent) and e.pruned and not e.infeasible
        ]
        assert result.stats.prunings > 0
        assert result.stats.prunings == len(pruned)
        assert registry.get_value("solver_prunings") == result.stats.prunings

    @pytest.mark.parametrize("method", ["mis", "lpr"])
    def test_declined_prunes_are_traced_once_after_certification(
        self, monkeypatch, method
    ):
        # Every other certificate fails: half the prunes the bound calls
        # for are declined (mis declines on the value path, lpr also on
        # the infeasibility path).
        calls = {"n": 0}

        def alternate(original):
            def certify(self, *args):
                original(self, *args)
                calls["n"] += 1
                return calls["n"] % 2 == 0
            return certify

        for name in ("_certify_infeasibility", "_certify_bound_clause"):
            monkeypatch.setattr(
                BsoloSolver, name, alternate(getattr(BsoloSolver, name))
            )
        tracer = ListTracer()
        registry = MetricsRegistry()
        instance = routing_suite(count=3, seed=7)[2]
        result = solve(
            instance,
            SolverOptions(lower_bound=method, tracer=tracer, metrics=registry),
        )
        stats = result.stats
        bounds = [e for e in tracer.events if isinstance(e, LowerBoundEvent)]
        pruned = [e for e in bounds if e.pruned]
        declined = [e for e in bounds if e.declined]
        assert stats.uncertified_prunes > 0
        if method == "lpr":
            assert any(e.infeasible for e in declined)
        assert len(bounds) == stats.lower_bound_calls
        assert len([e for e in pruned if not e.infeasible]) == stats.prunings
        assert len(pruned) == stats.bound_conflicts
        assert not any(e.pruned and e.declined for e in bounds)
        assert len(declined) == stats.uncertified_prunes
        assert registry.get_value("solver_uncertified_prunes") == len(declined)
        assert registry.get_value("solver_prunings") == stats.prunings


CLAUSE_OPTIMUM = parse(OPT_INSTANCE)


@pytest.mark.parametrize(
    "name", [name for name in available_solvers() if name != "portfolio"]
)
def test_metrics_work_for_every_registry_solver(name):
    registry = MetricsRegistry()
    result = solve(CLAUSE_OPTIMUM, name, metrics=registry)
    assert result.status == "optimal"
    assert (registry.get_value("solver_incumbents") or 0) >= 1
