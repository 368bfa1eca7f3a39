"""Staleness-budget workload: compilation, routing, and detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hierarchy import HierarchyClass, classify_hierarchy
from repro.core import IntegrityMonitor, plan_constraints
from repro.database import History
from repro.logic import parse, to_str
from repro.service import MonitorService
from repro.workloads import (
    StalenessSpec,
    StalenessWorkloadConfig,
    clean_staleness_trace,
    fresh_use,
    generate_staleness,
    refresh_deadline,
    staleness_constraints,
    staleness_predicates,
    staleness_vocabulary,
    trace_with_stale_use,
)


class TestCompilation:
    def test_predicates_capitalize_field(self):
        assert staleness_predicates("price") == (
            "PriceStamp", "PriceUse", "PriceDrop",
        )

    def test_fresh_use_is_past_closed(self):
        info = classify_hierarchy(fresh_use("price", 2))
        assert info.cls is HierarchyClass.PAST_CLOSED

    def test_refresh_deadline_is_safety(self):
        info = classify_hierarchy(refresh_deadline("price", 2))
        assert info.cls is HierarchyClass.SAFETY

    def test_zero_budget_compiles_to_ban(self):
        formula = refresh_deadline("price", 0)
        assert to_str(formula) == to_str(
            parse("forall x . G (PriceStamp(x) -> false)")
        )

    def test_formula_size_linear_in_budget(self):
        sizes = [fresh_use("price", b).size() for b in (1, 2, 4, 8)]
        deltas = [b - a for a, b in zip(sizes, sizes[1:])]
        assert deltas[0] > 0
        # Each extra budget instant adds a constant-size Y-window.
        assert deltas[1] == 2 * deltas[0]
        assert deltas[2] == 4 * deltas[0]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            fresh_use("price", -1)
        with pytest.raises(ValueError):
            StalenessSpec("price", -1)

    def test_planner_routes_both_forms(self):
        plan = plan_constraints(
            staleness_constraints((StalenessSpec("price", 2),))
        )
        assert plan["fresh_use_price"].backend == "pasteval"
        assert plan["refresh_deadline_price"].backend == "progression"


class TestGenerator:
    @settings(max_examples=15, deadline=None)
    @given(
        budget=st.integers(1, 3),
        length=st.integers(5, 25),
        seed=st.integers(0, 50),
    )
    def test_clean_trace_satisfies_both_forms(self, budget, length, seed):
        trace = generate_staleness(
            StalenessWorkloadConfig(
                specs=(StalenessSpec("price", budget),),
                length=length,
                seed=seed,
            )
        )
        monitor = IntegrityMonitor(
            staleness_constraints((StalenessSpec("price", budget),)),
            History.empty(trace.vocabulary),
        )
        for state in trace.states():
            monitor.append_state(state)
        assert monitor.violations() == {}

    def test_injected_stale_use_is_detected(self):
        trace = trace_with_stale_use(length=20, budget=2, at=12)
        assert trace.stale_uses == [(12, "price", 3)]
        monitor = IntegrityMonitor(
            staleness_constraints((StalenessSpec("price", 2),)),
            History.empty(trace.vocabulary),
        )
        for state in trace.states():
            monitor.append_state(state)
        # The monitor starts one instant before the trace (the empty
        # initial state), so detection lands at trace instant + 1.
        assert monitor.violations() == {"fresh_use_price": 13}

    def test_generator_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="budget"):
            clean_staleness_trace(budget=0)

    def test_multi_field_vocabulary(self):
        specs = (StalenessSpec("price", 1), StalenessSpec("quote", 3))
        vocab = staleness_vocabulary(specs)
        assert set(vocab.predicates) == {
            "PriceStamp", "PriceUse", "PriceDrop",
            "QuoteStamp", "QuoteUse", "QuoteDrop",
        }
        constraints = staleness_constraints(specs)
        assert set(constraints) == {
            "fresh_use_price", "refresh_deadline_price",
            "fresh_use_quote", "refresh_deadline_quote",
        }

    def test_deterministic_given_seed(self):
        a = clean_staleness_trace(length=15, seed=7)
        b = clean_staleness_trace(length=15, seed=7)
        assert a.facts_per_instant == b.facts_per_instant


class TestServiceIntegration:
    def test_multi_field_set_shards_by_field(self):
        specs = (StalenessSpec("price", 2), StalenessSpec("quote", 2))
        constraints = staleness_constraints(specs)
        service = MonitorService(
            constraints,
            History.empty(staleness_vocabulary(specs)),
            shards=4,
        )
        # Each field's stamp/use/drop relations are private to the
        # field, so the partition gives one shard per field.
        assert service.shard_count == 2

    def test_end_to_end_detection_through_service(self):
        trace = trace_with_stale_use(length=18, budget=2, at=10)
        service = MonitorService(
            staleness_constraints((StalenessSpec("price", 2),)),
            History.empty(trace.vocabulary),
            shards=2,
        )
        for state in trace.states():
            service.apply_state(state, session="feed")
        assert service.violations() == {"fresh_use_price": 11}
        assert service.sessions() == {"feed": 18}
