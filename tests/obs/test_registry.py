"""Tests for the metrics registry and the cross-snapshot merge protocol."""

from dataclasses import fields

import pytest

from repro.engine.stats import EngineStats
from repro.nn.stats import TrainStats
from repro.obs import MetricsRegistry, merge_metrics
from repro.store.stats import CacheStats


def engine_counter_names() -> list[str]:
    """Every integer counter of :class:`EngineStats` (stage dicts excluded)."""
    return [
        f.name
        for f in fields(EngineStats)
        if f.name not in ("stage_seconds", "stage_calls")
    ]


class TestMetricsRegistry:
    def test_registers_as_dict_objects(self):
        registry = MetricsRegistry()
        stats = EngineStats()
        registry.register("engine", stats)
        stats.pairs_scored = 5  # lazily resolved: later growth is visible
        assert registry.as_dict()["engine.pairs_scored"] == 5

    def test_registers_callables(self):
        registry = MetricsRegistry()
        registry.register("fn", lambda: {"a": 1})
        registry.register("obj", lambda: CacheStats(hits=2))
        flat = registry.as_dict()
        assert flat["fn.a"] == 1
        assert flat["obj.hits"] == 2

    def test_snapshot_is_nested(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: {"k": 1})
        assert registry.snapshot() == {"x": {"k": 1}}

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: {})
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("x", lambda: {})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register("", lambda: {})

    def test_invalid_source_rejected(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("bad", object())

    def test_source_must_produce_mapping(self):
        registry = MetricsRegistry()
        registry.register("bad", lambda: 42)
        with pytest.raises(TypeError, match="expected a mapping"):
            registry.as_dict()

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.register("b", lambda: {})
        registry.register("a", lambda: {})
        assert registry.names() == ["a", "b"]

    def test_unified_pipeline_sources(self):
        """The tentpole wiring: engine/train/store stats under one roof."""
        registry = MetricsRegistry()
        registry.register("engine", EngineStats(pairs_scored=3))
        registry.register("train", TrainStats(steps=2))
        registry.register("store", CacheStats(hits=1))
        flat = registry.as_dict()
        assert flat["engine.pairs_scored"] == 3
        assert flat["train.steps"] == 2
        assert flat["store.hits"] == 1


class TestMergeMetrics:
    def test_numbers_sum(self):
        assert merge_metrics({"a": 1}, {"a": 2.5}) == {"a": 3.5}

    def test_lists_concatenate(self):
        assert merge_metrics({"q": ["x"]}, {"q": ["y"]}) == {"q": ["x", "y"]}

    def test_nested_dicts_recurse(self):
        left = {"engine": {"pairs": 1, "only_left": 2}}
        right = {"engine": {"pairs": 3}, "only_right": 4}
        assert merge_metrics(left, right) == {
            "engine": {"pairs": 4, "only_left": 2},
            "only_right": 4,
        }

    def test_mismatched_types_right_wins(self):
        assert merge_metrics({"a": "x"}, {"a": "y"}) == {"a": "y"}

    def test_disjoint_keys_pass_through(self):
        assert merge_metrics({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}


class TestStatsMerge:
    def test_engine_stats_merge(self):
        left = EngineStats(pairs_scored=2, scoring_calls=1)
        left.add_time("forward", 1.0)
        right = EngineStats(pairs_scored=3, pairs_skipped=4)
        right.add_time("forward", 0.5, calls=2)
        right.add_time("bucket", 0.25)
        merged = left.merge(right)
        assert merged.pairs_scored == 5
        assert merged.pairs_skipped == 4
        assert merged.scoring_calls == 1
        assert merged.stage_seconds["forward"] == pytest.approx(1.5)
        assert merged.stage_calls["forward"] == 3
        assert merged.stage_seconds["bucket"] == pytest.approx(0.25)
        # Inputs untouched.
        assert left.pairs_scored == 2 and right.pairs_scored == 3

    def test_train_stats_merge(self):
        left = TrainStats(steps=10, warm_starts=1)
        left.add_time("backward", 2.0)
        right = TrainStats(steps=5, cold_starts=2)
        right.add_time("backward", 1.0)
        merged = left.merge(right)
        assert merged.steps == 15
        assert merged.warm_starts == 1
        assert merged.cold_starts == 2
        assert merged.stage_seconds["backward"] == pytest.approx(3.0)
        assert merged.stage_calls["backward"] == 2

    def test_engine_stats_merge_covers_every_counter(self):
        """Every integer counter sums under merge(), not just a chosen few."""
        counters = engine_counter_names()
        left = EngineStats(**{name: 1 + i for i, name in enumerate(counters)})
        right = EngineStats(**{name: 10 for name in counters})
        merged = left.merge(right)
        for i, name in enumerate(counters):
            assert getattr(merged, name) == 11 + i, name

    def test_fresh_engine_stats_render_every_counter_as_zero(self):
        """as_dict derives from the dataclass fields: new counters never
        vanish from the rendered snapshot just because they are zero."""
        rendered = EngineStats().as_dict()
        for name in engine_counter_names():
            assert name in rendered and rendered[name] == 0

    def test_merge_round_trips_through_registry_protocol(self):
        """Stats merge() and snapshot merge_metrics() agree on the totals."""
        left, right = EngineStats(pairs_scored=2), EngineStats(pairs_scored=3)
        via_stats = left.merge(right).as_dict()
        via_snapshots = merge_metrics(left.as_dict(), right.as_dict())
        assert via_stats == via_snapshots

    def test_merge_round_trips_with_every_counter_set(self):
        counters = engine_counter_names()
        left = EngineStats(**{name: 2 for name in counters})
        right = EngineStats(**{name: i for i, name in enumerate(counters)})
        via_stats = left.merge(right).as_dict()
        via_snapshots = merge_metrics(left.as_dict(), right.as_dict())
        assert via_stats == via_snapshots
