"""Tests for the dtype filter and new-entity penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CandidateStore, ScoreAdjuster, entity_penalty
from repro.core.scoring import dtype_compatibility_mask
from repro.datasets.registry import retail_iss
from repro.datasets.scaled import scale_schema
from repro.schema import (
    AttributeRef,
    DataType,
    RetypeColumn,
    SchemaDelta,
    apply_delta,
)
from repro.schema.graph import JoinGraph

from ..conftest import make_source_schema, make_target_schema


@pytest.fixture()
def store(source_schema, target_schema):
    return CandidateStore(source_schema, target_schema)


class TestEntityPenaltyFormula:
    def test_zero_distance_no_penalty(self):
        assert entity_penalty(0) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        values = [entity_penalty(d) for d in range(6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_paper_formula(self):
        assert entity_penalty(1) == pytest.approx(1.0 / (1.0 + np.log(2.0)))


class TestDtypeFilter:
    def test_incompatible_pairs_zeroed(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema, apply_entity_penalty=False)
        scores = np.ones(store.num_pairs)
        adjusted = adjuster.adjust(scores)
        # qty (decimal) vs product_name (string) must be zeroed.
        pair_id = store.pair_id(
            AttributeRef("Orders", "qty"), AttributeRef("Product", "product_name")
        )
        assert adjusted[pair_id] == 0.0
        # qty vs quantity (decimal) survives.
        pair_id = store.pair_id(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        assert adjusted[pair_id] == 1.0

    def test_filter_can_be_disabled(self, store, target_schema):
        adjuster = ScoreAdjuster(
            store, target_schema, apply_dtype_filter=False, apply_entity_penalty=False
        )
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert (adjusted == 1.0).all()

    def test_input_not_mutated(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema)
        scores = np.ones(store.num_pairs)
        adjuster.adjust(scores)
        assert (scores == 1.0).all()

    def test_mask_recomputed_after_ensure_pair(self, store, target_schema, rng):
        adjuster = ScoreAdjuster(store, target_schema, apply_entity_penalty=False)
        adjuster.adjust(np.ones(store.num_pairs))
        store.prune(2, rng.random(store.num_pairs))
        store.ensure_pair(
            AttributeRef("Orders", "qty"), AttributeRef("Brand", "brand_name")
        )
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert adjusted.shape[0] == store.num_pairs

    def test_mask_recomputed_after_count_preserving_mutation(
        self, store, target_schema, rng
    ):
        """Regression: a mask cache keyed on pair *count* once silently zeroed
        the wrong candidates after a mutation that drops one pair and re-adds
        another (same count, shifted row layout)."""
        adjuster = ScoreAdjuster(store, target_schema, apply_entity_penalty=False)
        adjuster.adjust(np.ones(store.num_pairs))
        stale_mask = dtype_compatibility_mask(store)
        before = store.num_pairs

        all_pairs = set(zip(store.pair_source.tolist(), store.pair_target.tolist()))
        store.prune(store.num_targets - 1, rng.random(store.num_pairs))
        kept = set(zip(store.pair_source.tolist(), store.pair_target.tolist()))
        for source_index, target_index in sorted(all_pairs - kept):
            store.ensure_pair(
                store.source_refs[source_index], store.target_refs[target_index]
            )
        assert store.num_pairs == before  # same count...
        fresh_mask = dtype_compatibility_mask(store)
        assert not np.array_equal(stale_mask, fresh_mask)  # ...different layout

        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        np.testing.assert_array_equal(adjusted, np.where(fresh_mask, 1.0, 0.0))


class TestEntityPenalty:
    def test_no_penalty_without_matches(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema, apply_dtype_filter=False)
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert (adjusted == 1.0).all()

    def test_unmatched_entities_penalised_by_distance(self, store, target_schema):
        adjuster = ScoreAdjuster(store, target_schema, apply_dtype_filter=False)
        store.set_positive(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        # Transaction is matched: factor 1.  Product at distance 1, Brand 2.
        in_matched = store.pair_id(
            AttributeRef("Orders", "disc"),
            AttributeRef("Transaction", "price_change_percentage"),
        )
        one_hop = store.pair_id(
            AttributeRef("Orders", "disc"), AttributeRef("Product", "product_id")
        )
        two_hops = store.pair_id(
            AttributeRef("Orders", "disc"), AttributeRef("Brand", "brand_id")
        )
        assert adjusted[in_matched] == pytest.approx(1.0)
        assert adjusted[one_hop] == pytest.approx(entity_penalty(1))
        assert adjusted[two_hops] == pytest.approx(entity_penalty(2))
        assert adjusted[in_matched] > adjusted[one_hop] > adjusted[two_hops]


class TestComplexity:
    def test_dtype_checks_independent_of_pair_count(self, monkeypatch):
        """``adjust`` resolves dtypes by table lookup, not per pair: the
        number of ``is_compatible`` calls is bounded by the type lattice,
        never by sources x targets."""
        target = scale_schema(retail_iss(), 2)
        store = CandidateStore(make_source_schema(), target)
        assert store.num_targets > 2000
        calls = 0
        is_compatible = DataType.is_compatible

        def counting(self, other):
            nonlocal calls
            calls += 1
            return is_compatible(self, other)

        monkeypatch.setattr(DataType, "is_compatible", counting)
        adjuster = ScoreAdjuster(store, target)
        adjusted = adjuster.adjust(np.ones(store.num_pairs))
        assert calls <= len(DataType) ** 2
        assert 0 < np.count_nonzero(adjusted) < store.num_pairs


# -- oracle ---------------------------------------------------------------------


def _retyped(schema, dtypes):
    """``schema`` with attribute ``i`` (in ref order) retyped to ``dtypes[i]``."""
    operations = tuple(
        RetypeColumn(ref, dtype)
        for ref, dtype in zip(schema.attribute_refs(), dtypes)
        if schema.attribute(ref).dtype is not dtype
    )
    return apply_delta(schema, SchemaDelta(operations))[0] if operations else schema


def _reference_adjust(store, join_graph, scores):
    """Brute force, pair by pair: the dtype filter, then the entity penalty."""
    adjusted = scores.astype(np.float64)
    matched_entities = store.matched_target_entities()
    for pair_id in range(store.num_pairs):
        source = store.source_refs[int(store.pair_source[pair_id])]
        target = store.target_refs[int(store.pair_target[pair_id])]
        source_dtype = store.source_schema.attribute(source).dtype
        target_dtype = store.target_schema.attribute(target).dtype
        if not source_dtype.is_compatible(target_dtype):
            adjusted[pair_id] = 0.0
        if matched_entities and target.entity not in matched_entities:
            adjusted[pair_id] *= entity_penalty(
                join_graph.distance_to_set(target.entity, matched_entities)
            )
    return adjusted


_SOURCE = make_source_schema()
_TARGET = make_target_schema()
_DTYPE = st.sampled_from(list(DataType))


def _pair_indices(store):
    """Strategy: a (source index, target index) pair of ``store``."""
    return st.tuples(
        st.integers(0, store.num_sources - 1), st.integers(0, store.num_targets - 1)
    )


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        source_dtypes=st.lists(
            _DTYPE, min_size=_SOURCE.num_attributes, max_size=_SOURCE.num_attributes
        ),
        target_dtypes=st.lists(
            _DTYPE, min_size=_TARGET.num_attributes, max_size=_TARGET.num_attributes
        ),
        seed=st.integers(0, 2**32 - 1),
        keep=st.integers(1, _TARGET.num_attributes),
        count_preserving=st.booleans(),
        data=st.data(),
    )
    def test_adjust_equals_per_pair_reference(
        self, source_dtypes, target_dtypes, seed, keep, count_preserving, data
    ):
        rng = np.random.default_rng(seed)
        target = _retyped(_TARGET, target_dtypes)
        store = CandidateStore(_retyped(_SOURCE, source_dtypes), target)
        adjuster = ScoreAdjuster(store, target)
        join_graph = JoinGraph(target)

        def check():
            scores = rng.random(store.num_pairs)
            np.testing.assert_array_equal(
                adjuster.adjust(scores), _reference_adjust(store, join_graph, scores)
            )

        check()  # full product, nothing matched yet

        all_pairs = set(zip(store.pair_source.tolist(), store.pair_target.tolist()))
        store.prune(keep, rng.random(store.num_pairs))
        if count_preserving:
            # Re-add every pruned pair in random order: the pair count is back
            # to the full product's, but rows no longer sit where they did.
            kept = set(zip(store.pair_source.tolist(), store.pair_target.tolist()))
            missing = sorted(all_pairs - kept)
            for index in rng.permutation(len(missing)):
                source_index, target_index = missing[int(index)]
                store.ensure_pair(
                    store.source_refs[source_index], store.target_refs[target_index]
                )
            assert store.num_pairs == len(all_pairs)
        else:
            extra = data.draw(
                st.lists(_pair_indices(store), max_size=8), label="ensured pairs"
            )
            for source_index, target_index in extra:
                store.ensure_pair(
                    store.source_refs[source_index], store.target_refs[target_index]
                )
        check()

        labeled = data.draw(_pair_indices(store), label="labelled pair")
        store.set_positive(
            store.source_refs[labeled[0]], store.target_refs[labeled[1]]
        )
        assert store.matched_target_entities()
        check()  # penalty live

        retype_ref = store.source_refs[
            data.draw(st.integers(0, store.num_sources - 1), label="retyped column")
        ]
        old_dtype = store.source_schema.attribute(retype_ref).dtype
        new_dtype = data.draw(
            st.sampled_from([d for d in DataType if d is not old_dtype]),
            label="new dtype",
        )
        new_schema, effect = apply_delta(
            store.source_schema, SchemaDelta((RetypeColumn(retype_ref, new_dtype),))
        )
        store.apply_delta(new_schema, effect)
        assert store.source_schema.attribute(retype_ref).dtype is new_dtype
        check()  # retype seen without any invalidation call
