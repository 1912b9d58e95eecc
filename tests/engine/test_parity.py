"""Golden parity suite: engine scoring == sequential scoring, bit-for-bit-ish.

The batched/bucketed scoring engine must be a pure optimisation: for every
public dataset pairing, its scores match the sequential one-pair-at-a-time
reference within 1e-8, across odd micro-batch sizes (1, a prime, larger
than the pair count).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import PUBLIC_NAMES, load_dataset
from repro.engine import EngineConfig, ScoringEngine, plan_microbatches
from repro.featurizers.bert import MatchingClassifier, score_encoded_batch
from repro.featurizers.base import make_pair_view
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import WordPieceTokenizer, stack_encoded
from repro.lm.vocab import build_vocab
from repro.text.corpus import build_corpus

#: Cap on pairs per dataset: a deterministic stride keeps every dataset and
#: a length-diverse cross-section of its Cartesian product in scope while
#: the suite stays fast.
MAX_PAIRS = 600
MAX_LENGTH = 32


def _batch_sizes(num_pairs: int) -> tuple[int, ...]:
    return (1, 7, num_pairs + 5)


@pytest.fixture(scope="module", params=PUBLIC_NAMES)
def scoring_stack(request):
    """(model, classifier, special_ids, encoded pairs, sequential scores)."""
    task = load_dataset(request.param)
    corpus = build_corpus(schemata=[task.target], seed=0)
    vocab = build_vocab(corpus, target_size=300)
    tokenizer = WordPieceTokenizer(vocab)
    # Parity is a property of the numerics, not of model quality: a
    # deterministic untrained encoder/classifier exercises the same code.
    model = MiniBert(
        BertConfig(
            vocab_size=len(vocab),
            hidden_size=32,
            num_layers=1,
            num_heads=2,
            intermediate_size=64,
            max_position=MAX_LENGTH,
        ),
        seed=1,
    )
    model.eval()
    classifier = MatchingClassifier(32, 16, np.random.default_rng(2))
    classifier.eval()
    special_ids = sorted(vocab.special_ids())

    views = [
        make_pair_view(task.source, task.target, source_ref, target_ref)
        for source_ref in task.source.attribute_refs()
        for target_ref in task.target.attribute_refs()
    ]
    stride = max(1, len(views) // MAX_PAIRS)
    views = views[::stride][:MAX_PAIRS]
    encoded = [
        tokenizer.encode_attribute_pair(
            view.source_name,
            view.source_description,
            view.target_name,
            view.target_description,
            max_length=MAX_LENGTH,
        )
        for view in views
    ]
    sequential = np.array(
        [
            score_encoded_batch(model, classifier, special_ids, stack_encoded([pair]))[0]
            for pair in encoded
        ]
    )
    return model, classifier, special_ids, encoded, sequential


def test_lengths_are_skewed(scoring_stack):
    """The datasets genuinely exercise bucketing: multiple distinct lengths."""
    _, _, _, encoded, _ = scoring_stack
    lengths = {int(pair.attention_mask.sum()) for pair in encoded}
    assert len(lengths) > 1


def test_monolithic_batch_matches_sequential(scoring_stack):
    """The naive all-in-one stacked batch equals the per-pair loop."""
    model, classifier, special_ids, encoded, sequential = scoring_stack
    batched = score_encoded_batch(model, classifier, special_ids, stack_encoded(encoded))
    np.testing.assert_allclose(batched, sequential, atol=1e-8, rtol=0)


def test_engine_matches_sequential(scoring_stack):
    """Bucketed engine scores equal the sequential reference."""
    model, classifier, special_ids, encoded, sequential = scoring_stack
    config = EngineConfig(bucket_granularity=4, persist_scores=False)
    engine = ScoringEngine(model, classifier, special_ids, config)
    for batch_size in _batch_sizes(len(encoded)):
        engine.config.microbatch_size = batch_size
        engine.clear_cached_scores()
        scores = engine.score_encoded(encoded)
        np.testing.assert_allclose(
            scores,
            sequential,
            atol=1e-8,
            rtol=0,
            err_msg=f"batch_size={batch_size}",
        )


def test_engine_scores_are_order_independent(scoring_stack):
    """Permuting the input permutes the output, nothing else."""
    model, classifier, special_ids, encoded, sequential = scoring_stack
    engine = ScoringEngine(
        model,
        classifier,
        special_ids,
        EngineConfig(microbatch_size=13, bucket_granularity=4, persist_scores=False),
    )
    permutation = np.random.default_rng(0).permutation(len(encoded))
    engine.clear_cached_scores()
    shuffled = engine.score_encoded([encoded[i] for i in permutation])
    np.testing.assert_allclose(shuffled, sequential[permutation], atol=1e-8, rtol=0)


def test_plan_covers_every_pair_once(scoring_stack):
    """The micro-batch plan is a partition of the input indices."""
    _, _, _, encoded, _ = scoring_stack
    plan = plan_microbatches(encoded, microbatch_size=7, bucket_granularity=4)
    seen = [index for microbatch in plan for index in microbatch.indices]
    assert sorted(seen) == list(range(len(encoded)))
    for microbatch in plan:
        assert len(microbatch.indices) <= 7
        lengths = microbatch.batch.attention_mask.sum(axis=1)
        assert int(lengths.max()) <= microbatch.padded_length
