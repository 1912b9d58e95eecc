"""Regression tests for :class:`MatchingSession` thread-safety and close().

The serving front end shares one session between a scoring task and the
user's feedback stream, and may close it while a ``run()`` is mid-flight.
These pin the contract: ``close()`` is idempotent, the predict/label surface
raises (never corrupts) after close, concurrent mutators serialise under the
session lock, and a close landing mid-run stops the loop at an iteration
boundary instead of tearing the matcher out from under a scoring pass.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
)
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import AttributeRef


@pytest.fixture()
def session(source_schema, target_schema, tiny_artifacts, ground_truth):
    config = LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        seed=0,
    )
    matcher = LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )
    oracle = GroundTruthOracle(ground_truth, target_schema)
    session = MatchingSession(matcher, oracle)
    yield session
    session.close()


class TestClose:
    def test_close_is_idempotent(self, session):
        session.close()
        session.close()  # second close must be a no-op, not a double-release
        assert session.closed

    def test_context_manager_tolerates_explicit_close(self, session):
        with session:
            session.close()
        assert session.closed  # __exit__ closed an already-closed session

    def test_session_leaves_no_helpers(
        self, session, ground_truth, assert_no_helpers_left
    ):
        session.predict()
        source, target = next(iter(ground_truth.items()))
        session.record_match(source, target)
        session.predict()
        session.close()
        assert_no_helpers_left()

    def test_predict_after_close_raises(self, session):
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.predict()

    def test_mutators_after_close_raise(self, session, ground_truth):
        source = AttributeRef("Orders", "qty")
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.record_match(source, ground_truth[source])
        with pytest.raises(RuntimeError, match="closed"):
            session.record_rejected(source, [ground_truth[source]])

    def test_run_after_close_raises(self, session):
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run()


class TestConcurrentAccess:
    def test_threaded_predict_and_record_serialise(self, session, ground_truth):
        """Hammer predict() and the label mutators from racing threads; the
        session lock must serialise them with no exception or corruption."""
        errors: list[BaseException] = []
        barrier = threading.Barrier(3)
        items = list(ground_truth.items())

        def predicts():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    predictions = session.predict()
                    assert predictions.suggestions
            except BaseException as error:
                errors.append(error)

        def records():
            try:
                barrier.wait(timeout=30)
                for source, target in items[:4]:
                    session.record_match(source, target)
            except BaseException as error:
                errors.append(error)

        def rejects():
            try:
                barrier.wait(timeout=30)
                source, target = items[-1]
                for _ in range(3):
                    session.record_rejected(source, [target])
            except BaseException as error:
                errors.append(error)

        threads = [
            threading.Thread(target=fn) for fn in (predicts, records, rejects)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        # The recorded matches all landed.
        matched = session.matcher.store.matched_sources()
        assert {source for source, _ in items[:4]} <= set(matched)

    def test_close_during_run_stops_at_iteration_boundary(
        self, source_schema, target_schema, tiny_artifacts, ground_truth
    ):
        config = LsmConfig(
            bert=BertFeaturizerConfig(
                max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
            ),
            seed=0,
        )
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle)
        started = threading.Event()
        original_predict = matcher.predict

        def signalling_predict():
            started.set()
            return original_predict()

        matcher.predict = signalling_predict
        results: list = []

        def runner():
            results.append(session.run())

        thread = threading.Thread(target=runner)
        thread.start()
        assert started.wait(timeout=60)
        session.close()  # lands while run() holds or contends the lock
        thread.join(timeout=300)
        assert not thread.is_alive()
        # run() returned a coherent (possibly truncated) result, no crash.
        assert len(results) == 1
        assert session.closed
        # The loop stopped early OR finished its current pass -- either way
        # it never ran the full default iteration budget after the close.
        assert len(results[0].records) <= session.max_iterations
