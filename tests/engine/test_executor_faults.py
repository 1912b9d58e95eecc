"""Fault injection for the serving ladder: the shm rung degrades, never errors.

Covers the :class:`RetryGate` policy and its use by the shm plane's pool
creation, worker death mid-map, shm segment-creation failure and the fully
disabled shm plane
(``REPRO_DISABLE_SHM``) -- each falling back to in-process scoring with
scores bit-identical to an in-process engine, the right fallback counters
and no leaked ``/dev/shm`` segments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    RetryGate,
    ScoringEngine,
    ShmServingPlane,
    live_segment_names,
)
from repro.featurizers.bert import MatchingClassifier, score_encoded_batch
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair, stack_encoded


def encoded_of_length(length: int, width: int = 32, fill: int = 7) -> EncodedPair:
    input_ids = np.zeros(width, dtype=np.int64)
    input_ids[:length] = fill
    attention = np.zeros(width, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(width, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


@pytest.fixture(scope="module")
def tiny_stack():
    model = MiniBert(
        BertConfig(vocab_size=50, hidden_size=16, num_layers=1, num_heads=2,
                   intermediate_size=32, max_position=32),
        seed=0,
    )
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(1))
    classifier.eval()
    return model, classifier, [0, 1, 2, 3, 4]


@pytest.fixture
def encoded():
    return [encoded_of_length(length, fill=5) for length in (4, 9, 14, 20, 6, 11)]


class TestRetryGate:
    def test_cooldown_then_retry(self):
        gate = RetryGate(cooldown=2, max_failures=3)
        assert gate.may_attempt()
        gate.record_failure()
        # Two eligible calls are skipped, the third is let through.
        assert not gate.may_attempt()
        assert not gate.may_attempt()
        assert gate.may_attempt()

    def test_exhaustion_is_permanent(self):
        gate = RetryGate(cooldown=0, max_failures=2)
        gate.record_failure()
        gate.record_failure()
        assert gate.exhausted
        assert not gate.may_attempt()

    def test_success_resets_failures(self):
        gate = RetryGate(cooldown=0, max_failures=2)
        gate.record_failure()
        gate.record_success()
        gate.record_failure()
        assert not gate.exhausted

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="cooldown"):
            RetryGate(cooldown=-1)
        with pytest.raises(ValueError, match="max_failures"):
            RetryGate(max_failures=0)


class _FailNTimesContext:
    """A multiprocessing context whose Pool() fails the first ``n`` calls."""

    def __init__(self, failures: int) -> None:
        self.remaining_failures = failures
        self.pools_created = 0

    def Pool(self, processes, initializer, initargs):
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise OSError("synthetic resource blip")
        self.pools_created += 1
        return _HealthyPool()


class _HealthyPool:
    """A pool whose workers all answer the plane's post-spawn health ping."""

    def map_async(self, fn, tasks):
        return _Ready([True for _ in tasks])

    def terminate(self):
        pass

    def join(self):
        pass


class _Ready:
    def __init__(self, value) -> None:
        self.value = value

    def get(self, timeout=None):
        return self.value


class TestPlanePoolRetry:
    """Pool creation on the shm plane goes through the bounded RetryGate."""

    def make_plane(self, cooldown: int, max_failures: int) -> ShmServingPlane:
        return ShmServingPlane(
            n_workers=2,
            start_method="spawn",
            bootstrap_extra={
                "bert_config": {},
                "hidden_size": 16,
                "classifier_size": 8,
                "special_ids": [0],
            },
            scratch_min_bytes=0,
            retry_cooldown=cooldown,
            max_pool_failures=max_failures,
        )

    def test_transient_creation_failure_recovers_after_cooldown(self, monkeypatch):
        import multiprocessing

        context = _FailNTimesContext(failures=1)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
        plane = self.make_plane(cooldown=2, max_failures=3)
        try:
            assert not plane._ensure_pool()
            assert plane.usable  # not sticky-broken
            # Two eligible calls ride out the cooldown, the third spawns.
            assert not plane._ensure_pool()
            assert not plane._ensure_pool()
            assert plane._ensure_pool()
            assert context.pools_created == 1
        finally:
            plane.close()
        assert not live_segment_names()

    def test_repeated_failures_exhaust_the_gate(self, monkeypatch):
        import multiprocessing

        context = _FailNTimesContext(failures=99)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
        plane = self.make_plane(cooldown=0, max_failures=2)
        try:
            assert not plane._ensure_pool()
            assert not plane._ensure_pool()
            assert plane._gate.exhausted
            assert not plane.usable
        finally:
            plane.close()
        assert not live_segment_names()


class _ExplodingPool:
    """A pool whose map dies mid-flight (worker death / lost connection)."""

    def map(self, fn, tasks, chunksize=1):
        raise BrokenPipeError("worker died mid-map")

    def terminate(self):
        pass

    def join(self):
        pass


class TestLadderFaults:
    """End-to-end: induced faults fall down the ladder, scores stay exact."""

    def _reference(self, tiny_stack, encoded) -> np.ndarray:
        model, classifier, special_ids = tiny_stack
        return score_encoded_batch(model, classifier, special_ids, stack_encoded(encoded))

    def _inprocess(self, tiny_stack, encoded) -> np.ndarray:
        """Scores of an engine without workers, on the same micro-batch plan."""
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(n_workers=0, microbatch_size=2, persist_scores=False)
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            return engine.score_encoded(encoded)
        finally:
            engine.close()

    def test_worker_death_mid_map_falls_back_with_parity(self, tiny_stack, encoded):
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(
            n_workers=2,
            min_pairs_for_workers=1,
            microbatch_size=2,
            persist_scores=False,
        )
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            assert engine._plane is not None
            # Plant a live-looking pool that dies on first use.
            engine._plane._pool = _ExplodingPool()
            scores = engine.score_encoded(encoded)
            np.testing.assert_allclose(
                scores, self._reference(tiny_stack, encoded), atol=1e-8, rtol=0
            )
            np.testing.assert_array_equal(scores, self._inprocess(tiny_stack, encoded))
            assert engine.stats.shm_fallbacks == 1
            assert engine.stats.worker_fallbacks == 1
            assert engine.stats.inprocess_batches > 0
            # The dead pool was torn down, not left to poison later calls.
            assert engine._plane._pool is None
        finally:
            engine.close()
        assert not live_segment_names()

    def test_shm_segment_creation_failure_falls_back_in_process(
        self, tiny_stack, encoded, monkeypatch
    ):
        from repro.engine import shm as shm_module

        def refuse(name, size):
            raise OSError("no shared memory for you")

        monkeypatch.setattr(shm_module, "_new_segment", refuse)
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(
            n_workers=2, min_pairs_for_workers=1, microbatch_size=2,
            persist_scores=False,
        )
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            scores = engine.score_encoded(encoded)
            np.testing.assert_allclose(
                scores, self._reference(tiny_stack, encoded), atol=1e-8, rtol=0
            )
            np.testing.assert_array_equal(scores, self._inprocess(tiny_stack, encoded))
            # The shm rung failed once and the plan was scored in-process.
            assert engine.stats.shm_fallbacks == 1
            assert engine.stats.shm_batches == 0
            assert engine.stats.worker_batches == 0
            assert engine.stats.worker_fallbacks == 1
            assert engine.stats.inprocess_batches > 0
        finally:
            engine.close()
        assert not live_segment_names()

    def test_disabled_shm_serves_identically_via_fallback_ladder(
        self, tiny_stack, encoded, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(
            n_workers=2, min_pairs_for_workers=1, microbatch_size=2,
            persist_scores=False,
        )
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            assert engine._plane is None
            scores = engine.score_encoded(encoded)
            np.testing.assert_allclose(
                scores, self._reference(tiny_stack, encoded), atol=1e-8, rtol=0
            )
            np.testing.assert_array_equal(scores, self._inprocess(tiny_stack, encoded))
            assert engine.stats.shm_batches == 0
            assert engine.stats.worker_batches == 0
            assert engine.stats.worker_fallbacks == 1
            assert engine.stats.inprocess_batches > 0
            info = engine.serving_info()
            assert info["serving.shm_available"] is False
        finally:
            engine.close()
        assert not live_segment_names()

    def test_stale_orphan_from_crashed_run_does_not_block_startup(
        self, tiny_stack, encoded, monkeypatch
    ):
        """A leftover segment colliding with the arena's name is reclaimed."""
        from multiprocessing import shared_memory

        from repro.engine import shm as shm_module

        monkeypatch.setattr(
            shm_module.uuid, "uuid4", lambda: type("U", (), {"hex": "feedfeed" * 4})()
        )
        import os as _os

        orphan_name = f"repro-{_os.getpid()}-feedfeed-ctrl"
        orphan = shared_memory.SharedMemory(name=orphan_name, create=True, size=64)
        orphan.buf[:8] = b"\xff" * 8  # garbage stamp from the "crashed" run
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(
            n_workers=2, min_pairs_for_workers=1, microbatch_size=2,
            persist_scores=False,
        )
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            scores = engine.score_encoded(encoded)
            np.testing.assert_allclose(
                scores, self._reference(tiny_stack, encoded), atol=1e-8, rtol=0
            )
            assert engine.stats.shm_batches > 0
            assert engine.stats.worker_fallbacks == 0
        finally:
            engine.close()
            try:
                orphan.close()
            except BufferError:
                pass
        assert not live_segment_names()
