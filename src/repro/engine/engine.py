"""The batched, incremental scoring engine.

``ScoringEngine`` owns the hot path of BERT featurization: given a list of
encoded candidate pairs it

1. **fingerprints** each pair (a content hash of its token/segment arrays)
   and serves every pair already scored under the current model version from
   an in-memory cache -- after a ``predict()`` that changed nothing, zero
   encoder work happens;
2. plans the remaining pairs into **length-bucketed micro-batches**
   (:mod:`repro.engine.batching`) so short names stop paying the padding
   cost of long descriptions;
3. scores the plan in-process in float32, one micro-batch at a time;
4. **persists score blocks** through :mod:`repro.store`, keyed by the exact
   model weights, so re-running an experiment skips straight to cached
   scores across processes.

Model updates call :meth:`ScoringEngine.invalidate_model`; that bumps the
version and drops stale scores.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..lm.tokenizer import EncodedPair
from .batching import MicroBatch, plan_bucket_chunks, plan_microbatches, plan_num_buckets
from .stats import EngineStats

#: Bytes of one pair fingerprint (blake2b digest size).
FINGERPRINT_BYTES = 16


@dataclass
class EngineConfig:
    """Knobs of the scoring engine (exposed on :class:`repro.core.config.LsmConfig`).

    Attributes
    ----------
    microbatch_size:
        Maximum rows per micro-batch.
    bucket_granularity:
        Padded lengths are rounded up to a multiple of this; 1 packs each
        exact length separately, larger values trade padding for fewer,
        fuller batches.
    persist_scores:
        Persist/load score blocks through :mod:`repro.store`, keyed by the
        exact model weights and pair contents.
    """

    microbatch_size: int = 64
    bucket_granularity: int = 8
    persist_scores: bool = True

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if self.bucket_granularity < 1:
            raise ValueError("bucket_granularity must be >= 1")


def fingerprint_encoded(pair: EncodedPair) -> bytes:
    """Content hash of one encoded pair's model-visible arrays."""
    digest = hashlib.blake2b(digest_size=FINGERPRINT_BYTES)
    digest.update(np.ascontiguousarray(pair.input_ids).tobytes())
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(pair.segment_ids).tobytes())
    return digest.digest()


class ScoringEngine:
    """Batched, incremental scorer over (MiniBERT, matching classifier)."""

    def __init__(
        self,
        model,
        classifier,
        special_ids: Sequence[int],
        config: EngineConfig | None = None,
        cache_token: str | None = None,
    ) -> None:
        self.model = model
        self.classifier = classifier
        self.special_ids = sorted(special_ids)
        self.config = config or EngineConfig()
        #: Namespacing token for persisted score blocks (typically the
        #: artifact cache key); ``None`` plus ``persist_scores=True`` still
        #: persists, keyed purely by the model weights.
        self.cache_token = cache_token
        self.stats = EngineStats()
        self._version = 0
        self._scores: dict[bytes, float] = {}
        self._weights_key: str | None = None
        self._persisted_loaded = False

    # -- model versioning --------------------------------------------------------

    @property
    def model_version(self) -> int:
        return self._version

    def invalidate_model(self) -> None:
        """Signal that model/classifier weights changed: cached scores are stale."""
        self._version += 1
        self._scores.clear()
        self._weights_key = None
        self._persisted_loaded = False
        self.stats.invalidations += 1

    def clear_cached_scores(self) -> None:
        """Drop cached scores without bumping the model version (testing aid)."""
        self._scores.clear()
        self._persisted_loaded = False

    def _current_weights_key(self) -> str:
        """Content hash of the live model + classifier weights."""
        if self._weights_key is None:
            digest = hashlib.blake2b(digest_size=FINGERPRINT_BYTES)
            parameters = {
                **self.model.parameters("model."),
                **self.classifier.parameters("classifier."),
            }
            for name in sorted(parameters):
                digest.update(name.encode("utf-8"))
                digest.update(np.ascontiguousarray(parameters[name].value).tobytes())
            self._weights_key = digest.hexdigest()
        return self._weights_key

    # -- persistence -------------------------------------------------------------

    def _store_key(self) -> str:
        from .. import store

        return store.content_key(
            "engine-scores-v1", self.cache_token or "", self._current_weights_key()
        )

    def _load_persisted(self) -> None:
        if self._persisted_loaded or not self.config.persist_scores:
            return
        self._persisted_loaded = True
        from .. import store

        with self.stats.timer("persist_load"):
            block = store.load_arrays("engine-scores", self._store_key())
        if block is None:
            return
        fingerprints = block.get("fingerprints")
        scores = block.get("scores")
        if fingerprints is None or scores is None or len(fingerprints) != len(scores):
            return
        for fingerprint, score in zip(fingerprints, scores):
            self._scores.setdefault(bytes(fingerprint), float(score))
        self.stats.pairs_persisted_hits += len(scores)

    def _save_persisted(self) -> None:
        if not self.config.persist_scores or not self._scores:
            return
        from .. import store

        with self.stats.timer("persist_save"):
            fingerprints = np.frombuffer(
                b"".join(self._scores.keys()), dtype=np.ubyte
            ).reshape(len(self._scores), FINGERPRINT_BYTES)
            scores = np.fromiter(
                self._scores.values(), dtype=np.float64, count=len(self._scores)
            )
            store.save_arrays(
                "engine-scores",
                self._store_key(),
                {"fingerprints": fingerprints, "scores": scores},
            )

    # -- scoring -----------------------------------------------------------------

    def _score_plan(self, plan) -> list[np.ndarray]:
        """Score every micro-batch of ``plan`` in-process, in plan order."""
        from ..featurizers.bert import score_encoded_batch

        results = []
        for microbatch in plan:
            with self.stats.timer("forward"):
                results.append(
                    score_encoded_batch(
                        self.model, self.classifier, self.special_ids, microbatch.batch
                    )
                )
        return results

    def score_encoded(self, encoded: list[EncodedPair]) -> np.ndarray:
        """Scores in [0, 1] for ``encoded`` rows, reusing everything reusable."""
        return self._score_cached(
            encoded,
            fingerprint_encoded,
            lambda dirty: plan_microbatches(
                [encoded[i] for i in dirty],
                microbatch_size=self.config.microbatch_size,
                bucket_granularity=self.config.bucket_granularity,
            ),
        )

    def score_halves(self, halves, plane) -> np.ndarray:
        """Scores for pairs given as cached halves, assembled zero-copy.

        ``halves`` is a list of :class:`repro.lm.encode_plane.PairHalves` and
        ``plane`` the :class:`~repro.lm.encode_plane.EncodePlane` that
        produced them.  Fingerprints are computed digest-parity from the
        halves (so the in-memory and persisted score caches are shared with
        :meth:`score_encoded`), bucket planning reads the precomputed half
        lengths, and each dirty micro-batch is assembled directly into a
        pooled buffer -- released back to the pool once scoring returns, also
        when it raises.
        """

        def plan_dirty(dirty: list[int]) -> list[MicroBatch]:
            chunks = plan_bucket_chunks(
                [halves[i].length for i in dirty],
                microbatch_size=self.config.microbatch_size,
                bucket_granularity=self.config.bucket_granularity,
            )
            return [
                MicroBatch(
                    tuple(chunk),
                    plane.assemble([halves[dirty[i]] for i in chunk], pad_to=padded),
                )
                for padded, chunk in chunks
            ]

        return self._score_cached(halves, plane.fingerprint, plan_dirty, plane.release)

    def _score_cached(
        self,
        pairs: Sequence,
        fingerprint: Callable[[object], bytes],
        plan_dirty: Callable[[list[int]], list[MicroBatch]],
        release: Callable[[EncodedPair], None] | None = None,
    ) -> np.ndarray:
        """The one scoring body behind :meth:`score_encoded`/:meth:`score_halves`.

        Fingerprints every pair, serves cached scores, plans the dirty pairs
        (``plan_dirty`` receives their positions in ``pairs``), scores the
        plan, scatters and caches the results, and persists the score block.
        ``release`` is called on every planned batch once scoring returns or
        raises.
        """
        self.stats.scoring_calls += 1
        count = len(pairs)
        self.stats.pairs_requested += count
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        with obs.span(
            "engine.score", pairs=count, version=self._version
        ) as score_span:
            self.model.eval()
            self.classifier.eval()

            with self.stats.timer("fingerprint"):
                fingerprints = [fingerprint(pair) for pair in pairs]
            self._load_persisted()

            scores = np.empty(count, dtype=np.float64)
            dirty: list[int] = []
            for index, key in enumerate(fingerprints):
                cached = self._scores.get(key)
                if cached is None:
                    dirty.append(index)
                else:
                    scores[index] = cached
            self.stats.pairs_skipped += count - len(dirty)
            self.stats.pairs_scored += len(dirty)
            score_span.set(dirty=len(dirty), skipped=count - len(dirty))

            if dirty:
                with self.stats.timer("bucket"):
                    plan = plan_dirty(dirty)
                self.stats.buckets += plan_num_buckets(plan)
                self.stats.microbatches += len(plan)
                score_span.set(microbatches=len(plan))
                try:
                    results = self._score_plan(plan)
                    for microbatch, probabilities in zip(plan, results):
                        for position, probability in zip(
                            microbatch.indices, probabilities
                        ):
                            index = dirty[position]
                            value = float(probability)
                            scores[index] = value
                            self._scores[fingerprints[index]] = value
                finally:
                    if release is not None:
                        for microbatch in plan:
                            release(microbatch.batch)
                self._save_persisted()
        return scores
