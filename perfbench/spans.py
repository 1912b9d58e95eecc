"""The traced run: in-memory spans around calls into each layer.

With ``--trace 1`` the benchmark wraps public methods of the program's
classes (for the life of the run, from the benchmark's own files) so that
every call records a span: name, start, end, the span that caused it, the
thread, and the workload context it ran under (set-up round, iteration,
delta or request ids).  Spans stay in memory and are written out once, when
the run ends.  A span's self time is its duration minus the time its child
spans cover; per-layer seconds are sums of self times.

Counters come from the program's own ``obs.MetricsRegistry`` sources
(``engine``, ``train``, ``encode``, ``pipeline``, ``retrieval``, ``drift``,
``store``, ``serve``, ``residency``), snapshotted at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

from common import median

#: (module, class, method, span name) of every wrapped layer boundary.
BOUNDARIES = (
    ("repro.core.matcher", "LearnedSchemaMatcher", "__init__", "core.setup"),
    ("repro.core.matcher", "LearnedSchemaMatcher", "predict", "core.predict"),
    ("repro.core.matcher", "LearnedSchemaMatcher", "apply_delta", "core.apply_delta"),
    (
        "repro.core.matcher",
        "LearnedSchemaMatcher",
        "select_attributes_to_label",
        "core.select",
    ),
    ("repro.core.candidates", "CandidateStore", "views", "core.views"),
    ("repro.core.meta", "SelfTrainingClassifier", "fit", "core.meta_fit"),
    ("repro.core.meta", "SelfTrainingClassifier", "predict", "core.meta_predict"),
    ("repro.core.scoring", "ScoreAdjuster", "adjust", "core.adjust"),
    ("repro.retrieval.base", "FusedCandidateGenerator", "generate", "retrieval.generate"),
    (
        "repro.retrieval.base",
        "FusedCandidateGenerator",
        "generate_for_sources",
        "retrieval.generate",
    ),
    (
        "repro.retrieval.base",
        "FusedCandidateGenerator",
        "replace_source_docs",
        "retrieval.update",
    ),
    # Lexical and embedding featurizers share this method; the span is
    # named after the instance (``featurizers.lexical``, ...).
    ("repro.featurizers.base", "StaticFeaturizer", "score_pairs", "featurizers.{name}"),
    ("repro.featurizers.bert", "BertFeaturizer", "score_pairs", "featurizers.bert"),
    ("repro.featurizers.bert", "BertFeaturizer", "update", "featurizers.bert_update"),
    ("repro.featurizers.bert", "BertFeaturizer", "pretrain", "featurizers.bert_pretrain"),
    ("repro.engine.engine", "ScoringEngine", "score_halves", "engine.score"),
    ("repro.engine.engine", "ScoringEngine", "score_encoded", "engine.score"),
    ("repro.store.store", "ArtifactStore", "load_arrays", "store.load"),
    ("repro.store.store", "ArtifactStore", "load_json", "store.load"),
    ("repro.serve.service", "InProcessBackend", "score", "serve.backend_score"),
    ("repro.serve.residency", "ModelResidency", "publish", "residency.publish"),
)


class SpanRecorder:
    """Thread-safe in-memory span log with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.context: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[type, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        context = dict(self.context)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, span_id=span_id, parent=parent, **context)

    def add(self, name: str, start: float, end: float, span_id=None, parent=None, **context):
        """Record a finished span (also used for spans timed by the caller)."""
        span = {
            "id": span_id if span_id is not None else next(self._ids),
            "parent": parent,
            "name": name,
            "thread": threading.get_ident(),
            "start": start,
            "end": end,
        }
        span.update(context)
        with self._lock:
            self.spans.append(span)

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES` (undone by :meth:`remove`)."""
        import importlib

        for module_name, class_name, method, span_name in BOUNDARIES:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            setattr(owner, method, self._wrap(span_name, original))
            self._patched.append((owner, method, original))

    def _wrap(self, span_name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span_name
            if "{" in name:
                name = name.format(name=getattr(args[0], "name", ""))
            return self.call(name, original, *args, **kwargs)

        return wrapper

    def remove(self) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    # -- derived numbers -----------------------------------------------------

    def self_times(self, where=None) -> dict[str, float]:
        """Seconds of self time per span name, over spans passing ``where``."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            if where is not None and not where(span):
                continue
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def durations(self, name: str, where=None) -> list[float]:
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and (where is None or where(span))
        ]

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        origin = min((span["start"] for span in spans), default=0.0)
        for span in spans:
            span["start"] = round(span["start"] - origin, 6)
            span["end"] = round(span["end"] - origin, 6)
        path.write_text(json.dumps({"summary": summary, "spans": spans}))


def measured_span(span: dict) -> bool:
    return span.get("phase") in ("setup", "run")


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, counters: dict, measured: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from spans and counters.

    Only spans of the measured life cycle count: the kept set-up round and
    the run (not the extra set-up rounds, the untimed loading or the checks);
    counters come from the measured matcher or service; ``measured`` holds
    values the workload computed itself (queue-wait and generator-lateness
    percentiles).  A layer the workload never calls reports zero work.
    """
    own = recorder.self_times(measured_span)

    def seconds(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def count(key: str) -> float:
        value = counters.get(key, 0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    publishes = recorder.durations("residency.publish", measured_span)
    metrics = {
        "core.views_s": seconds("core.views"),
        "core.meta_fit_s": seconds("core.meta_fit"),
        "core.meta_predict_s": seconds("core.meta_predict"),
        "core.adjust_s": seconds("core.adjust"),
        # Ranking runs inline in predict(): it is predict's self time.
        "core.rank_s": seconds("core.predict"),
        "core.apply_delta_s": seconds("core.apply_delta"),
        "core.select_s": seconds("core.select"),
        "drift.pairs_rescored": count("drift.pairs_rescored"),
        "drift.pairs_reused": count("drift.pairs_reused"),
        "retrieval.generate_s": seconds("retrieval.generate"),
        "retrieval.sparse_s": count("retrieval.seconds_score.sparse"),
        "retrieval.dense_s": count("retrieval.seconds_score.dense")
        + count("retrieval.seconds_build.dense"),
        "retrieval.fuse_s": count("retrieval.seconds_fuse"),
        "retrieval.update_s": seconds("retrieval.update"),
        "retrieval.index_cache_hits": count("retrieval.index_cache_hits"),
        "featurizers.lexical_s": seconds("featurizers.lexical"),
        "featurizers.embedding_s": seconds("featurizers.embedding"),
        "featurizers.bert_s": seconds("featurizers.bert"),
        "featurizers.bert_update_s": seconds("featurizers.bert_update"),
        "train.steps": count("train.steps"),
        "train.samples": count("train.samples"),
        "train.forward_s": count("train.time.forward"),
        "train.backward_s": count("train.time.backward"),
        "train.optim_s": count("train.time.optim"),
        "encode.tokenize_s": count("encode.time.tokenize"),
        "encode.assemble_s": count("encode.time.assemble"),
        "encode.token_hit_ratio": _ratio(
            count("encode.token_cache_hits"),
            count("encode.token_cache_hits") + count("encode.token_cache_misses"),
        ),
        "encode.pair_hit_ratio": _ratio(
            count("encode.pair_cache_hits"),
            count("encode.pair_cache_hits") + count("encode.pair_cache_misses"),
        ),
        "engine.pairs_requested": count("engine.pairs_requested"),
        "engine.pairs_scored": count("engine.pairs_scored"),
        "engine.cache_hit_ratio": _ratio(
            count("engine.pairs_skipped"), count("engine.pairs_requested")
        ),
        "engine.forward_s": count("engine.time.forward"),
        "engine.fingerprint_s": count("engine.time.fingerprint"),
        "engine.microbatches": count("engine.microbatches"),
        "engine.rows_per_microbatch": _ratio(
            count("engine.pairs_scored"), count("engine.microbatches")
        ),
        "engine.quant_batches": count("engine.quant_batches"),
        "serve.queue_wait_p50_ms": float(measured.get("serve.queue_wait_p50_ms", 0.0)),
        "serve.queue_wait_p95_ms": float(measured.get("serve.queue_wait_p95_ms", 0.0)),
        "serve.batch_pairs_mean": _ratio(
            count("serve.pairs_scored"), count("serve.batches")
        ),
        "serve.coalesce_ratio": count("serve.coalesce_ratio"),
        "serve.backend_score_s": seconds("serve.backend_score"),
        "serve.requests_rejected": count("serve.requests_rejected"),
        "serve.requests_failed": count("serve.requests_failed"),
        "residency.publish_ms": 1000.0 * median(publishes) if publishes else 0.0,
        "residency.evictions": count("residency.evictions"),
        "residency.eviction_refusals": count("residency.eviction_refusals"),
        "serve.gen_late_p95_ms": float(measured.get("serve.gen_late_p95_ms", 0.0)),
        "store.load_s": seconds("store.load"),
        "store.hits": count("store.hits"),
        "store.misses": count("store.misses"),
        "store.bytes_written": count("store.bytes_written"),
        "trace.spans": float(len(recorder.spans)),
    }
    return metrics
