"""Serving-plane latency: hot-swap must crush respawn on post-update scoring.

The paper's interactive loop (Fig. 9) re-fine-tunes the encoder between
labels, so the latency a user feels is dominated by the *first* scoring
pass after a weight update.  The respawn lifecycle pays a pool teardown
plus N process spawns (each re-importing the stack and re-binding the
weights) for every update; the shm serving plane hot-swaps weights through
the shared arena and keeps the pool alive.  The respawn baseline is the
same plane with its pool closed before every update.  This benchmark times
time-to-first-score after ``invalidate_model()`` under both lifecycles at
``n_workers=4`` and emits the ratio as ``BENCH_serving.json``, asserting
the >= 5x reduction the plane exists to provide.
"""

from __future__ import annotations

import time

import numpy as np
from _emit import emit_benchmark
from conftest import register_report

from repro.engine import EngineConfig, ScoringEngine, live_segment_names
from repro.eval.reporting import render_table
from repro.featurizers.bert import MatchingClassifier
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair

MAX_LENGTH = 48
N_WORKERS = 4
NUM_UPDATES = 3
NUM_PAIRS = 128
MIN_SPEEDUP = 5.0


def synthetic_pair(length: int, rng: np.random.Generator) -> EncodedPair:
    input_ids = np.zeros(MAX_LENGTH, dtype=np.int64)
    input_ids[:length] = rng.integers(5, 90, size=length)
    attention = np.zeros(MAX_LENGTH, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(MAX_LENGTH, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


def build_stack():
    model = MiniBert(
        BertConfig(vocab_size=100, hidden_size=32, num_layers=2, num_heads=2,
                   intermediate_size=64, max_position=MAX_LENGTH),
        seed=1,
    )
    model.eval()
    classifier = MatchingClassifier(32, 16, np.random.default_rng(2))
    classifier.eval()
    return model, classifier, [0, 1, 2, 3, 4]


def mutate_weights(model, classifier, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for module in (model, classifier):
        for parameter in module.parameters().values():
            noise = 0.001 * rng.standard_normal(parameter.value.shape)
            parameter.value += noise.astype(parameter.value.dtype)


def post_update_latencies(respawn: bool) -> list[float]:
    """Time-to-first-score after each of NUM_UPDATES weight updates."""
    model, classifier, special_ids = build_stack()
    rng = np.random.default_rng(0)
    encoded = [
        synthetic_pair(6 + int(rng.integers(0, 40)), rng) for _ in range(NUM_PAIRS)
    ]
    config = EngineConfig(
        n_workers=N_WORKERS,
        min_pairs_for_workers=1,
        microbatch_size=16,
        persist_scores=False,
    )
    engine = ScoringEngine(model, classifier, special_ids, config)
    latencies: list[float] = []
    try:
        engine.score_encoded(encoded)  # warm: spawn the pool once
        assert engine.stats.worker_batches > 0, "pool never ran; timings meaningless"
        for update in range(NUM_UPDATES):
            mutate_weights(model, classifier, seed=10 + update)
            if respawn:
                engine._plane.close_pool()
            engine.invalidate_model()
            started = time.perf_counter()
            engine.score_encoded(encoded)
            latencies.append(time.perf_counter() - started)
        expected_avoided = 0 if respawn else NUM_UPDATES
        assert engine.stats.respawns_avoided == expected_avoided, engine.stats.as_dict()
        assert engine.stats.worker_fallbacks == 0, engine.stats.as_dict()
    finally:
        engine.close()
    assert not live_segment_names()
    return latencies


def test_hot_swap_beats_respawn_on_post_update_latency():
    respawn = post_update_latencies(respawn=True)
    hot_swap = post_update_latencies(respawn=False)

    respawn_seconds = min(respawn)
    hot_swap_seconds = min(hot_swap)
    speedup = respawn_seconds / hot_swap_seconds

    register_report(
        render_table(
            ["lifecycle", "post-update first score (s)", "speedup"],
            [
                ["respawn (pool closed per update)", f"{respawn_seconds:.4f}", "1.00x"],
                ["hot-swap (shm arena)", f"{hot_swap_seconds:.4f}", f"{speedup:.1f}x"],
            ],
            title=(
                f"Serving-plane latency -- {NUM_PAIRS} pairs, "
                f"{N_WORKERS} workers, {NUM_UPDATES} weight updates"
            ),
        )
    )

    datapoint = emit_benchmark(
        "BENCH_serving.json",
        benchmark="serving_latency",
        workload={
            "n_workers": N_WORKERS,
            "pairs": NUM_PAIRS,
            "updates": NUM_UPDATES,
        },
        baseline_seconds=respawn_seconds,
        fast_seconds=hot_swap_seconds,
        gate={"min_speedup": MIN_SPEEDUP},
        extra={
            "baseline": "respawn (shm pool closed per update)",
            "fast": "hot-swap (shm arena)",
            "baseline_all_seconds": [round(s, 6) for s in respawn],
            "fast_all_seconds": [round(s, 6) for s in hot_swap],
        },
    )

    assert speedup >= MIN_SPEEDUP, datapoint
