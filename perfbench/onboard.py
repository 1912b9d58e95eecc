"""``onboard``: one analyst maps customer A onto the 10x ISS, label by label.

A closed loop: the simulated analyst (``GroundTruthOracle``) answers each
round of suggestions before the next ``predict`` runs, and BERT is
fine-tuned after every label (``update_bert_every=1``, the default), so the
score cache never hits and training dominates.  The seed permutes the
order of customer A's tables and columns (the analyst's warehouse lists
them in any order); the content is the same on every seed.

Operation: one session iteration's retrain-and-predict response (the
paper's Fig. 9 quantity), iterations >= 2.

Set-up: two matchers are constructed, each from the prepared store, and
each makes its cold first predict; ``setup_s`` and ``first_predict_s`` are
the medians over both.  The second one then runs the session.
"""

from __future__ import annotations

import numpy as np

from common import WorkloadResult, median, peak_rss_mb, perf, ranking_quality
from matching import construct, load_inputs, persisted_hits, top_targets

#: An iteration slower than this counts as a miss in ``ok_frac``.
ITERATION_LIMIT_S = 10.0


def permuted_schema(schema, seed: int):
    """``schema`` with its entities and their attributes in a seeded order."""
    from repro.schema.model import Entity, Schema

    rng = np.random.default_rng(seed)
    entities = [schema.entities[int(i)] for i in rng.permutation(len(schema.entities))]
    return Schema(
        schema.name,
        [
            Entity(
                entity.name,
                [entity.attributes[int(i)] for i in rng.permutation(len(entity.attributes))],
                primary_key=entity.primary_key,
                description=entity.description,
            )
            for entity in entities
        ],
        schema.relationships,
    )


def run(run, seed: int, seconds: float) -> WorkloadResult:
    from repro.core.oracle import GroundTruthOracle
    from repro.core.session import MatchingSession

    task, iss, artifacts = load_inputs(run, "customer_a")
    source = permuted_schema(task.source, seed)
    # Two matchers, each constructed from the prepared store: setup_s and
    # first_predict_s are medians over both; the second runs the session.
    extra, extra_setup_s, _ = construct(run, source, iss, artifacts, "extra_setup", seed)
    with extra:
        started = perf()
        extra.predict()
        extra_predict_s = perf() - started
        extra_hits = persisted_hits(extra)
    matcher, kept_s, _ = construct(run, source, iss, artifacts, "setup", seed)
    setup_s = median([extra_setup_s, kept_s])

    # The session calls matcher.predict(); wrap it on the instance to keep
    # each iteration's timing and the first round of suggestions.
    predict = matcher.predict
    responses: list[float] = []
    first: list = []

    def timed_predict():
        run.context(phase="run", iteration=len(responses) + 1)
        started = perf()
        predictions = predict()
        responses.append(perf() - started)
        if not first:
            first.append(predictions)
            first.append(persisted_hits(matcher))
        return predictions

    matcher.predict = timed_predict
    session = MatchingSession(matcher, GroundTruthOracle(task.ground_truth, iss))
    result = WorkloadResult(metrics={}, attempted=0, failed=0)
    try:
        started = perf()
        outcome = session.run()
        session_s = perf() - started
        rss_mb = peak_rss_mb()
        counters = matcher.metrics.as_dict()
    finally:
        session.close()

    steady = responses[1:]
    result.attempted = len(responses)
    result.check(len(steady) >= 2, f"only {len(responses)} iterations ran")
    result.check(outcome.completed, "session stopped before every column was matched")
    correct = outcome.records[-1].matched_correct if outcome.records else 0
    result.check(
        correct == len(task.ground_truth),
        f"{correct} of {len(task.ground_truth)} columns matched correctly",
    )
    for hits in (extra_hits, first[1]):
        result.check(hits == (0, 0), f"first predict read persisted scores/tokens {hits}")
    top1, top3 = ranking_quality(top_targets(first[0]), task.ground_truth)
    result.metrics = {
        "setup_s": setup_s,
        "first_predict_s": median([extra_predict_s, responses[0]]),
        "op_p50_ms": 1000.0 * median(steady),
        "ok_frac": sum(1 for s in responses if s <= ITERATION_LIMIT_S) / len(responses),
        "top1_acc": top1,
        "top3_recall": top3,
        "peak_rss_mb": rss_mb,
    }
    result.counters = counters
    result.name("setup_s", "s", gated_as="setup_s")
    result.name("first_predict_s", "s", gated_as="first_predict_s")
    result.name("iter_p50_ms", "ms", gated_as="op_p50_ms")
    result.name("session_s", "s", value=session_s)
    result.name("labels_to_complete", "count", value=outcome.total_labels)
    result.notes = [
        f"session: {len(responses)} iterations, {outcome.total_labels} labels "
        f"to complete {len(task.ground_truth)} columns, {sum(responses):.2f} s "
        "in predict",
    ]
    return result
