"""Pieces shared by the two matcher workloads (``onboard`` and ``rematch``)."""

from __future__ import annotations

from common import iss10x, lsm_config, perf


def load_inputs(run, customer: str):
    """A customer task, its 10x ISS and the ISS artefacts (untimed)."""
    from repro.core.artifacts import build_artifacts
    from repro.datasets import load_dataset

    task = load_dataset(customer)
    iss = iss10x(task)
    run.sandbox.fresh()
    run.context(phase="load")
    return task, iss, build_artifacts(iss)


def construct(run, source, iss, artifacts, phase: str, seed: int = 0):
    """One timed matcher construction from a fresh copy of the prepared store.

    Returns the matcher, the seconds its construction took and the root of
    its store copy, so no construction reads what another one persisted.
    """
    from repro.core import LearnedSchemaMatcher

    root = run.sandbox.fresh()
    run.context(phase=phase)
    started = perf()
    matcher = LearnedSchemaMatcher(source, iss, config=lsm_config(seed), artifacts=artifacts)
    return matcher, perf() - started, root


def top_targets(predictions) -> dict:
    """Source -> suggested targets (best first) of one ``Predictions``."""
    return {
        source: [target for target, _ in ranked]
        for source, ranked in predictions.suggestions.items()
    }


def persisted_hits(matcher) -> tuple[int, int]:
    """(engine score blocks, encode token blocks) recovered from the store."""
    counters = matcher.metrics.as_dict()
    return (
        int(counters.get("engine.pairs_persisted_hits", 0)),
        int(counters.get("encode.tokens_persisted_hits", 0)),
    )
