"""Shared pieces of the benchmark: fixed inputs, store isolation, statistics.

Everything here is benchmark-side.  The program under test (``src/repro``)
is only imported, never modified; each workload module calls its public
entry points the way a deployment would.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The ISS every workload matches against: the retail ISS scaled 10x
#: (12,180 target attributes).
SCALE_FACTOR = 10
#: Retrieval keeps this many candidates per source attribute.
CANDIDATES_PER_SOURCE = 40
#: Store entry kinds the untimed prepare step leaves behind: the per-ISS
#: artefacts, the featurizer pre-training and the target retrieval index.
#: Score blocks, token blocks and the stats ledger are dropped so that every
#: timed run starts without any persisted per-pair state.
PREPARED_KINDS = ("vocab", "bert", "embeddings", "bert-pretrain", "retrieval")

perf = time.perf_counter


def iss10x(task):
    """The 10x-scaled retail ISS for a customer task."""
    from repro.datasets import scale_schema

    return scale_schema(task.target, SCALE_FACTOR)


def lsm_config(seed: int = 0):
    """The default matcher configuration with retrieval at k=40."""
    from repro.core import LsmConfig

    return LsmConfig(max_candidates_per_source=CANDIDATES_PER_SOURCE, seed=seed)


def entry_kind(filename: str) -> str:
    """Store entry kind of a ``<kind>-<key>.<ext>`` file name."""
    stem = filename.split(".", 1)[0]
    return stem.rsplit("-", 1)[0]


class StoreSandbox:
    """Fresh copies of the prepared store, one per matcher life cycle.

    ``REPRO_CACHE_DIR`` is re-read by the store on every call, so pointing
    it at a new copy isolates one construction (and everything it persists
    afterwards) from the next.
    """

    def __init__(self, prepared_store: Path, scratch: Path) -> None:
        self.prepared_store = prepared_store
        self.scratch = scratch
        self._count = 0

    def fresh(self) -> Path:
        """Point the store at a new copy of the prepared store; its root."""
        self._count += 1
        root = self.scratch / f"store{self._count}"
        shutil.copytree(self.prepared_store, root)
        self.use(root)
        return root

    def use(self, root: Path) -> None:
        """Point the store at an existing copy (``fresh``'s return value)."""
        os.environ["REPRO_CACHE_DIR"] = str(root)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ranking_quality(ranked: dict, truth: dict) -> tuple[float, float]:
    """(top-1 accuracy, top-3 recall) of ranked target lists against truth.

    ``ranked`` maps a source to its candidate targets, best first; sources
    without ground truth are skipped.
    """
    scored = [source for source in ranked if source in truth]
    if not scored:
        raise ValueError("no ranked source has ground truth")
    top1 = sum(1 for s in scored if ranked[s][:1] == [truth[s]])
    top3 = sum(1 for s in scored if truth[s] in ranked[s][:3])
    return top1 / len(scored), top3 / len(scored)


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    #: End-to-end metric name -> value (units live in BENCHMARK.json).
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Correctness checks that did not hold (empty when all passed).
    errors: list[str] = field(default_factory=list)
    #: Layer snapshot of the measured life cycle (flat dotted counters).
    counters: dict[str, object] = field(default_factory=dict)
    #: Extra per-layer values measured by the workload itself.
    layer: dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result.
    notes: list[str] = field(default_factory=list)
    #: The workload's metrics under their own names (``iter_p50_ms``, ...):
    #: name -> (value, unit, better, the end-to-end metric it is gated as,
    #: or "" for one that is only printed).
    named: dict[str, tuple[float, str, str, str]] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    def name(
        self, name: str, unit: str, better: str = "lower", gated_as: str = "", value=None
    ) -> None:
        """Print a metric under this workload's own name.

        With ``gated_as`` it is that end-to-end metric's value; without, it
        is ``value``, printed for people but not gated.
        """
        if gated_as:
            value = self.metrics[gated_as]
        self.named[name] = (float(value), unit, better, gated_as)
