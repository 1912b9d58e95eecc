"""Batched, parallel, incremental scoring engine for featurization.

Public surface:

* :class:`ScoringEngine` / :class:`EngineConfig` -- the engine itself;
* :class:`EngineStats` -- per-stage timing counters;
* :func:`plan_microbatches` / :class:`MicroBatch` -- length-bucketed batch
  planning (usable standalone);
* :class:`ShmServingPlane` / :class:`WeightArena` -- the persistent
  shared-memory serving plane (zero-respawn weight hot-swap), the top rung
  of the serving ladder above in-process scoring;
* :class:`RetryGate` -- bounded retry policy for best-effort pool creation.
"""

from .batching import (
    MicroBatch,
    bucket_key,
    plan_bucket_chunks,
    plan_microbatches,
    plan_num_buckets,
)
from .engine import FINGERPRINT_BYTES, EngineConfig, ScoringEngine, fingerprint_encoded
from .shm import (
    ArenaClient,
    ArenaError,
    ArenaManifest,
    RetryGate,
    ScratchRegion,
    ShmServingPlane,
    WeightArena,
    live_segment_names,
    shared_memory_available,
)
from .stats import EngineStats

__all__ = [
    "ArenaClient",
    "ArenaError",
    "ArenaManifest",
    "EngineConfig",
    "EngineStats",
    "FINGERPRINT_BYTES",
    "MicroBatch",
    "RetryGate",
    "ScoringEngine",
    "ScratchRegion",
    "ShmServingPlane",
    "WeightArena",
    "bucket_key",
    "fingerprint_encoded",
    "live_segment_names",
    "plan_bucket_chunks",
    "plan_microbatches",
    "plan_num_buckets",
    "shared_memory_available",
]
