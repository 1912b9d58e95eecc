"""``serve``: open-loop traffic on ``ServeService`` from 16 sessions, 2 tenants.

Both tenants serve the iss10x MiniBERT and matching classifier (tenant
``t1`` with seeded small weight perturbations).  Requests are customer A's
real retrieved candidate pairs: 70% are 1-4-pair lookups from one column's
candidate list and 30% are whole 40-pair re-rank lists.  One asyncio
process sends seeded Poisson arrivals at two fixed rates, ``lo`` and
``hi``, either side of the service's knee, and hot-swaps (``publish``) a
tenant every ``SWAP_EVERY_S`` seconds, so residency sees writes beside
reads.  Every request is timed from its due time, not its send time, so a
stalled generator or event loop shows as latency.

Burst phase (``first_predict_s``): right after start-up, every column's
full candidate list per tenant at once -- what a session's first predict
asks of the service -- ``BURSTS`` times; the median burst is reported.  No
training and no retrieval run in this workload.

Gated: the median burst, the median re-rank latency at ``lo`` (a session's
predict under light load), the share of ``hi`` requests finished within
``LATENCY_LIMIT_S`` and the peak RSS up to the end of the bursts.  Printed
but not gated: the phase p50/p95 latencies, which spread 20-40% from run to
run on a two-core machine, more than any bound the benchmark can hold them
to, and the peak RSS through the open-loop phases, whose in-flight batches
add a timing-dependent 5-25 MB.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from common import WorkloadResult, median, peak_rss_mb, perf, quantile

TENANTS = ("t0", "t1")
SESSIONS = 16
#: Requests per second.  ``lo`` gives 200 requests in 8 s, enough for a p95
#: with ten samples beyond it; ``hi`` sits below the knee of about 60 req/s
#: measured on a two-core machine, where the p50 doubles and a tenth of the
#: requests miss the latency limit.
RATES = {"lo": 25.0, "hi": 40.0}
LOOKUP_SHARE = 0.7
LOOKUP_PAIRS = (1, 4)
SWAP_EVERY_S = 2.0
#: Service start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
BURSTS = 2
#: A request slower than this (from its due time) is a miss in ``ok_frac``.
LATENCY_LIMIT_S = 0.100
#: Served scores must equal offline ``InProcessBackend`` scores of the same
#: pairs and model version to this absolute tolerance.  Coalesced batches
#: pad to other bucket widths than the offline plan, which moves float32
#: sums in their last bits only.
SCORE_ATOL = 1e-6


@dataclass
class Request:
    """One scheduled request and what became of it."""

    due: float
    session: int
    pair_ids: np.ndarray
    phase: str = ""
    id: int = 0
    version: str = ""
    done: float | None = None
    scores: np.ndarray | None = None
    outcome: str = "pending"  # ok | refused | failed


@dataclass
class Phase:
    name: str
    requests: list[Request] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)


def load_corpus(prepared):
    """Customer A's encoded candidate pairs and per-column pair groups."""
    from repro.lm.tokenizer import EncodedPair

    data = np.load(prepared / "serve_corpus.npz")
    pairs = [
        EncodedPair(
            input_ids=ids,
            segment_ids=segments,
            attention_mask=mask,
            length=int(mask.sum()),
        )
        for ids, segments, mask in zip(
            data["input_ids"], data["segment_ids"], data["attention_mask"]
        )
    ]
    source = data["source"]
    groups = [np.flatnonzero(source == s) for s in np.unique(source)]
    return pairs, groups, data["is_truth"]


def load_tenant(prepared):
    """The pre-trained iss10x MiniBERT + classifier (read from disk)."""
    from repro.featurizers.bert import MatchingClassifier
    from repro.lm.bert import MiniBert
    from repro.lm.config import BertConfig
    from repro.nn.serialize import load_state_dict

    data = np.load(prepared / "tenant.npz")
    meta = json.loads(str(data["meta"]))
    config = BertConfig(**meta["bert_config"])
    model = MiniBert(config)
    classifier = MatchingClassifier(
        config.hidden_size, meta["classifier_size"], np.random.default_rng(0)
    )
    for prefix, module in (("model.", model), ("classifier.", classifier)):
        load_state_dict(
            module,
            {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)},
        )
    model.eval()
    classifier.eval()
    return model, classifier, meta["special_ids"]


def swapped(model, classifier, swap_seed: int):
    """A perturbed copy of a tenant's weights: the next fine-tuned version."""
    from repro.serve.load import apply_swap

    model, classifier = copy.deepcopy(model), copy.deepcopy(classifier)
    apply_swap(model, classifier, swap_seed)
    return model, classifier


def schedule(rng, rate: float, seconds: float, groups) -> list[Request]:
    """Seeded Poisson arrivals over ``seconds`` with the lookup/re-rank mix.

    The phase holds exactly ``rate * seconds`` requests at uniformly drawn
    times (a Poisson process given its count) and exactly the re-rank share
    of them, in seeded order: seeds then differ in when and what each
    request asks, not in how much work a phase carries.
    """
    count = round(rate * seconds)
    reranks = round((1.0 - LOOKUP_SHARE) * count)
    is_rerank = rng.permutation(np.arange(count) < reranks)
    requests = []
    for due, rerank in zip(np.sort(rng.uniform(0.0, seconds, count)), is_rerank):
        group = groups[int(rng.integers(len(groups)))]
        if rerank:
            pair_ids = group
        else:
            size = int(rng.integers(LOOKUP_PAIRS[0], LOOKUP_PAIRS[1] + 1))
            pair_ids = np.sort(rng.choice(group, size=min(size, len(group)), replace=False))
        requests.append(
            Request(due=float(due), session=int(rng.integers(SESSIONS)), pair_ids=pair_ids)
        )
    return requests


class ServeRun:
    """One run of the workload: set-up rounds, bursts, open-loop phases."""

    def __init__(self, run, seed: int, seconds: float) -> None:
        self.run = run
        self.seed = seed
        self.seconds = seconds
        self.pairs, self.groups, self.is_truth = load_corpus(run.prepared)
        #: Every published version's weights, for the offline score check.
        self.versions: dict[str, tuple] = {}
        self.service = None
        self.handles = []
        self._request_ids = itertools.count(1)
        self.bursts: list[list[Request]] = []

    # -- set-up ----------------------------------------------------------------

    async def start(self):
        from repro.serve.service import ServeConfig, ServeService

        model, classifier, special_ids = load_tenant(self.run.prepared)
        self.special_ids = special_ids
        stacks = {
            "t0": (model, classifier),
            "t1": swapped(model, classifier, swap_seed=self.seed * 1000 + 1),
        }
        service = ServeService(ServeConfig())
        await service.start()
        for tenant, (tenant_model, tenant_classifier) in stacks.items():
            key = service.publish(tenant, tenant_model, tenant_classifier, special_ids)
            self.versions[key] = (tenant_model, tenant_classifier)
        handles = [
            service.open_session(TENANTS[session % len(TENANTS)])
            for session in range(SESSIONS)
        ]
        return service, handles, stacks

    async def setup(self) -> float:
        seconds = []
        for round_index in range(SETUP_REPEATS):
            kept = round_index == SETUP_REPEATS - 1
            self.run.context(phase="setup" if kept else "extra_setup")
            started = perf()
            service, handles, stacks = await self.start()
            seconds.append(perf() - started)
            if kept:
                self.service, self.handles, self.stacks = service, handles, stacks
            else:
                await service.stop()
        return median(seconds)

    # -- traffic ---------------------------------------------------------------

    def submit(self, request: Request) -> asyncio.Future | None:
        """Send one request now; its future, or None when it was refused."""
        from repro.serve.service import AdmissionError

        handle = self.handles[request.session]
        request.id = next(self._request_ids)
        request.version = self.service.residency.latest_key(handle.tenant)
        try:
            future = self.service.submit_nowait(
                handle, [self.pairs[int(i)] for i in request.pair_ids]
            )
        except AdmissionError:
            request.outcome = "refused"
            return None

        def resolved(future: asyncio.Future) -> None:
            request.done = perf()
            if future.exception() is None:
                request.scores = np.asarray(future.result())
                request.outcome = "ok"
            else:
                request.outcome = "failed"
            self.run.span(
                "serve.request",
                request.due,
                request.done,
                request=request.id,
                request_phase=request.phase,
                session=request.session,
                pairs=len(request.pair_ids),
            )

        future.add_done_callback(resolved)
        return future

    async def burst(self) -> float:
        """Every column's full list, per tenant, at once; seconds to finish."""
        self.run.context(phase="run", request_phase="burst")
        requests = []
        futures = []
        started = perf()
        for index, group in enumerate(self.groups):
            for tenant_index in range(len(TENANTS)):
                # Sessions alternate tenants: pick one of this tenant's.
                session = (2 * index + tenant_index) % SESSIONS
                request = Request(
                    due=started, session=session, pair_ids=group, phase="burst"
                )
                requests.append(request)
                future = self.submit(request)
                if future is not None:
                    futures.append(future)
        await asyncio.gather(*futures, return_exceptions=True)
        self.bursts.append(requests)
        return perf() - started

    async def open_loop(self, name: str, rate: float, rng) -> Phase:
        phase = Phase(name, schedule(rng, rate, self.seconds, self.groups))
        swaps = []
        at, turn = SWAP_EVERY_S, 0
        while at < self.seconds:
            tenant = TENANTS[turn % len(TENANTS)]
            model, classifier = self.stacks[tenant]
            self.stacks[tenant] = swapped(
                model, classifier, swap_seed=int(rng.integers(1 << 30))
            )
            swaps.append((at, tenant, self.stacks[tenant]))
            at, turn = at + SWAP_EVERY_S, turn + 1
        events = sorted(
            [(r.due, 1, r) for r in phase.requests] + [(s[0], 0, s) for s in swaps],
            key=lambda event: (event[0], event[1]),
        )
        futures = []
        origin = perf()
        for due, kind, item in events:
            delay = origin + due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            late = perf() - (origin + due)
            if kind == 0:
                _, tenant, (model, classifier) = item
                key = self.service.publish(tenant, model, classifier, self.special_ids)
                self.versions[key] = (model, classifier)
                continue
            phase.lateness.append(late)
            item.due = origin + due
            item.phase = name
            self.run.context(phase="run", request_phase=name)
            future = self.submit(item)
            if future is not None:
                futures.append(future)
        await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=60.0
        )
        return phase

    # -- checks ------------------------------------------------------------------

    def offline_mismatch(self, requests) -> tuple[float, int]:
        """Largest |served - offline| score gap and the pairs it covered."""
        from repro.engine.batching import plan_microbatches
        from repro.serve.service import InProcessBackend

        backend = InProcessBackend()
        needed: dict[str, set[int]] = {}
        for request in requests:
            if request.outcome == "ok":
                needed.setdefault(request.version, set()).update(
                    int(i) for i in request.pair_ids
                )
        offline: dict[tuple[str, int], float] = {}
        for version, pair_ids in needed.items():
            model, classifier = self.versions[version]
            resident = SimpleNamespace(
                model=model, classifier=classifier, special_ids=self.special_ids
            )
            ordered = sorted(pair_ids)
            plan = plan_microbatches([self.pairs[i] for i in ordered])
            for microbatch, scores in zip(plan, backend.score(resident, plan)):
                for position, score in zip(microbatch.indices, scores):
                    offline[(version, ordered[position])] = float(score)
        worst = 0.0
        for request in requests:
            if request.outcome != "ok":
                continue
            expected = np.asarray(
                [offline[(request.version, int(i))] for i in request.pair_ids]
            )
            worst = max(worst, float(np.max(np.abs(request.scores - expected))))
        return worst, len(offline)

    def quality(self) -> tuple[float, float]:
        """Top-1 / top-3 of tenant t0's first re-rank of every column's list."""
        top1 = top3 = total = 0
        for request in self.bursts[0]:
            if request.outcome != "ok" or not request.version.startswith("t0@"):
                continue
            truth = self.is_truth[request.pair_ids]
            if not truth.any():
                continue
            order = np.argsort(-request.scores, kind="stable")
            total += 1
            top1 += bool(truth[order[0]])
            top3 += bool(truth[order[:3]].any())
        return top1 / total, top3 / total


def phase_summary(phase: Phase) -> dict:
    completed = [r.done - r.due for r in phase.requests if r.outcome == "ok"]
    reranks = [
        r.done - r.due
        for r in phase.requests
        if r.outcome == "ok" and len(r.pair_ids) > LOOKUP_PAIRS[1]
    ]
    return {
        "sent": len(phase.requests),
        "completed": len(completed),
        "refused": sum(1 for r in phase.requests if r.outcome == "refused"),
        "failed": sum(1 for r in phase.requests if r.outcome in ("failed", "pending")),
        "p50_ms": 1000.0 * median(completed),
        "p95_ms": 1000.0 * quantile(completed, 0.95),
        "rerank_p50_ms": 1000.0 * median(reranks),
        "ok_frac": sum(1 for s in completed if s <= LATENCY_LIMIT_S) / len(phase.requests),
        "late_p50_ms": 1000.0 * median(phase.lateness),
        "late_p95_ms": 1000.0 * quantile(phase.lateness, 0.95),
    }


async def _run(bench: ServeRun) -> dict:
    # The service scores in the loop's default executor: one thread per
    # usable core, no more.
    workers = len(os.sched_getaffinity(0))
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=workers)
    )
    setup_s = await bench.setup()
    try:
        bursts = [await bench.burst() for _ in range(BURSTS)]
        burst_rss_mb = peak_rss_mb()
        rng = np.random.default_rng(bench.seed)
        phases = [await bench.open_loop(name, rate, rng) for name, rate in RATES.items()]
        phases_rss_mb = peak_rss_mb()
    finally:
        await bench.service.stop()
    return {
        "setup_s": setup_s,
        "burst_s": median(bursts),
        "phases": phases,
        "executor_threads": workers,
        "burst_rss_mb": burst_rss_mb,
        "phases_rss_mb": phases_rss_mb,
    }


def run(run, seed: int, seconds: float) -> WorkloadResult:
    bench = ServeRun(run, seed, seconds)
    outcome = asyncio.run(_run(bench))
    phases = {phase.name: phase for phase in outcome["phases"]}
    summaries = {name: phase_summary(phase) for name, phase in phases.items()}
    every = [r for burst in bench.bursts for r in burst]
    every += [r for phase in phases.values() for r in phase.requests]
    result = WorkloadResult(metrics={}, attempted=len(every), failed=0)
    result.failed = sum(1 for r in every if r.outcome != "ok")

    run.context(phase="check")
    worst, checked = bench.offline_mismatch(every)
    result.check(
        worst <= SCORE_ATOL,
        f"served scores differ from offline scores by {worst:.3g} > {SCORE_ATOL}",
    )
    result.check(result.failed == 0, f"{result.failed} requests refused or failed")
    top1, top3 = bench.quality()
    result.metrics = {
        "setup_s": outcome["setup_s"],
        "first_predict_s": outcome["burst_s"],
        "op_p50_ms": summaries["lo"]["rerank_p50_ms"],
        "ok_frac": summaries["hi"]["ok_frac"],
        "top1_acc": top1,
        "top3_recall": top3,
        "peak_rss_mb": outcome["burst_rss_mb"],
    }
    result.name("setup_s", "s", gated_as="setup_s")
    result.name("serve_burst_s", "s", gated_as="first_predict_s")
    for name, summary in summaries.items():
        for metric in ("p50_ms", "p95_ms"):
            result.name(f"serve_{name}_{metric}", "ms", value=summary[metric])
    result.name("serve_lo_rerank_p50_ms", "ms", gated_as="op_p50_ms")
    result.name("serve_hi_ok_frac", "frac", "higher", gated_as="ok_frac")
    result.name("serve_phases_peak_rss_mb", "MB", value=outcome["phases_rss_mb"])
    lateness = [late for phase in phases.values() for late in phase.lateness]
    stats = bench.service.stats
    result.layer = {
        "serve.queue_wait_p50_ms": 1000.0 * stats.queue_wait.percentile(50.0),
        "serve.queue_wait_p95_ms": 1000.0 * stats.queue_wait.percentile(95.0),
        "serve.gen_late_p95_ms": 1000.0 * quantile(lateness, 0.95),
    }
    result.counters = bench.service.metrics_snapshot()
    result.notes = [
        f"serve {name} ({RATES[name]:g} req/s, {seconds:g} s): "
        + ", ".join(f"{key}={value:.4g}" for key, value in summary.items())
        for name, summary in summaries.items()
    ] + [
        f"serve check: {checked} (version, pair) scores re-scored offline, "
        f"max |served - offline| = {worst:.3g}; executor threads = "
        f"{outcome['executor_threads']}"
    ]
    return result
