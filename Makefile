PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test parity bench-engine bench-train bench-serve bench-retrieval bench-drift bench-encode trace-smoke perf-smoke

## Tier-1 gate: full test suite, then the engine parity suite explicitly
## (it is part of tests/, the second run pins it even if testpaths change).
verify: test parity

test:
	$(PYTHON) -m pytest -x -q

parity:
	$(PYTHON) -m pytest -q tests/engine/test_parity.py

## Engine bucketing smoke (tier-2): length-bucketed micro-batches vs one
## batch padded to the longest pair, equal scores; emits BENCH_engine.json.
bench-engine:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_engine_throughput.py

## Training perf smoke (tier-2): emits BENCH_train.json at the repo root.
bench-train:
	$(PYTHON) -m pytest -q benchmarks/test_train_throughput.py

## Serving-service load replay (tier-2): 240 interleaved requests over 16
## mixed-tenant sessions with hot-swaps, coalesced vs sequential; gates
## parity (1e-8), speedup (>= 2x) and p99 latency; emits BENCH_serve.json.
bench-serve:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_serve_load.py

## Retrieval smoke (tier-2): retrieve-then-rerank vs full product on the
## 10x-scaled ISS (speedup + identical matches + public recall gate);
## emits BENCH_retrieval.json at the root.
bench-retrieval:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_retrieval.py

## Schema-drift smoke (tier-2): 3-column delta on the 10x-scaled ISS;
## gates identical matches vs rebuild, >= 5x fewer BERT re-scores, and
## zero re-runs for drop-only deltas; emits BENCH_drift.json at the root.
bench-drift:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_drift.py

## Encode-plane smoke (tier-2): per-pair encode vs pooled batch assembly
## from cached attribute halves on an encode-dominated 10x-ISS workload;
## gates bit-exact chunk parity and >= 3x speedup; emits BENCH_encode.json.
bench-encode:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_encode.py

## Observability smoke (tier-2): traced session on customer A, NDJSON
## well-formedness + iteration parity + `repro trace summarize` rendering.
trace-smoke:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_trace_smoke.py

## Benchmark correctness smoke (tier-2): one short seed-1 run each of the
## repo benchmark's `rematch` workload (customer D on the 10x-scaled ISS,
## drift deltas with retypes through the dtype filter, checked against a
## fresh matcher) and `serve` workload (open-loop traffic with hot swaps
## through the resident model versions, served scores checked against
## offline scoring of the pinned version).  The first run in a checkout
## prepares its state (about four minutes).  run.py exits 0 even when its
## check fails, so this fails unless each run's last stdout line is JSON
## with "correct": true.  Timings are printed, not gated.
perf-smoke:
	for workload in rematch serve; do \
	$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 2 --trace 0 \
	| $(PYTHON) -c 'import json, sys; lines = sys.stdin.read().splitlines(); \
	print(*lines, sep="\n"); \
	sys.exit(0 if lines and json.loads(lines[-1]).get("correct") is True \
	else f"perf-smoke: the {sys.argv[1]} run did not report correct: true")' $$workload \
	|| exit 1; \
	done
