"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {onboard,rematch,serve} \\
        --seed N --seconds S --trace {0,1}

The first run in a checkout builds the prepared per-ISS state under
``.bench_build/`` (untimed, in a child process; minutes).  Every run then
works on fresh copies of it, so no run reads what another persisted.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layers' public methods in spans and prints the per-layer metrics instead,
writing the spans to ``.bench_build/traces/``.  The last line of standard
output is the JSON result; the lines before it are for people.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("onboard", "rematch", "serve")
#: BLAS threads per process.  Matrices here are small (hidden size 64), and
#: one thread leaves the other cores to the serve executor.
BLAS_THREADS = "1"
PREPARE_TIMEOUT_S = 1200


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Hash of the program and of the prepare code: keys the prepared state."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += [HERE / "prepare.py", HERE / "common.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepared_dir() -> Path:
    """The prepared state for this source tree, built on first use."""
    target = BUILD / f"prepared-{source_digest()}"
    if target.is_dir():
        return target
    BUILD.mkdir(exist_ok=True)
    for stale in BUILD.glob("prepared-*"):
        shutil.rmtree(stale, ignore_errors=True)
    partial = BUILD / f"partial-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print(f"preparing per-ISS state in {target.relative_to(ROOT)} (untimed)", flush=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), str(partial)],
            cwd=ROOT,
            env=env,
            check=True,
            timeout=PREPARE_TIMEOUT_S,
            stdout=sys.stderr,
        )
        partial.rename(target)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return target


class Run:
    """Context a workload gets: prepared state, store sandbox, trace context."""

    def __init__(self, prepared: Path, scratch: Path, recorder) -> None:
        from common import StoreSandbox

        self.prepared = prepared
        self.sandbox = StoreSandbox(prepared / "store", scratch)
        self.recorder = recorder

    def context(self, **context) -> None:
        """Label the spans recorded from now on (no-op when untraced)."""
        if self.recorder is not None:
            self.recorder.context = context

    def span(self, name: str, start: float, end: float, **context) -> None:
        """Record a span timed by the workload itself (no-op when untraced)."""
        if self.recorder is not None:
            self.recorder.add(name, start, end, **context)


def end_to_end(benchmark: dict, values: dict) -> dict:
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in benchmark["end_to_end"]
    }


def tracing_overhead(results: Path, args, benchmark: dict, traced: dict) -> dict:
    """Traced minus untraced end-to-end timings of this workload.

    The untraced reference is the run of the same seed in this checkout if
    there was one, else the median of the workload's untraced runs here.
    """
    same_seed = results / f"{args.workload}-seed{args.seed}.json"
    if same_seed.is_file():
        paths = [same_seed]
    else:
        paths = sorted(results.glob(f"{args.workload}-seed*.json"))
    if not paths:
        return {"values": {}, "lines": ["tracing overhead: no untraced run here yet"]}
    references = [json.loads(path.read_text()) for path in paths]
    values, lines = {}, []
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        if spec["unit"] not in ("s", "ms"):
            continue
        untraced = statistics.median(reference[name] for reference in references)
        values[name] = traced[name] - untraced
        lines.append(
            f"tracing overhead {name}: {values[name]:+.4g} {spec['unit']} (traced "
            f"{traced[name]:.4g}, untraced {untraced:.4g} over {len(paths)} run(s))"
        )
    return {"values": values, "lines": lines}


def stop_helper_processes() -> None:
    """Stop and reap every helper process the program started in this run.

    The serve residency publishes weights into shared memory, which starts
    multiprocessing's resource tracker; left alone it outlives this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro is missing; nothing to benchmark", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    prepared = prepared_dir()
    # Set before the first numpy import (the prepare child keeps defaults).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import importlib

    from spans import SpanRecorder, layer_metrics

    workload = importlib.import_module(args.workload)
    scratch = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    recorder = SpanRecorder() if args.trace else None
    try:
        if recorder is not None:
            recorder.install()
        try:
            result = workload.run(Run(prepared, scratch, recorder), args.seed, args.seconds)
        finally:
            if recorder is not None:
                recorder.remove()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.name("peak_rss_mb", "MB", gated_as="peak_rss_mb")

    for note in result.notes:
        print(note)
    print(
        f"settings: BLAS threads = {BLAS_THREADS}, usable cpus = "
        f"{len(os.sched_getaffinity(0))}, tracing = {'on' if args.trace else 'off'}"
    )
    results = BUILD / "results"
    if recorder is None:
        metrics = end_to_end(benchmark, result.metrics)
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(result.metrics)
        )
        for name, (value, unit, better, gated_as) in result.named.items():
            gate = f"gated as {gated_as}" if gated_as else "printed, not gated"
            print(f"{args.workload}: {name} = {value:.6g} {unit} ({better} is better; {gate})")
    else:
        layer = layer_metrics(recorder, result.counters, result.layer)
        layer["trace.first_predict_s"] = result.metrics["first_predict_s"]
        layer["trace.op_p50_ms"] = result.metrics["op_p50_ms"]
        metrics = {
            spec["name"]: {"value": float(layer[spec["name"]]), "unit": spec["unit"]}
            for spec in benchmark["per_layer"]
        }
        overhead = tracing_overhead(results, args, benchmark, result.metrics)
        for line in overhead["lines"]:
            print(line)
        path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        recorder.write(
            path,
            {
                "end_to_end_traced": result.metrics,
                "tracing_overhead": overhead["values"],
                "layer": layer,
                "counters": result.counters,
            },
        )
        print(f"spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")
    for error in result.errors:
        print(f"CHECK FAILED: {error}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not result.errors,
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helper_processes()
    sys.exit(code)
