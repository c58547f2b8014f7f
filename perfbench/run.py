"""phraselab benchmark: one workload, one seed, one time budget.

Usage, from the repository root::

    python3 perfbench/run.py --workload cv-train --seed 1 --seconds 20 --trace 0

Workloads: ``cv-train`` and ``score-pairs`` (see ``workloads.py``). The program is imported from ``src/`` of the
checkout the script sits in; all inputs are generated from ``--seed``.

With ``--trace 0`` the run is untraced and the last stdout line holds
the end-to-end metrics: throughput (work over time summed across
repetitions), mean latency of one operation, the fastest set-up (every
repetition sets up afresh first) and peak resident memory. With ``--trace 1`` repetitions alternate
between untraced and traced (the tracer wraps the package's public
functions from outside) and the last line holds the per-layer metrics:
per-repetition medians of each traced function's call count, self time
and extra quantity, the share of the traced wall time attributed to a
layer below the entry points, and the traced-over-untraced wall time
ratio minus one.

The line before the last holds the workload's own named metrics (for
an untraced run) and the run environment. Both are also written under
``.perfbench_out/`` in the checkout, with the spans of a traced run.
BLAS and OpenMP threads are pinned to one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("cv-train", "score-pairs")

# end-to-end metrics printed by an untraced run, in BENCHMARK.json order
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics printed by a traced run, in BENCHMARK.json order
PER_LAYER = (
    ("attention.forward_batched.calls", "count"),
    ("attention.forward_batched.self_s", "s"),
    ("attention.forward_batched.flops", "flop"),
    ("attention.backward_batched.calls", "count"),
    ("attention.backward_batched.self_s", "s"),
    ("model.forward_batch.calls", "count"),
    ("model.forward_batch.self_s", "s"),
    ("model.loss_and_grads.self_s", "s"),
    ("model.clip_global_norm.self_s", "s"),
    ("model.AdamState.update.self_s", "s"),
    ("model.init_params.self_s", "s"),
    ("model.train.self_s", "s"),
    ("model.forward.calls", "count"),
    ("model.forward.self_s", "s"),
    ("model.predict.self_s", "s"),
    ("text.encode.calls", "count"),
    ("text.encode.self_s", "s"),
    ("model.save_checkpoint.self_s", "s"),
    ("model.save_checkpoint.bytes", "B"),
    ("text.save_vocab.self_s", "s"),
    ("reporting.sha256_of.self_s", "s"),
    ("reporting.sha256_of.bytes", "B"),
    ("model.load_checkpoint.self_s", "s"),
    ("model.load_checkpoint.bytes", "B"),
    ("text.load_vocab.self_s", "s"),
    ("text.build_vocab.self_s", "s"),
    ("text.build_vocab.tokens", "count"),
    ("corpus.load_dataset.self_s", "s"),
    ("corpus.load_dataset.records", "count"),
    ("lexical.levenshtein_distance.calls", "count"),
    ("lexical.levenshtein_distance.self_s", "s"),
    ("lexical.run_baseline.self_s", "s"),
    ("corpus.compute_eda.self_s", "s"),
    ("corpus.export_eda.self_s", "s"),
    ("reporting.write_text.self_s", "s"),
    ("reporting.write_text.bytes", "B"),
    ("evaluation.cross_validate.self_s", "s"),
    ("evaluation.stratified_kfold.self_s", "s"),
    ("evaluation.pearson.calls", "count"),
    ("evaluation.pearson.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import phraselab from it."""
    package = SRC / "phraselab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phraselab sources at {package}")
    sys.path.insert(0, str(SRC))
    import phraselab

    if Path(phraselab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported phraselab from {phraselab.__file__}, not {package}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "phraselab").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def layer_metrics(setup_logs, logs, traced_walls, plain_walls) -> dict:
    """Per-layer cost of one set-up plus one repetition, with coverage and overhead.

    Each quantity is the median over traced set-ups plus the median over
    traced repetitions. Coverage and overhead cover the repetitions only.
    Coverage is the share of the traced wall time attributed to a layer
    below the entry points: the self time of every span with a traced
    parent, so neither the entry points' own work (``cli.main``; the
    ``text.encode``, ``model.forward`` and ``model.predict`` calls of
    score-pairs) nor time no span covers counts. Overhead is traced over
    untraced repetition wall time, minus one.
    """
    per_setup = [spans.aggregate(log) for log in setup_logs]
    per_rep = [spans.aggregate(log) for log in logs]

    def median_of(aggs, prefix, quantity):
        return statistics.median(a.get(prefix, {}).get(quantity, 0.0) for a in aggs) if aggs else 0.0

    values = {}
    for name, _unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        prefix, quantity = name.rsplit(".", 1)
        values[name] = median_of(per_setup, prefix, quantity) + median_of(per_rep, prefix, quantity)
    coverage = [spans.below_entry_s(log) / wall for log, wall in zip(logs, traced_walls)]
    values["trace.coverage"] = statistics.median(coverage)
    values["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, **workload_kw) -> dict:
    """Run one workload; returns the result line, the full report and the span logs."""
    import workloads  # needs phraselab on the path

    wl = workloads.WORKLOADS[name](work, seed, SRC, **workload_kw)
    wl.prepare()

    setups: list[float] = []
    setup_logs = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    logs = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        # every repetition sets up afresh, so the set-up samples spread over
        # the run; a traced run traces every other set-up (its first call
        # only) and repetition
        traced = trace and index % 2 == 1
        tracer = spans.Tracer() if traced else None
        with tracer if traced else contextlib.nullcontext():
            first = wl.setup()
        setups.append((first + sum(wl.setup() for _ in range(wl.setup_repeats - 1))) / wl.setup_repeats)
        if traced:
            setup_logs.append(tracer.log)
            tracer = spans.Tracer()
        wall = wl.rep(index, tracer)
        if traced:
            traced_walls.append(wall)
            logs.append(tracer.log)
        else:
            plain_walls.append(wall)
        index += 1
        if time.perf_counter() >= deadline and (traced_walls or not trace):
            break
    leftover = spans.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "setup_s_samples": setups,
        "untraced_rep_walls_s": plain_walls,
        "traced_rep_walls_s": traced_walls,
        "failures": wl.ops.messages,
    }
    if trace:
        metrics = layer_metrics(setup_logs, logs, traced_walls, plain_walls)
        report["spans"] = sum(len(log) for log in setup_logs + logs)
    else:
        e2e, named = wl.metrics()
        # the fastest set-up, as timeit reports: set-up is short interpreter
        # work whose samples fall into two clusters, about 2x apart, with the
        # shared host's slow and fast stretches, so a run's mean or median
        # follows the mix of stretches it fell into
        e2e["setup_s"] = (min(setups), "s")
        e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics = {metric: {"value": e2e[metric][0], "unit": unit} for metric, unit in END_TO_END}
        named["fail_ratio"] = (wl.ops.failed / wl.ops.attempted, "ratio")
        report["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    result = {
        "correct": wl.ops.failed == 0,
        "attempted": wl.ops.attempted,
        "failed": wl.ops.failed,
        "metrics": metrics,
    }
    return {"result": result, "report": report, "logs": setup_logs + logs}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="phraselab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before NumPy is first imported; cold subprocesses inherit it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()

    work = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = dict(out["report"], result=out["result"])
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if out["logs"]:
        spans.write_spans(Path(f"{stem}.spans.csv.gz"), out["logs"])
    for message in out["report"]["failures"]:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
