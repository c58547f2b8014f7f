"""The benchmark workloads and their output checks.

Every workload is a closed loop with one client: the next call starts
only after the previous one returned. A workload prepares its inputs
from the seed (untimed), then repeats a timed public-API set-up and
its unit of work until the time budget is spent. Each repetition runs
its output checks outside the timed region; an operation whose call
fails, exits non-zero or fails a check counts as failed. Timings are
kept for failed operations too, so a broken program still gets numbers
next to ``correct: false``.

Throughputs are work over time summed across the run's repetitions,
and latencies are mean times per operation, so a run that drifts
between slower and faster stretches of a shared host reports its
average speed (a median jumps between the two).

- ``cv-train``: the paper's pipeline on one corpus through ``cli.main``:
  ``phraselab eda``, ``phraselab baseline``, then ``phraselab crossval
  --preset small``; training dominates.
- ``score-pairs``: one checkpoint served three ways: single pairs
  through ``text.encode`` + ``model.forward``, a bulk
  ``model.predict`` at batch 256, and cold ``python -m phraselab
  score`` subprocesses.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from phraselab import cli, corpus, evaluation, lexical, model, text

import spans
import synth

COLD_RUNS_PER_REP = 2
COLD_TIMEOUT_S = 60
SCORE_TOLERANCE = 1e-12
# the report prints six decimals: half a last digit, plus rounding
PEARSON_TOLERANCE = 0.5e-6 + 1e-12
BULK_BATCH = 256


def edit_distance_dp(a: str, b: str) -> int:
    """Plain O(len(a) * len(b)) Levenshtein table, one row at a time."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@dataclass
class Ops:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def check(fn, problems: list[str], *args) -> bool:
    """Run one output check, which appends to ``problems`` what it finds wrong.

    A check that raises has failed too.
    """
    try:
        return fn(*args, problems)
    except Exception as exc:  # missing or unreadable artifacts fail the check
        problems.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
        return False


def run_cli(argv: list) -> tuple[float, list[str]]:
    """One in-process ``cli.main`` call: (wall seconds, problems)."""
    started = time.perf_counter()
    try:
        code = cli.main([str(a) for a in argv])
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        return time.perf_counter() - started, [f"{argv[0]}: {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - started
    return elapsed, [] if code == 0 else [f"{argv[0]}: exit code {code}"]


class Workload:
    """Base: subclasses fill ``prepare``, ``setup`` and ``rep``."""

    name = ""
    # set-ups timed back to back per set-up sample
    setup_repeats = 1

    def __init__(self, work: Path, seed: int, src: Path) -> None:
        self.work = work
        self.seed = seed
        self.src = src
        self.ops = Ops()

    def prepare(self) -> None:
        """Write the inputs; untimed."""

    def setup(self) -> float:
        """One timed public-API set-up before a repetition; returns its wall seconds."""
        raise NotImplementedError

    def rep(self, index: int, tracer: Optional[spans.Tracer]) -> float:
        """One repetition; returns the wall seconds of its in-process timed calls.

        ``tracer``, when given, is installed only around the timed calls.
        """
        raise NotImplementedError

    def metrics(self) -> tuple[dict, dict]:
        """(end-to-end metrics, workload-specific named metrics)."""
        raise NotImplementedError


class CvTrain(Workload):
    """``eda``, ``baseline`` and ``crossval`` on one corpus, in that order.

    The end-to-end numbers cover ``crossval`` only; the two lexical
    commands take a few milliseconds on this corpus and are there so the
    ``corpus`` statistics and ``lexical`` layers are traced and checked.
    """

    name = "cv-train"
    k = 3
    epochs = 1
    # loading the small corpus takes about a millisecond, too short to time once
    setup_repeats = 20

    def __init__(self, work, seed, src, shape: synth.CorpusShape = synth.TRAIN_SHAPE) -> None:
        super().__init__(work, seed, src)
        self.shape = shape
        self.walls: list[float] = []
        self.samples: list[int] = []
        self.baseline_walls: list[float] = []
        self.eda_walls: list[float] = []
        self.report_digest: Optional[str] = None
        self.report: dict = {}
        self.vocab_tokens = 0
        # artifact digests of the first repetition, per lexical command
        self.digests: dict[str, dict[str, str]] = {}

    def prepare(self) -> None:
        self.csv = synth.write_corpus(self.work / "cv.csv", self.seed, self.shape)
        self.dataset = corpus.load_dataset(self.csv)
        # the benchmark's own reading of the file and its own similarities,
        # independent of corpus.load_dataset and lexical
        self.rows = read_rows(self.csv)
        self.pairs = [(r["anchor"].lower(), r["target"].lower()) for r in self.rows]
        self.distances = [edit_distance_dp(a, b) for a, b in self.pairs]
        sims = np.array(
            [1.0 - d / max(len(a), len(b), 1) for d, (a, b) in zip(self.distances, self.pairs)]
        )
        self.hist_counts = np.bincount(np.minimum((sims * 10.0).astype(np.int64), 9), minlength=10).tolist()
        self.pearson = float(np.corrcoef([float(r["score"]) for r in self.rows], sims)[0, 1])

    def setup(self) -> float:
        started = time.perf_counter()
        corpus.load_dataset(self.csv)
        return time.perf_counter() - started

    def rep(self, index, tracer):
        out = self.work / f"cv_{index}"
        argv = [
            "crossval", "--data", self.csv, "--out", out / "crossval", "--preset", "small",
            "--k", self.k, "--epochs", self.epochs, "--seed", self.seed,
        ]
        with tracer or contextlib.nullcontext():
            eda_wall, eda_problems = run_cli(["eda", "--data", self.csv, "--out", out / "eda"])
            base_wall, base_problems = run_cli(["baseline", "--data", self.csv, "--out", out / "baseline"])
            wall, problems = run_cli(argv)
        eda_ok = (
            not eda_problems
            and check(self._check_eda, eda_problems, out / "eda")
            and check(self._check_repeatable, eda_problems, out / "eda")
        )
        base_ok = (
            not base_problems
            and check(self._check_baseline, base_problems, out / "baseline")
            and check(self._check_repeatable, base_problems, out / "baseline")
        )
        ok = not problems and check(self._check_crossval, problems, out / "crossval")
        self.ops.record(eda_ok, f"eda rep {index}: {'; '.join(eda_problems)}")
        self.ops.record(base_ok, f"baseline rep {index}: {'; '.join(base_problems)}")
        self.ops.record(ok, f"crossval rep {index}: {'; '.join(problems)}")
        self.eda_walls.append(eda_wall)
        self.baseline_walls.append(base_wall)
        self.walls.append(wall)
        # every record is held out once, so each lands in k - 1 training sides
        self.samples.append(self.epochs * (self.k - 1) * len(self.dataset))
        shutil.rmtree(out, ignore_errors=True)
        return eda_wall + base_wall + wall

    def _check_crossval(self, out: Path, problems: list[str]) -> bool:
        """cv_report.json repeats byte for byte and every fold's held-out
        loss is reproduced from its saved checkpoint and vocabulary."""
        report_path = out / "cv_report.json"
        digest = file_digest(report_path)
        if self.report_digest is None:
            self.report_digest = digest
        elif digest != self.report_digest:
            problems.append("cv_report.json differs between repetitions")
            return False
        self.report = json.loads(report_path.read_text(encoding="utf-8"))
        plan = evaluation.stratified_kfold(
            self.dataset, self.report["k"], n_bins=self.report["n_bins"], seed=self.report["seed"]
        )
        for fold in self.report["folds"]:
            f = fold["fold"]
            ckpt = out / f"fold_{f}.ckpt"
            params, cfg = model.load_checkpoint(ckpt)
            vocab = text.load_vocab(f"{ckpt}.vocab.txt")
            self.vocab_tokens = max(self.vocab_tokens, len(vocab))
            val = plan.val_indices(f)
            preds = model.predict(self.dataset, val, params, cfg, vocab)
            losses = [
                (float(p) - self.dataset.records[i].score) ** 2 for p, i in zip(preds, val)
            ]
            loss = math.fsum(losses) / len(losses)
            if len(val) != fold["n_val"] or f"{loss:.6f}" != f"{fold['validation_loss']:.6f}":
                problems.append(
                    f"fold {f}: reloaded loss {loss:.6f} != reported {fold['validation_loss']:.6f}"
                )
                return False
        return True

    def _check_baseline(self, out: Path, problems: list[str]) -> bool:
        """Counts, histogram and correlation match the benchmark's own
        similarities, and every distance matches the plain table."""
        n = len(self.rows)
        report = json.loads((out / "baseline_report.json").read_text(encoding="utf-8"))
        counts = [int(r["count"]) for r in read_rows(out / "hist_levenshtein.csv")]
        if report["record_count"] != n:
            problems.append(f"baseline record_count {report['record_count']} != {n} rows")
            return False
        if counts != self.hist_counts:
            problems.append(f"levenshtein histogram {counts} != {self.hist_counts}")
            return False
        if report["pearson"] is None or abs(report["pearson"] - self.pearson) > PEARSON_TOLERANCE:
            problems.append(f"baseline pearson {report['pearson']!r} != {self.pearson!r}")
            return False
        for j, ((a, b), want) in enumerate(zip(self.pairs, self.distances)):
            got = lexical.levenshtein_distance(a, b)
            if got != want:
                problems.append(f"row {j}: levenshtein {got} != table {want}")
                return False
        return True

    def _check_eda(self, out: Path, problems: list[str]) -> bool:
        summary = json.loads((out / "eda_summary.json").read_text(encoding="utf-8"))
        n = len(self.rows)
        score_total = sum(int(r["count"]) for r in read_rows(out / "hist_score.csv"))
        if summary["record_count"] != n or score_total != n:
            problems.append(f"eda counts {summary['record_count']}/{score_total} != {n} rows")
            return False
        return True

    def _check_repeatable(self, out: Path, problems: list[str]) -> bool:
        """Every artifact except the timed run.json repeats byte for byte."""
        digests = {
            p.name: file_digest(p) for p in sorted(out.iterdir()) if p.name != "run.json"
        }
        if self.digests.setdefault(out.name, digests) != digests:
            problems.append(f"{out.name} artifacts differ between repetitions")
            return False
        return True

    def metrics(self):
        rate = sum(self.samples) / sum(self.walls)
        n = len(self.rows)
        e2e = {
            "throughput_per_s": (rate, "1/s"),
            "latency_ms": (statistics.fmean(self.walls) * 1e3, "ms"),
        }
        named = {
            "cv_samples_per_s": (rate, "1/s"),
            "cv_mse": (self.report.get("cv_estimate"), "1"),
            "cv_wall_p50_s": (statistics.median(self.walls), "s"),
            "cv_vocab_tokens": (self.vocab_tokens, "count"),
            "cv_runs": (len(self.walls), "count"),
            "baseline_pairs_per_s": (n * len(self.baseline_walls) / sum(self.baseline_walls), "1/s"),
            "eda_records_per_s": (n * len(self.eda_walls) / sum(self.eda_walls), "1/s"),
        }
        return e2e, named


class ScorePairs(Workload):
    name = "score-pairs"
    warmup_pairs = 32

    def __init__(self, work, seed, src, shape: synth.CorpusShape = synth.SCORE_SHAPE) -> None:
        super().__init__(work, seed, src)
        self.shape = shape
        self.latencies: list[float] = []
        self.bulk_rows = 0
        self.bulk_walls: list[float] = []
        self.cold_walls: list[float] = []

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def prepare(self) -> None:
        self.csv = synth.write_corpus(self.work / "score.csv", self.seed, self.shape)
        self.dataset = corpus.load_dataset(self.csv)
        # the checkpoint comes from a separate process, so its training
        # does not count against this process's memory or time
        out = self.work / "model"
        proc = subprocess.run(
            [
                sys.executable, "-m", "phraselab", "crossval", "--data", str(self.csv),
                "--out", str(out), "--preset", "small", "--k", "2", "--epochs", "1",
                "--seed", str(self.seed),
            ],
            env=self._env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"checkpoint training failed: {proc.stderr.strip()}")
        self.ckpt = out / "fold_0.ckpt"

    def setup(self) -> float:
        started = time.perf_counter()
        params, cfg = model.load_checkpoint(self.ckpt)
        vocab = text.load_vocab(f"{self.ckpt}.vocab.txt")
        rec = self.dataset.records[0]
        model.forward(
            text.encode(rec.anchor, rec.target, rec.context, vocab, cfg.max_len, cfg.input_layout),
            params, cfg,
        )
        elapsed = time.perf_counter() - started
        self.params, self.cfg, self.vocab = params, cfg, vocab
        return elapsed

    def _single(self, rec) -> float:
        cfg = self.cfg
        seq = text.encode(rec.anchor, rec.target, rec.context, self.vocab, cfg.max_len, cfg.input_layout)
        return model.forward(seq, self.params, cfg)

    def rep(self, index, tracer):
        if index == 0:
            for rec in self.dataset.records[: self.warmup_pairs]:
                self._single(rec)
        records = self.dataset.records
        singles: list[Optional[float]] = []
        lat: list[float] = []
        clock = time.perf_counter
        with tracer or contextlib.nullcontext():
            for rec in records:
                started = clock()
                try:
                    score = self._single(rec)
                except Exception:
                    score = None
                lat.append(clock() - started)
                singles.append(score)
            bulk_cfg = replace(self.cfg, batch_size=BULK_BATCH)
            started = clock()
            try:
                bulk = model.predict(self.dataset, range(len(records)), self.params, bulk_cfg, self.vocab)
                bulk_error = None
            except Exception as exc:
                bulk, bulk_error = None, f"{type(exc).__name__}: {exc}"
            bulk_wall = clock() - started
        wall = sum(lat) + bulk_wall

        bulk_ok = bulk is not None and bulk.shape == (len(records),) and bool(np.all(np.isfinite(bulk)))
        self.ops.record(bulk_ok, f"bulk predict rep {index}: {bulk_error or 'bad output'}")
        self.bulk_rows += len(records)
        self.bulk_walls.append(bulk_wall)
        for j, score in enumerate(singles):
            ok = score is not None and bulk_ok and abs(score - float(bulk[j])) <= SCORE_TOLERANCE
            self.ops.record(ok, f"pair {j} rep {index}: single {score!r} vs bulk")
        self.latencies.extend(lat)

        for c in range(COLD_RUNS_PER_REP):
            j = (index * COLD_RUNS_PER_REP + c) % len(records)
            self._cold(records[j], singles[j], index)
        return wall

    def _cold(self, rec, expected: Optional[float], index: int) -> None:
        argv = [
            sys.executable, "-m", "phraselab", "score", "--checkpoint", str(self.ckpt),
            "--anchor", rec.anchor, "--target", rec.target, "--context", rec.context,
        ]
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, env=self._env(), capture_output=True, text=True, timeout=COLD_TIMEOUT_S
            )
            ok = proc.returncode == 0 and expected is not None and proc.stdout.strip() == f"{expected:.6f}"
            detail = f"exit {proc.returncode}, printed {proc.stdout.strip()!r}, expected {expected!r}"
        except subprocess.TimeoutExpired:
            ok, detail = False, f"no answer within {COLD_TIMEOUT_S} s"
        self.cold_walls.append(time.perf_counter() - started)
        self.ops.record(ok, f"cold score rep {index}: {detail}")

    def metrics(self):
        bulk_rate = self.bulk_rows / sum(self.bulk_walls)
        e2e = {
            "throughput_per_s": (bulk_rate, "1/s"),
            "latency_ms": (statistics.fmean(self.latencies) * 1e3, "ms"),
        }
        named = {
            "score_p50_us": (statistics.median(self.latencies) * 1e6, "us"),
            "score_p90_us": (percentile(self.latencies, 90) * 1e6, "us"),
            "score_pairs": (len(self.latencies), "count"),
            "bulk_samples_per_s": (bulk_rate, "1/s"),
            "score_cold_p50_ms": (statistics.median(self.cold_walls) * 1e3, "ms"),
            "score_cold_runs": (len(self.cold_walls), "count"),
        }
        return e2e, named


WORKLOADS = {w.name: w for w in (CvTrain, ScorePairs)}
