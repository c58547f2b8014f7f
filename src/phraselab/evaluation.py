"""Correlation metric, stratified fold planning, and cross-validation.

The headline estimate is mean squared error accumulated over every
held-out prediction across all folds: each sample is scored exactly
once by the model that never saw it, and the estimate is the exact mean
of those per-sample losses (compensated summation, so a fixture with
per-fold losses 0.2 and 0.4 aggregates to 0.3 precisely).

Folds train in parallel worker processes, each on one BLAS thread:
one per usable CPU, or fewer than twice that many where the extra
workers keep every CPU busy until the last fold ends. Whatever a fold
trainer returns is sent back from its worker, so a trainer that saves
its model itself (as the ``crossval`` command's does) keeps the
parameters out of the calling process. Results are aggregated in fold
order, so nothing depends on how many workers ran.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import Dataset
from .errors import (
    ConfigError,
    EmptySplit,
    LengthMismatch,
    PhraseLabError,
    ShapeMismatch,
    TooFewRecords,
    WorkerLost,
    ZeroVariance,
)

# OpenBLAS's thread-count setters, under the names its builds export;
# each getter is named with ``_get_`` in place of ``_set_``
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)
# prctl(2) option: the signal a process gets when its parent dies
_PR_SET_PDEATHSIG = 1


def pearson(y: Sequence[float], yhat: Sequence[float]) -> float:
    """Pearson correlation between two equal-length sequences.

    Two-pass computation: means first, then centered products, all in
    float64. The result is clamped to [-1, 1] to absorb rounding at the
    extremes. A constant input makes the correlation undefined and
    raises ZeroVariance (checked by exact equality, not a tolerance).
    """
    ya = np.asarray(y, dtype=np.float64)
    za = np.asarray(yhat, dtype=np.float64)
    if ya.ndim != 1 or za.ndim != 1 or ya.shape != za.shape:
        raise LengthMismatch(f"paired sequences differ: {ya.shape} vs {za.shape}")
    if ya.size < 2:
        raise LengthMismatch(f"need at least 2 pairs, got {ya.size}")
    if np.all(ya == ya[0]):
        raise ZeroVariance("first input is constant, correlation undefined")
    if np.all(za == za[0]):
        raise ZeroVariance("second input is constant, correlation undefined")

    cy = ya - ya.mean()
    cz = za - za.mean()
    denom = math.sqrt(float(cy @ cy) * float(cz @ cz))
    if denom == 0.0:
        # distinct values that still center to zeros can only arise from
        # underflow; treat as undefined rather than dividing by zero
        raise ZeroVariance("centered inputs underflowed to zero variance")
    r = float(cy @ cz) / denom
    return min(1.0, max(-1.0, r))


def pearson_if_defined(
    y: Sequence[float], yhat: Sequence[float]
) -> tuple[Optional[float], Optional[str]]:
    """``(pearson(y, yhat), None)``, or ``(None, reason)`` when the
    correlation is undefined: a constant input, fewer than two pairs,
    or sequences of different lengths."""
    try:
        return pearson(y, yhat), None
    except (ZeroVariance, LengthMismatch) as exc:
        return None, str(exc)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every record to exactly one validation fold."""

    k: int
    assignment: tuple[int, ...]
    seed: int
    bin_edges: tuple[float, ...]

    def val_indices(self, fold: int) -> list[int]:
        self._check_fold(fold)
        return [i for i, f in enumerate(self.assignment) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        self._check_fold(fold)
        return [i for i, f in enumerate(self.assignment) if f != fold]

    def _check_fold(self, fold: int) -> None:
        if not 0 <= fold < self.k:
            raise ConfigError(f"fold {fold} outside [0, {self.k})")


def stratified_kfold(d: Dataset, k: int, n_bins: int = 5, seed: int = 0) -> FoldPlan:
    """Deal records into ``k`` folds, stratified by score bins.

    Scores are bucketed into ``n_bins`` equal-width bins over [0, 1]
    (the last bin closes at 1.0). Within each bin the records are
    shuffled with a generator seeded by ``seed`` and dealt round-robin;
    the dealing cursor runs on across bins so fold sizes stay within
    one of each other globally, not just per bin.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if n_bins < 1:
        raise ConfigError(f"need at least 1 score bin, got {n_bins}")
    if len(d) < k:
        raise TooFewRecords(f"{len(d)} records cannot fill {k} folds")

    by_bin: list[list[int]] = [[] for _ in range(n_bins)]
    for i, rec in enumerate(d):
        by_bin[min(int(rec.score * n_bins), n_bins - 1)].append(i)

    rng = np.random.default_rng(seed)
    assignment = [0] * len(d)
    cursor = 0
    for members in by_bin:
        order = rng.permutation(len(members))
        for pos in order:
            assignment[members[pos]] = cursor % k
            cursor += 1

    edges = tuple(b / n_bins for b in range(n_bins + 1))
    return FoldPlan(k=k, assignment=tuple(assignment), seed=seed, bin_edges=edges)


@dataclass
class FoldOutcome:
    """What a fold trainer hands back to the cross-validation driver.

    ``predictions`` aligns element-for-element with the validation
    indices the trainer received (ascending dataset order).
    """

    predictions: Sequence[float]
    train_loss: float
    trace: object = None
    extras: dict = field(default_factory=dict)


# trainer signature: (dataset, train_indices, val_indices, fold_config);
# a module-level function, since worker processes import it by name
TrainFn = Callable[[Dataset, Sequence[int], Sequence[int], object], FoldOutcome]


@dataclass
class FoldMetrics:
    fold: int
    n_val: int
    training_loss: float
    validation_loss: float
    pearson: Optional[float]
    pearson_error: Optional[str]


@dataclass
class MetricsReport:
    folds: list[FoldMetrics]
    cv_estimate: float
    mean_pearson: Optional[float]
    # what each fold's trainer returned, in fold order
    outcomes: list[FoldOutcome] = field(repr=False)


def cv_estimate_from_losses(per_sample_losses: Sequence[float]) -> float:
    """Exact mean of per-sample held-out losses across all folds."""
    if len(per_sample_losses) == 0:
        raise ConfigError("cannot aggregate zero held-out losses")
    return math.fsum(per_sample_losses) / len(per_sample_losses)


def fold_config(cfg: object, fold: int) -> object:
    """``cfg`` reseeded for fold ``fold``: seed ``cfg.seed ^ fold``, so
    folds are independent yet reproducible. None stays None."""
    return cfg if cfg is None else replace(cfg, seed=cfg.seed ^ fold)


@functools.cache
def _blas_thread_functions():
    """The thread-count setter and getter of one loaded OpenBLAS, under
    one name family, as ctypes functions with their signatures declared,
    or None when no loaded library exports both. ``/proc/self/maps`` is
    read once per process (NumPy's OpenBLAS is loaded with this module,
    and forked workers map the same libraries); None where it is
    missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            entries = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return None
    for path in sorted({e[5] for e in entries if len(e) == 6 and "openblas" in e[5].lower()}):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _fold_workers(k: int) -> int:
    """Worker processes for ``k`` folds: ``least = min(k, usable CPUs)``,
    or the fewest ``w`` below ``2 * least`` that divides ``k``, so every
    round of folds keeps every CPU busy and no CPU idles while the last
    fold trains (3 folds on 2 CPUs get 3 workers, 9 get 3, 10 get 2).
    The bound keeps a prime ``k`` from forking ``k`` workers (7 folds on
    2 CPUs get 2). 1, so the folds train in this process, when the
    BLAS's thread count cannot be pinned and restored: workers at its
    default count would oversubscribe the CPUs."""
    if _blas_thread_functions() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    least = max(1, min(k, cpus))
    return next((w for w in range(least, min(k, 2 * least - 1) + 1) if k % w == 0), least)


def _die_with(command_pid: int) -> None:
    """Initializer of a fold worker: have the kernel send it SIGTERM when
    the command that forked it dies, and exit at once if the command
    (``command_pid``) is already gone. A worker idling in the pool's
    call queue would otherwise wait forever, since its siblings hold
    the queue open. Never raises; a no-op where ``prctl`` is missing."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError, TypeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0) == 0 and os.getppid() != command_pid:
        os._exit(1)


@contextlib.contextmanager
def _started(calls: Sequence[Callable[[], FoldOutcome]], workers: int):
    """Start ``calls`` on ``workers`` processes; yields, in their order,
    one function per call that returns its result or raises what it
    raised.

    With one worker each call runs in this process when its result is
    asked for. Otherwise every call is sent at once to a pool of forked
    worker processes (fork, so workers do not import NumPy again). This
    process's OpenBLAS runs on one thread from before the pool starts,
    so each worker runs one BLAS thread: a fork pool forks all its
    workers at the first submit, and a forked OpenBLAS restarts its
    thread pool at the parent's count at fork time (setting the count
    in the child afterwards does not shrink that pool). This process
    gets its own count back only once every worker has exited, however
    the block ends: raising the count starts new OpenBLAS threads here,
    which would take CPU time from the workers. When the block ends
    every worker has exited, with calls not yet started cancelled. A
    worker that dies ends the block with WorkerLost. The workers die
    with this process (``_die_with``), even when it is killed; they are
    forked by the calling thread, which waits here for them.
    """
    if workers == 1:
        yield calls
        return
    # imported only here: the pool machinery would add ~5-7 ms to the
    # cold start of every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    blas = _blas_thread_functions()
    if blas is not None:
        set_threads, get_threads = blas
        threads = get_threads()
        set_threads(1)
    try:
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_die_with,
            initargs=(os.getpid(),),
        )
        try:
            futures = [pool.submit(call) for call in calls]
            yield [future.result for future in futures]
        except BrokenProcessPool as exc:
            raise WorkerLost("a worker process exited before returning its results") from exc
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        if blas is not None:
            set_threads(threads)


def cross_validate(
    d: Dataset,
    plan: FoldPlan,
    cfg: object,
    train_fn: TrainFn,
    *,
    in_process: bool = False,
) -> MetricsReport:
    """Run every fold of ``plan`` and aggregate held-out losses.

    For fold ``f`` the trainer sees ``fold_config(cfg, f)``.
    ``train_fn`` fits and scores one fold (``model.model_fold_trainer``
    for the neural model). The folds train at once in
    ``_fold_workers(plan.k)`` worker processes, each on one BLAS
    thread, so 3 folds on 2 CPUs run in 3 workers that share the CPUs.
    They train one after another in this process where there is one
    CPU, where the BLAS thread count cannot be set and read, or with
    ``in_process``, for folds too quick to be worth a worker. Either
    way ``train_fn`` must be a
    module-level function (or a ``functools.partial`` of one), which
    workers import by name, and ``cfg``, the dataset and what it
    returns must pickle. What it returns is all that crosses back from
    a worker: ``model.model_fold_trainer`` returns the fold's parameters
    and vocabulary in ``extras``, while ``crossval``'s trainer writes
    them to disk in the worker and returns their path instead. The
    outcomes come back in ``MetricsReport.outcomes``, in fold order.
    Per-fold Pearson is None when undefined.

    Errors raised inside a fold propagate annotated with the fold id;
    when several folds fail, the lowest-numbered one is reported.
    """
    if len(plan.assignment) != len(d):
        raise ShapeMismatch(
            f"plan covers {len(plan.assignment)} records, dataset has {len(d)}"
        )
    splits = []
    for f in range(plan.k):
        val_idx = plan.val_indices(f)
        train_idx = plan.train_indices(f)
        if not val_idx or not train_idx:
            raise EmptySplit(f"fold {f} leaves an empty side of the split")
        splits.append((train_idx, val_idx))
    try:
        pickle.dumps(train_fn)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigError(f"train_fn must be a module-level function: {exc}") from exc

    gold_all = [r.score for r in d]
    all_losses: list[float] = []
    fold_rows: list[FoldMetrics] = []
    fold_pearsons: list[float] = []
    outcomes: list[FoldOutcome] = []

    calls = [
        functools.partial(train_fn, d, train_idx, val_idx, fold_config(cfg, f))
        for f, (train_idx, val_idx) in enumerate(splits)
    ]
    workers = 1 if in_process else _fold_workers(plan.k)
    with _started(calls, workers) as results:
        for f, ((_, val_idx), result) in enumerate(zip(splits, results)):
            try:
                outcome = result()
            except PhraseLabError as exc:
                raise type(exc)(f"fold {f}: {exc}") from exc

            preds = np.asarray(outcome.predictions, dtype=np.float64)
            if preds.shape != (len(val_idx),):
                raise ShapeMismatch(
                    f"fold {f}: trainer returned {preds.shape[0] if preds.ndim else 0} "
                    f"predictions for {len(val_idx)} held-out records"
                )
            gold = np.asarray([gold_all[i] for i in val_idx], dtype=np.float64)
            losses = [(float(p) - float(g)) ** 2 for p, g in zip(preds, gold)]
            all_losses.extend(losses)

            corr, corr_err = pearson_if_defined(gold, preds)
            if corr is not None:
                fold_pearsons.append(corr)

            fold_rows.append(
                FoldMetrics(
                    fold=f,
                    n_val=len(val_idx),
                    training_loss=float(outcome.train_loss),
                    validation_loss=cv_estimate_from_losses(losses),
                    pearson=corr,
                    pearson_error=corr_err,
                )
            )
            outcomes.append(outcome)

    mean_corr = (
        math.fsum(fold_pearsons) / len(fold_pearsons) if fold_pearsons else None
    )
    return MetricsReport(
        folds=fold_rows,
        cv_estimate=cv_estimate_from_losses(all_losses),
        mean_pearson=mean_corr,
        outcomes=outcomes,
    )


def _baseline_fold(data: Dataset, train_idx, val_idx, _cfg) -> FoldOutcome:
    """Fold hook for the lexical baseline: nothing to fit, so its train
    loss is the MSE of its similarities against gold on the training side."""
    from .lexical import pair_similarity

    records = data.records
    train_losses = [(pair_similarity(records[i]) - records[i].score) ** 2 for i in train_idx]
    return FoldOutcome(
        predictions=[pair_similarity(records[i]) for i in val_idx],
        train_loss=cv_estimate_from_losses(train_losses),
    )


def evaluate_baseline_cv(d: Dataset, plan: FoldPlan) -> MetricsReport:
    """Cross-validate the training-free lexical baseline (``_baseline_fold``)
    in this process: a fold is far quicker than forking a worker."""
    return cross_validate(d, plan, None, train_fn=_baseline_fold, in_process=True)
