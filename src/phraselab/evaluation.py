"""Correlation metric, stratified fold planning, and cross-validation.

The headline estimate is mean squared error accumulated over every
held-out prediction across all folds: each sample is scored exactly
once by the model that never saw it, and the estimate is the exact mean
of those per-sample losses (compensated summation, so a fixture with
per-fold losses 0.2 and 0.4 aggregates to 0.3 precisely).
"""

from __future__ import annotations

import math
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
    ZeroVariance,
)


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


# trainer signature: (dataset, train_indices, val_indices, fold_config)
TrainFn = Callable[[Dataset, Sequence[int], Sequence[int], object], FoldOutcome]


@dataclass
class FoldMetrics:
    fold: int
    n_val: int
    train_loss: float
    validation_loss: float
    pearson: Optional[float]
    pearson_error: Optional[str]


@dataclass
class MetricsReport:
    folds: list[FoldMetrics]
    cv_estimate: float
    mean_pearson: Optional[float]


def cv_estimate_from_losses(per_sample_losses: Sequence[float]) -> float:
    """Exact mean of per-sample held-out losses across all folds."""
    if len(per_sample_losses) == 0:
        raise ConfigError("cannot aggregate zero held-out losses")
    return math.fsum(per_sample_losses) / len(per_sample_losses)


def cross_validate(
    d: Dataset,
    plan: FoldPlan,
    cfg: object,
    train_fn: TrainFn,
) -> MetricsReport:
    """Run every fold of ``plan`` and aggregate held-out losses.

    For fold ``f`` the trainer sees ``cfg`` reseeded to ``seed ^ f`` so
    folds are independent yet reproducible. ``train_fn`` fits and
    scores one fold (``model.model_fold_trainer`` for the neural
    model). Per-fold Pearson is None when undefined.
    Errors raised inside a fold propagate annotated with the fold id.
    """
    if len(plan.assignment) != len(d):
        raise ShapeMismatch(
            f"plan covers {len(plan.assignment)} records, dataset has {len(d)}"
        )
    gold_all = [r.score for r in d]
    all_losses: list[float] = []
    fold_rows: list[FoldMetrics] = []
    fold_pearsons: list[float] = []

    for f in range(plan.k):
        val_idx = plan.val_indices(f)
        train_idx = plan.train_indices(f)
        if not val_idx or not train_idx:
            raise EmptySplit(f"fold {f} leaves an empty side of the split")
        fold_cfg = cfg if cfg is None else replace(cfg, seed=cfg.seed ^ f)
        try:
            outcome = train_fn(d, train_idx, val_idx, fold_cfg)
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
                train_loss=float(outcome.train_loss),
                validation_loss=cv_estimate_from_losses(losses),
                pearson=corr,
                pearson_error=corr_err,
            )
        )

    mean_corr = (
        math.fsum(fold_pearsons) / len(fold_pearsons) if fold_pearsons else None
    )
    return MetricsReport(
        folds=fold_rows,
        cv_estimate=cv_estimate_from_losses(all_losses),
        mean_pearson=mean_corr,
    )


def evaluate_baseline_cv(d: Dataset, plan: FoldPlan) -> MetricsReport:
    """Cross-validate the training-free lexical baseline.

    The baseline has nothing to fit, so its per-fold train loss is just
    the MSE of its similarities against gold on the training side.
    """
    from .lexical import levenshtein_similarity

    def baseline_fold(data, train_idx, val_idx, _cfg) -> FoldOutcome:
        def sim(i: int) -> float:
            rec = data.records[i]
            return levenshtein_similarity(rec.anchor.lower(), rec.target.lower())

        train_losses = [(sim(i) - data.records[i].score) ** 2 for i in train_idx]
        return FoldOutcome(
            predictions=[sim(i) for i in val_idx],
            train_loss=cv_estimate_from_losses(train_losses),
        )

    return cross_validate(d, plan, None, train_fn=baseline_fold)
