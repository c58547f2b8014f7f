"""Character-level edit distance and the lexical similarity baseline.

The baseline scores a phrase pair by normalized Levenshtein similarity
between the lowercased anchor and target. It needs no training, so it
doubles as the sanity floor that any learned model has to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import reporting
from .corpus import Dataset
from .errors import EmptyDataset
from .evaluation import pearson_if_defined


def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of single-character edits turning ``a`` into ``b``.

    Edits are insertions, deletions, and substitutions, each of cost 1.
    Uses Myers' bit-parallel formulation of the dynamic program: the
    column of the DP table is kept as two bit vectors (positive and
    negative deltas) packed into Python integers, so each input
    character advances the whole column in O(ceil(|b|/word)) bit
    operations instead of O(|b|) cell updates. Results are exact.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)

    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)

    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv = mask  # positions where the column delta is +1
    mv = 0  # positions where the column delta is -1
    score = m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        mh = mh << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1]: 1 - distance / max(len(a), len(b), 1)."""
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b), 1)


@dataclass
class BaselineReport:
    """Lexical-baseline outcome over one dataset.

    ``pearson_vs_gold`` is None when the correlation is undefined, with
    the reason recorded in ``pearson_error``.
    """

    similarities: list[float]
    pearson_vs_gold: float | None
    pearson_error: str | None
    histogram: list[tuple[float, float, int]]


def run_baseline(d: Dataset) -> BaselineReport:
    """Score every record by lowercased anchor/target similarity.

    A constant similarity or constant gold column makes the correlation
    undefined; that is reported in the result rather than raised, since
    the similarities themselves are still valid output.
    """
    if len(d) == 0:
        raise EmptyDataset(f"{d.source_path}: baseline needs at least one record")

    sims = [levenshtein_similarity(r.anchor.lower(), r.target.lower()) for r in d]
    corr, error = pearson_if_defined([r.score for r in d], sims)
    return BaselineReport(
        similarities=sims,
        pearson_vs_gold=corr,
        pearson_error=error,
        histogram=reporting.unit_histogram(sims),
    )
