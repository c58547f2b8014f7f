"""Seeded synthetic patent-style phrase-pair corpora.

A corpus row pairs a short anchor phrase (1-3 words) with a target
phrase, tags it with a CPC-like context code (a section letter and two
digits, about a hundred codes per corpus) and carries a gold score in
quarter steps. Words are drawn Zipf-distributed from a generated
lexicon, so a few hundred rows already touch several hundred distinct
tokens. Each anchor is reused for several rows, as in the real
phrase-matching data. The score decides how many anchor words the
target repeats, so both the lexical baseline and a trained encoder see
signal.

Output depends only on the seed and the shape arguments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SCORES = (0.0, 0.25, 0.5, 0.75, 1.0)
# rough shape of the real phrase-matching score distribution
SCORE_WEIGHTS = (0.2, 0.31, 0.34, 0.11, 0.04)
ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v", "st", "tr", "pl", "gr")
VOWELS = ("a", "e", "i", "o", "u", "io", "ea")
CODAS = ("", "", "n", "r", "s", "t", "l", "x", "nt")
ROWS_PER_ANCHOR = 4
CONTEXT_CODES = 100
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class CorpusShape:
    rows: int
    lexicon: int
    anchor_words: tuple[int, int]
    target_words: tuple[int, int]


# phrase-pair corpus of the training and scoring workloads
TRAIN_SHAPE = CorpusShape(rows=240, lexicon=3000, anchor_words=(1, 3), target_words=(1, 5))
# corpus the scoring workload trains its checkpoint on and then serves
SCORE_SHAPE = replace(TRAIN_SHAPE, rows=512)


def make_lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct pronounceable lowercase words of 2-4 syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n_syl = int(rng.integers(2, 5))
        word = "".join(
            ONSETS[rng.integers(len(ONSETS))] + VOWELS[rng.integers(len(VOWELS))]
            for _ in range(n_syl)
        ) + CODAS[rng.integers(len(CODAS))]
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def make_contexts(rng: np.random.Generator, count: int) -> list[str]:
    codes = [f"{section}{num:02d}" for section in "ABCDEFGH" for num in range(1, 100)]
    picks = rng.choice(len(codes), size=count, replace=False)
    return [codes[i] for i in sorted(picks)]


def generate_rows(seed: int, shape: CorpusShape) -> list[tuple[str, str, str, str, str]]:
    """Rows of (id, anchor, target, context, score) for one seed."""
    rng = np.random.default_rng(seed)
    lexicon = make_lexicon(rng, shape.lexicon)
    contexts = make_contexts(rng, CONTEXT_CODES)
    ranks = np.arange(1, shape.lexicon + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -ZIPF_EXPONENT)
    cdf /= cdf[-1]
    score_cdf = np.cumsum(SCORE_WEIGHTS)

    def words(lo_hi: tuple[int, int]) -> list[str]:
        n = int(rng.integers(lo_hi[0], lo_hi[1] + 1))
        picks = np.minimum(cdf.searchsorted(rng.random(n)), shape.lexicon - 1)
        return [lexicon[i] for i in picks]

    n_anchors = max(1, shape.rows // ROWS_PER_ANCHOR)
    anchors = [words(shape.anchor_words) for _ in range(n_anchors)]
    anchor_context = [contexts[i] for i in rng.integers(len(contexts), size=n_anchors)]

    rows = []
    ids: set[str] = set()
    for r in range(shape.rows):
        a = int(rng.integers(n_anchors))
        anchor = anchors[a]
        score_i = min(int(score_cdf.searchsorted(rng.random() * score_cdf[-1])), len(SCORES) - 1)
        # higher scores repeat more of the anchor at the head of the target
        keep = round(len(anchor) * score_i / (len(SCORES) - 1))
        fresh = words(shape.target_words)
        target = anchor[:keep] + fresh[: max(len(fresh) - keep, 1)]
        context = anchor_context[a] if rng.random() < 0.8 else contexts[rng.integers(len(contexts))]
        rec_id = f"{int(rng.integers(1 << 62)):016x}"
        while rec_id in ids:
            rec_id = f"{int(rng.integers(1 << 62)):016x}"
        ids.add(rec_id)
        rows.append((rec_id, " ".join(anchor), " ".join(target), context, f"{SCORES[score_i]:.2f}"))
    return rows


def write_corpus(path: Path, seed: int, shape: CorpusShape) -> Path:
    """Write one corpus CSV with the phraselab header; returns ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("id", "anchor", "target", "context", "score"))
        writer.writerows(generate_rows(seed, shape))
    return path
