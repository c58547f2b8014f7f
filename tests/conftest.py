import numpy as np
import pytest

from phraselab.corpus import Dataset, PhraseRecord


def make_dataset(rows, source="memory"):
    """rows: iterable of (id, anchor, target, context, score)."""
    recs = tuple(PhraseRecord(*row) for row in rows)
    return Dataset(recs, source)


def write_csv(path, rows, header="id,anchor,target,context,score"):
    lines = [header] + [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def tiny_csv(tmp_path):
    return write_csv(
        tmp_path / "tiny.csv",
        [
            ("r1", "abatement", "eliminating process", "A47", 0.5),
            ("r2", "abatement", "forest region", "A01", 0.25),
            ("r3", "active catalyst", "eliminating process", "A47", 1.0),
        ],
    )


OVERLAP_WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lam", "mu", "nu", "xi", "omicron", "pi",
    "rho", "sigma", "tau", "upsilon", "phi", "chi", "psi", "omega",
    "ash", "birch", "cedar", "elm", "fir", "hazel", "oak", "pine",
    "amber", "coral", "jade", "onyx", "opal", "pearl", "ruby", "topaz",
]


def overlap_dataset(n_pairs=32, n_extra=4, seed=5):
    """Synthetic phrase pairs whose gold score is exact token overlap.

    Gold = |anchor tokens ∩ target tokens| / |anchor tokens ∪ target
    tokens|. Pairs are built from (shared, extra-a, extra-b) count
    patterns so every gold lands strictly inside (0, 1), away from the
    saturated ends of the output unit, and each pair carries a unique
    context token a memorizing model can latch onto.
    """
    rng = np.random.default_rng(seed)
    shapes = [
        (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
        (2, 2, 1), (2, 1, 2), (3, 1, 1), (1, 2, 2),
    ]
    rows = []
    for i in range(n_pairs + n_extra):
        s, e1, e2 = shapes[i % len(shapes)]
        picks = rng.choice(len(OVERLAP_WORDS), size=s + e1 + e2, replace=False)
        words = [OVERLAP_WORDS[j] for j in picks]
        shared, rest = words[:s], words[s:]
        a = shared + rest[:e1]
        b = shared + rest[e1:]
        inter = len(set(a) & set(b))
        union = len(set(a) | set(b))
        tag = "p" if i < n_pairs else "v"
        rows.append((f"{tag}{i:02d}", " ".join(a), " ".join(b), f"ctx{i:02d}", inter / union))
    return make_dataset(rows, "synthetic-overlap")
