"""Canary for the BLAS property that eval scoring's bits rest on.

The eval forward runs its top block for two grid columns per row
instead of every position, and bulk scoring runs tiles whose products
hold different numbers of rows. Neither moves a score's bits, because
a row of a matrix product with two rows or more and four columns or
more has the bits of the same row in any other such product of the
same operands. Two things break it, and the code keeps clear of both:

- a one-row product may take BLAS's matrix-vector path, which rounds
  differently, so M = 1 is left out here;
- with three columns or fewer, a product of four rows or more may
  round a row differently from one of two or three rows (OpenBLAS
  0.3.31 does from 16 inner terms on), so ``model._head_only_keeps_bits``
  runs the full top block for a head width, bucket count or FFN width
  below four. Only the scores' own products go below four columns: one
  query row per key for a batch of width 2 or 3, where the full block
  has 2 or 3 query rows as well.

A BLAS without the property fails here, naming the product, before
any golden score moves.
"""

import numpy as np
import pytest

from phraselab import model, text

# (K, N) of the products the eval forward runs: the small preset's
# d_model 64 and FFN 256 (the xsmall preset's 32 and 128), per-head
# width 16 (8), 16 relative buckets and sequence lengths 4 to 16
WIDE = [
    (64, 64), (64, 192), (64, 256), (256, 64), (32, 32), (32, 128), (128, 32),
    (16, 16), (16, 4), (16, 7), (16, 13), (4, 16), (7, 16), (13, 16), (8, 8), (8, 16),
]
TALL = model._SCORE_TILE * 16  # a tile's positions at max_len 16
# the most rows a tile can hold: its positions over the narrowest width
# encode makes ([CLS] and one [SEP] per segment, every segment empty)
MOST_ROWS = TALL // min(1 + len(segments) for segments in text.LAYOUTS.values())


def row_sets(rng, tall):
    """Prefixes of every height from 2, and scattered row subsets."""
    for m in range(2, tall):
        yield np.arange(m)
    for size in (2, 3, 17, 100):
        yield np.sort(rng.choice(tall, size, replace=False))


@pytest.mark.parametrize("k, n", WIDE, ids=lambda v: str(v))
def test_a_row_of_a_product_keeps_its_bits_at_any_height_from_two(k, n):
    rng = np.random.default_rng(k * 1000 + n)
    a = rng.normal(0.0, 1.0, (TALL, k))
    w = rng.normal(0.0, 0.1, (k, n))
    full = a @ w
    for rows in row_sets(rng, TALL):
        assert np.array_equal(a[rows] @ w, full[rows]), f"({len(rows)}, {k}) @ ({k}, {n})"


@pytest.mark.parametrize("length", [2, 3])
@pytest.mark.parametrize("d_head", [8, 16, 64])
def test_scores_of_a_short_batch_keep_their_bits_at_two_query_rows(length, d_head):
    """(2, dh) @ (dh, L) against (L, dh) @ (dh, L) for L of 2 and 3:
    the one product the cut narrows below four columns."""
    rng = np.random.default_rng(length * 100 + d_head)
    for _ in range(50):
        q = rng.normal(0.0, 1.0, (length, d_head))
        k = rng.normal(0.0, 1.0, (d_head, length))
        assert np.array_equal(q[:2] @ k, (q @ k)[:2])


@pytest.mark.parametrize("length", [2, 7, 16])
def test_stacked_per_head_products_keep_their_rows_bits(length):
    """The attention's (B, H, ...) products of two query rows against
    those of every row of a tile, at the most rows a tile can hold:
    scores, bucket fields and the value mix."""
    rng = np.random.default_rng(length)
    batch = MOST_ROWS
    q = rng.normal(0.0, 1.0, (batch, 4, length, 16))
    k = rng.normal(0.0, 1.0, (batch, 4, length, 16))
    rel = rng.normal(0.0, 1.0, (1, 4, 16, 16))
    probs = rng.random((batch, 4, length, length))
    for full, cut in (
        (q @ k.swapaxes(-1, -2), q[:, :, :2] @ k.swapaxes(-1, -2)),
        (q @ rel, q[:, :, :2] @ rel),
        (probs @ k, probs[:, :, :2] @ k),
    ):
        assert np.array_equal(cut, full[:, :, :2])
