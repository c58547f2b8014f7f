"""Encoder with disentangled attention blocks and a regression head.

Architecture, bottom to top: token embedding lookup; a stack of
pre-layer-norm blocks (norm, disentangled attention, residual, norm,
GELU feed-forward, residual) that use only relative positions; an
absolute-position injection adding ``abs_pos_embed`` to the hidden
states entering the final block (late injection, instead of the usual
input-time addition); a pooled head ``tanh(dense(h[CLS]))`` feeding a
logistic scalar that lands the predicted similarity in (0, 1).

Training minimizes mean squared error with Adam and global-norm
gradient clipping. Every forward/backward is hand-written over float64
numpy arrays, and the backward pass is held to finite differences by
the test suite.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
import struct
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import attention as attn_mod
from . import evaluation as eval_mod
from .attention import AttentionConfig, AttentionParams, RelativeTerms
from .corpus import Dataset
from .errors import (
    BadMagic,
    ConfigError,
    EmptySplit,
    IoError,
    NonFiniteLoss,
    NonFiniteWeights,
    ShapeMismatch,
    UnknownPreset,
    NumericOverflow,
)
# pearson itself stays bound here for perfbench's tracer test
from .evaluation import FoldOutcome, pearson, pearson_if_defined  # noqa: F401
from .text import LAYOUTS, TokenSequence, Vocabulary, build_vocab, encode

LN_EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715
MAGIC = b"SSLB1"
# rows per tile in eval scoring. Each block allocates temporaries
# that grow with the rows, so the tile bounds the working set: 512
# full-length small rows peaked at 2.7 MB traced at 16 rows, 3.9 at 24
# and 7.5 at 48, before the groups below. Interleaved sweeps of predict
# on 512 benchmark rows (one BLAS thread, 2 shared vCPUs, CPU-time
# medians of 12 rounds) scored 16 and 24 rows about equally fast, 48
# and 64 rows 18-27% slower, and 8 rows 8-14% slower than 16, from
# per-call overhead.
# Bulk scoring passes _SCORE_GROUP tiles per forward_batch call, run
# layer-major so a layer's weights stay in cache across the group;
# every tile's states live until the top block, so the group bounds
# the working set too. predict may score two groups at once, on two
# threads (_score_on_two_threads), so the bound is on two groups: the
# same 512 rows peak at 1.36 MB traced in 1-tile groups on one thread,
# 1.49 in 2-tile, 1.76 in 4-tile and 2.31 in 8-tile groups, and at
# 2.43, 2.69, 3.23 and 4.32 MB on two threads, where the working-set
# test allows 3.15
_SCORE_TILE = 16
_SCORE_GROUP = 2
# rows per chunk of the eval GELU, which runs in place
_GELU_ROWS = 64


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for one encoder instance.

    ``vocab_size`` caps the vocabulary; a trained token table has one
    row per vocabulary entry, and its checkpoint records that count.
    ``batch_size`` is the training minibatch size only: bulk scoring
    runs in fixed tiles of ``_SCORE_TILE`` rows whatever it is.
    """

    layers: int
    ffn_dim: int
    vocab_size: int
    max_len: int
    attention: AttentionConfig
    dropout_rate: float = 0.1
    seed: int = 1234
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 5
    batch_size: int = 16
    input_layout: str = "anchor_target_context"

    def __post_init__(self) -> None:
        for name in ("layers", "ffn_dim", "vocab_size", "max_len", "epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.vocab_size < 5:
            raise ConfigError(f"vocab_size must cover the 4 special ids, got {self.vocab_size}")
        if self.input_layout not in LAYOUTS:
            raise ConfigError(
                f"unknown input_layout {self.input_layout!r}, expected one of {sorted(LAYOUTS)}"
            )

    @property
    def d_model(self) -> int:
        return self.attention.d_model

    @property
    def n_heads(self) -> int:
        return self.attention.n_heads


@dataclass
class LayerParams:
    attn: AttentionParams
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class ModelParams:
    """All trainable arrays; layers alias one shared ``rel_embed``.

    Every array is a view into the one float64 buffer ``flat``, laid
    out by ``_params_over``: gradients and Adam's moments share the
    layout, so whole-model steps run on the buffers.

    ``relative`` holds each layer's relative terms (``_prepared``),
    built once for weights that no longer move: a loaded checkpoint,
    whose arrays are read-only, or one ``predict`` or validation pass.
    When None, every forward builds its own from the arrays.
    """

    token_embed: np.ndarray
    abs_pos_embed: np.ndarray
    rel_embed: np.ndarray
    layers: list[LayerParams]
    head_w: np.ndarray
    head_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    flat: np.ndarray = field(repr=False)
    views: dict[str, np.ndarray] = field(repr=False)
    relative: Optional[tuple[RelativeTerms, ...]] = None

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every parameter array exactly once, in layout order.

        The shared relative table appears only under its own name, not
        again inside each layer.
        """
        return iter(self.views.items())

    def __reduce__(self):
        """Pickle as the one buffer and its layout, so the arrays of the
        copy view its ``flat`` as here (pickling each view would copy
        every array a second time, and detach it from ``flat``). The
        relative terms are left behind; the copy builds its own."""
        shapes = {name: arr.shape for name, arr in self.views.items()}
        return _lay_out, (shapes, len(self.layers), self.flat)


@dataclass
class TrainTrace:
    """Loss bookkeeping for one training run."""

    step_losses: list[float]
    val_losses: list[float]
    val_pearsons: list[Optional[float]]
    steps_per_epoch: int
    # held-out scores of the final parameters, in validation-index order
    val_predictions: np.ndarray

    def epoch_train_losses(self) -> list[float]:
        """Mean training loss of each epoch, in epoch order."""
        spe = self.steps_per_epoch
        return [
            math.fsum(self.step_losses[start : start + spe]) / spe
            for start in range(0, len(self.step_losses), spe)
        ]


_ATTN_WEIGHTS = ("wq_c", "wk_c", "wv", "wq_r", "wk_r", "wo")
_LAYER_ARRAYS = tuple(f.name for f in fields(LayerParams) if f.name != "attn")


def _param_shapes(cfg: ModelConfig, rows: Optional[int] = None) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter array, in layout order.

    ``rows`` is the token table's row count, ``cfg.vocab_size`` when None.
    """
    d = cfg.d_model
    shapes: dict[str, tuple[int, ...]] = {
        "token_embed": (cfg.vocab_size if rows is None else rows, d),
        "abs_pos_embed": (cfg.max_len, d),
        "rel_embed": (cfg.attention.n_buckets, d),
    }
    for i in range(cfg.layers):
        p = f"layers.{i}."
        for w in _ATTN_WEIGHTS:
            shapes[p + "attn." + w] = (d, d)
        shapes[p + "ln1_g"] = (d,)
        shapes[p + "ln1_b"] = (d,)
        shapes[p + "w1"] = (d, cfg.ffn_dim)
        shapes[p + "b1"] = (cfg.ffn_dim,)
        shapes[p + "w2"] = (cfg.ffn_dim, d)
        shapes[p + "b2"] = (d,)
        shapes[p + "ln2_g"] = (d,)
        shapes[p + "ln2_b"] = (d,)
    shapes["head_w"] = (d, d)
    shapes["head_b"] = (d,)
    shapes["out_w"] = (d,)
    shapes["out_b"] = (1,)
    return shapes


def _param_count(cfg: ModelConfig) -> int:
    """Total size of the ``_param_shapes`` arrays, without building them."""
    d, ffn = cfg.d_model, cfg.ffn_dim
    per_layer = 6 * d * d + 2 * d * ffn + ffn + 5 * d
    embeddings = (cfg.vocab_size + cfg.max_len + cfg.attention.n_buckets) * d
    return embeddings + cfg.layers * per_layer + d * d + 2 * d + 1


def _params_over(
    cfg: ModelConfig, flat: Optional[np.ndarray] = None, rows: Optional[int] = None
) -> ModelParams:
    """The parameter layout: ``ModelParams`` whose arrays view
    consecutive segments of ``flat``, in ``_param_shapes`` order.

    ``flat`` must hold exactly the arrays' total size; when None a
    zeroed buffer of that size is made. ``rows`` is as in
    ``_param_shapes``.
    """
    return _lay_out(_param_shapes(cfg, rows), cfg.layers, flat)


def _lay_out(
    shapes: dict[str, tuple[int, ...]], depth: int, flat: Optional[np.ndarray] = None
) -> ModelParams:
    """``_params_over`` given the ``_param_shapes`` of a ``depth``-layer model."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    if flat is None:
        flat = np.zeros(sum(sizes))
    starts = dict(zip(shapes, itertools.accumulate(sizes, initial=0)))
    views = {
        name: flat[start : start + size].reshape(shape)
        for (name, start), size, shape in zip(starts.items(), sizes, shapes.values())
    }
    layers = []
    for i in range(depth):
        attn = AttentionParams(
            rel_embed=views["rel_embed"],
            **{w: views[f"layers.{i}.attn.{w}"] for w in _ATTN_WEIGHTS},
        )
        # wq_c, wk_c and wv come first in _ATTN_WEIGHTS, so they lie back
        # to back and one view spans them
        start = starts[f"layers.{i}.attn.wq_c"]
        attn.qkv = flat[start : start + 3 * attn.wq_c.size].reshape(3, *attn.wq_c.shape)
        layers.append(
            LayerParams(attn=attn, **{name: views[f"layers.{i}.{name}"] for name in _LAYER_ARRAYS})
        )
    top = {name: view for name, view in views.items() if not name.startswith("layers.")}
    return ModelParams(layers=layers, flat=flat, views=views, **top)


def init_params(cfg: ModelConfig, rows: Optional[int] = None) -> ModelParams:
    """Seeded initialization.

    Weights draw from N(0, 0.02^2) truncated by clipping at two
    standard deviations; layer-norm gains start at 1 and every bias at
    0. The draw order follows declaration order, so a given seed
    always produces bit-identical parameters.

    ``rows`` keeps only the first rows of the token table (training
    passes the vocabulary size, since no id reaches past it). The full
    ``vocab_size`` table is still drawn, so the random stream, the kept
    rows and every other array are the same as without the cut.
    """
    if rows is not None and not 1 <= rows <= cfg.vocab_size:
        raise ConfigError(f"token table rows must be in [1, {cfg.vocab_size}], got {rows}")
    rng = np.random.default_rng(cfg.seed)
    params = _params_over(cfg, rows=rows)
    for (name, arr), drawn in zip(params.named_arrays(), _param_shapes(cfg).values()):
        leaf = name.rsplit(".", 1)[-1]
        if leaf.endswith("_g"):
            arr.fill(1.0)
        elif not (leaf.endswith("_b") or leaf in ("b1", "b2")):
            draw = rng.normal(0.0, 0.02, drawn)
            np.clip(draw[: len(arr)], -0.04, 0.04, out=arr)
    return params


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(GELU_C * (x + GELU_CUBIC * x^3)), GELU's tanh part, in a new
    array."""
    u = x * x
    u *= GELU_CUBIC
    u += 1.0
    u *= x  # x + GELU_CUBIC * x^3
    u *= GELU_C
    return np.tanh(u, out=u)


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), tanh part); the tanh is cached for the backward pass."""
    t = _gelu_tanh(x)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, t


def _gelu_in_place(x: np.ndarray) -> np.ndarray:
    """``x`` overwritten with gelu(x), with ``_gelu_parts``' bits, and
    returned. The work runs in ``_GELU_ROWS``-row chunks, so the one
    temporary stays small however many rows ``x`` has."""
    for start in range(0, len(x), _GELU_ROWS):
        chunk = x[start : start + _GELU_ROWS]
        u = _gelu_tanh(chunk)
        u += 1.0
        chunk *= u  # x * (t + 1) has the bits of (t + 1) * x
        chunk *= 0.5
    return x


def _gelu_grad_from(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = x * x
    du *= 3.0 * GELU_CUBIC
    du += 1.0
    du *= GELU_C
    out = 1.0 - t * t
    out *= du
    out *= x
    out += 1.0 + t
    out *= 0.5
    return out


def _layer_norm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray, keep_cache: bool = True):
    """(y, (xn, inv, g)), the cache for ``_layer_norm_backward``; without
    ``keep_cache`` the gain and bias go onto ``xn`` in place and the cache
    is None."""
    # np.mean is add.reduce over the axis divided by its length; calling
    # that directly skips the Python wrapper, with the same bits
    width = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= width
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= width
    var += LN_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xn = np.multiply(xc, inv, out=xc)
    if not keep_cache:
        xn *= g
        xn += b
        return xn, None
    y = xn * g
    y += b
    return y, (xn, inv, g)


def _layer_norm_backward(dy: np.ndarray, cache, dg: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Input gradient; the gain and bias gradients are added into ``dg`` and ``db``."""
    xn, inv, g = cache
    dg += np.sum(dy * xn, axis=tuple(range(dy.ndim - 1)))
    db += np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxn = dy * g
    return inv * (
        dxn
        - np.mean(dxn, axis=-1, keepdims=True)
        - xn * np.mean(dxn * xn, axis=-1, keepdims=True)
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # logits from the bounded tanh head stay small; the clip only
    # shields exp from pathological hand-built parameters
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


@dataclass(frozen=True)
class _TokenLayout:
    """Where the packed rows of a batch sit in its (B, L) grid.

    The position-wise layers run on an (N, ...) array holding only the
    positions ``forward_batch`` keeps; attention runs on the grid.
    ``pos`` lists each packed row's flat grid index and is None when
    every slot is kept, so packing is a plain reshape.
    """

    n_batch: int
    length: int
    pos: Optional[np.ndarray]

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """(B, L, ...) -> (N, ...)."""
        flat = grid.reshape(self.n_batch * self.length, *grid.shape[2:])
        return flat if self.pos is None else flat[self.pos]

    def scatter(self, packed: np.ndarray) -> np.ndarray:
        """(N, ...) -> (B, L, ...), with zeros in the slots not kept."""
        shape = (self.n_batch, self.length, *packed.shape[1:])
        if self.pos is None:
            return packed.reshape(shape)
        grid = np.zeros((self.n_batch * self.length, *packed.shape[1:]))
        grid[self.pos] = packed
        return grid.reshape(shape)

    @property
    def columns(self) -> np.ndarray:
        """Grid column of each packed row."""
        flat = np.arange(self.n_batch * self.length) if self.pos is None else self.pos
        return flat % self.length

    @property
    def cls_rows(self) -> np.ndarray:
        """Packed row of each sequence's column 0."""
        starts = np.arange(self.n_batch) * self.length
        return starts if self.pos is None else np.searchsorted(self.pos, starts)


def _block_forward(
    x: np.ndarray,
    lay: LayerParams,
    terms: RelativeTerms,
    cfg: ModelConfig,
    layout: _TokenLayout,
    mask: np.ndarray,
    drop_rng: Optional[np.random.Generator],
    keep_cache: bool,
    head_only: bool = False,
):
    """One pre-norm block on packed (N, d) states; returns (states, cache or None).

    Attention reads the layer-norm output scattered into the (B, L)
    grid, every other step runs on the packed rows. ``drop_rng`` draws
    the block's two dropout masks and is None when dropout is off. The
    masks are drawn at full ``max_len`` and then cut to the batch width
    and packed, so the random stream does not depend on the layout.
    Everything not returned is freed on return; without a cache each
    temporary is dropped as soon as it is dead and the GELU runs in
    place, since ``predict`` may run two groups of tiles at once.

    ``head_only`` (no cache) runs the top block for the head alone:
    keys and values come from every position, but the queries, the
    residual, the second norm and the FFN run on grid columns 0 to
    min(2, L) - 1 of each row only, and the (B, d) column-0 states are
    returned. Two columns, not one, keep every product at two rows or
    more, so column 0 keeps its bits (``forward_batched``'s ``queries``)
    where ``_head_only_keeps_bits`` holds.
    """
    n_batch, length = layout.n_batch, layout.length
    n1, ln1_cache = _layer_norm_forward(x, lay.ln1_g, lay.ln1_b, keep_cache)
    cols = min(2, length) if head_only else None
    prob_drop = None
    if drop_rng is not None:
        keep_scale = 1.0 / (1.0 - cfg.dropout_rate)
        shape = (n_batch, cfg.n_heads, cfg.max_len, cfg.max_len)
        keep = drop_rng.random(shape) >= cfg.dropout_rate
        prob_drop = keep[:, :, : cols or length, :length] * keep_scale
    attn_out, raw, attn_cache = attn_mod.forward_batched(
        layout.scatter(n1), lay.attn, cfg.attention, mask, prob_drop, keep_cache, terms, queries=cols
    )
    del n1, raw
    if head_only:
        # a column-1 slot that is padding reads zeros, as in the grid
        xb = attn_out.reshape(n_batch * cols, -1)
        xb += layout.scatter(x)[:, :cols].reshape(xb.shape)
    else:
        xb = layout.gather(attn_out)
        xb += x
    del attn_out
    n2, ln2_cache = _layer_norm_forward(xb, lay.ln2_g, lay.ln2_b, keep_cache)
    pre = n2 @ lay.w1
    pre += lay.b1
    if keep_cache:
        act, gelu_t = _gelu_parts(pre)
    else:
        del n2
        act, gelu_t = _gelu_in_place(pre), None
    ffn_drop = None
    used = act
    if drop_rng is not None:
        keep = drop_rng.random((n_batch, cfg.max_len, cfg.ffn_dim)) >= cfg.dropout_rate
        kept = keep[:, :cols].reshape(-1, cfg.ffn_dim) if head_only else layout.gather(keep[:, :length])
        ffn_drop = kept * keep_scale
        used = act * ffn_drop
    x = used @ lay.w2
    x += xb
    x += lay.b2
    if head_only:
        return x[::cols], None
    if not keep_cache:
        return x, None
    return x, {
        "ln1": ln1_cache,
        "attn": attn_cache,
        "ln2": ln2_cache,
        "n2": n2,
        "pre": pre,
        "gelu_t": gelu_t,
        "used": used,
        "ffn_drop": ffn_drop,
    }


def _real_width(mask: np.ndarray) -> int:
    """Columns up to and including the last one real in any row.

    One column at least, so a batch with no real token still reaches
    the softmax and raises AllMasked there.
    """
    real = np.flatnonzero(mask.any(axis=0))
    return int(real[-1]) + 1 if real.size else 1


def _packed_positions(mask: np.ndarray) -> Optional[np.ndarray]:
    """Flat grid indices of the positions the packed layout keeps.

    Real positions and column 0 of every row, which the head reads
    even where it is masked. None when that is every position.
    """
    keep = mask != 0
    keep[:, 0] = True
    return None if keep.all() else np.flatnonzero(keep)


def _prepared(params: ModelParams, cfg: ModelConfig) -> ModelParams:
    """``params`` carrying every layer's relative terms, gathered at
    ``cfg.max_len``; the arrays are shared, not copied.

    A width-L batch reads the top-left (L, L) corner of each p2p field,
    which is bit-equal to the field gathered at L.
    """
    terms = (attn_mod.relative_terms(lay.attn, cfg.attention, cfg.max_len) for lay in params.layers)
    return replace(params, relative=tuple(terms))


class _Tile:
    """Rows on their way up the encoder, with the states ``x`` they have
    reached and the caches of the blocks they passed.

    Made from (ids, mask) grids already checked: the trailing columns
    that are padding in every row are dropped, the kept positions
    packed (``_TokenLayout``) and their token embeddings gathered.
    """

    def __init__(self, ids: np.ndarray, mask: np.ndarray, params: ModelParams) -> None:
        width = _real_width(mask)
        # the key mask every block's attention reads, made once
        ids, self.keys = ids[:, :width], mask[:, :width] != 0
        self.layout = _TokenLayout(ids.shape[0], width, _packed_positions(self.keys))
        self.ids = self.layout.gather(ids)
        self.x = params.token_embed[self.ids]
        self.blocks: list = []


def _head_only_keeps_bits(cfg: ModelConfig) -> bool:
    """Whether a ``head_only`` top block gives the full block's bits.

    A row of a product with four columns or more has the same bits
    whatever the product's height from two rows up; with fewer columns
    it may not past three rows (tests/test_blas.py). So the widths the
    cut products have, the head width, the bucket count and the FFN
    width (``d_model`` is at least the head width), must reach four.
    The scores' product has the batch width as its columns; below four,
    the full block's product has at most three rows as well.
    """
    return min(cfg.attention.d_head, cfg.attention.n_buckets, cfg.ffn_dim) >= 4


def _encode(
    tiles: Sequence[_Tile],
    params: ModelParams,
    terms: Sequence[RelativeTerms],
    cfg: ModelConfig,
    drop_rng: Optional[np.random.Generator],
    keep_cache: bool,
) -> None:
    """Every tile through every block, layer-major: one layer's weights
    serve each tile before the next layer starts, so they stay in cache.

    Each tile's ``x`` ends as its (B, d) column-0 states, which the head
    reads. The top block is ``head_only`` without ``keep_cache``, where
    that keeps the bits; with ``keep_cache`` the block caches are kept.
    """
    # late injection: the absolute positions enter the final block only
    inject_at = cfg.layers - 1
    cut = not keep_cache and _head_only_keeps_bits(cfg)
    for li, lay in enumerate(params.layers):
        for tile in tiles:
            if li == inject_at:
                tile.x = tile.x + params.abs_pos_embed[tile.layout.columns]
            tile.x, block_cache = _block_forward(
                tile.x, lay, terms[li], cfg, tile.layout, tile.keys, drop_rng, keep_cache,
                head_only=cut and li == inject_at,
            )
            if keep_cache:
                tile.blocks.append(block_cache)
    if not cut:
        for tile in tiles:
            tile.x = tile.x[tile.layout.cls_rows]


def _head(cls: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(pooled, score) of the (B, d) column-0 states."""
    pooled = np.tanh(cls @ params.head_w + params.head_b)
    return pooled, _sigmoid(pooled @ params.out_w + params.out_b[0])


def forward_batch(
    ids: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    rng: Optional[np.random.Generator] = None,
    keep_cache: bool = False,
):
    """Forward pass over a batch; returns (scores, cache).

    ``ids`` and ``mask`` are (B, max_len), and every id must index a
    row of ``params.token_embed``. Dropout runs when ``rng`` is given
    and ``cfg.dropout_rate`` is positive: its masks are drawn from
    ``rng`` after the attention probabilities and after the FFN
    activation, exactly one draw pair per block and tile.

    The cache holds what ``loss_and_grads`` reads on the way back; it
    is built only when ``keep_cache`` is set and is None otherwise.
    The relative terms come from ``params.relative`` and are built for
    this call by ``_prepared`` when that is None.

    With ``keep_cache`` the batch is one tile. Without it the rows run
    in consecutive tiles of ``_SCORE_TILE``, each trimmed to its own
    width, layer-major: every tile passes a block before the next block
    starts (``_encode``). The top block then works for the head alone
    (``_block_forward``'s ``head_only``). Neither moves a score's bits:
    a row's bits do not depend on the other rows of a product that
    holds two rows or more (``_head_only_keeps_bits`` has the widths
    this needs). Every tile's states stay alive until the top block,
    so ``_batched_scores`` passes at most ``_SCORE_GROUP`` tiles per
    call.

    Every tile first drops the trailing columns that are padding in
    every row, then packs the real positions (and column 0 of each
    row) into one (N, d) array: the embedding gather, the position
    injection, both layer norms, the residuals and the FFN run on those
    N rows only, and each attention call gets them scattered into a
    zeroed (B, L, d) grid. That changes no score in exact arithmetic:
    masked keys get probability exp(-inf) = 0, so whatever a masked
    slot holds never reaches a real position; layer norm and the FFN
    act per position; relative buckets depend only on the offset, and
    the absolute table is indexed by each token's own column. The
    gradients lose only zero rows, which moves the summation order by
    a few ulps.
    """
    ids = np.asarray(ids)
    mask = np.asarray(mask)
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise ShapeMismatch(f"ids must be (B, {cfg.max_len}), got {ids.shape}")
    if mask.shape != ids.shape:
        raise ShapeMismatch(f"mask shape {mask.shape} != ids shape {ids.shape}")
    rows = params.token_embed.shape[0]
    if ids.size:
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= rows:
            bad = lo if lo < 0 else hi
            raise ShapeMismatch(f"token id {bad} outside the embedding table's rows [0, {rows})")

    terms = params.relative
    if terms is None:
        terms = _prepared(params, cfg).relative
    drop_rng = rng if cfg.dropout_rate > 0.0 else None
    if not keep_cache:
        starts = range(0, ids.shape[0], _SCORE_TILE)
        tiles = [_Tile(ids[s : s + _SCORE_TILE], mask[s : s + _SCORE_TILE], params) for s in starts]
        _encode(tiles, params, terms, cfg, drop_rng, keep_cache=False)
        score = np.empty(ids.shape[0])
        for s, tile in zip(starts, tiles):
            score[s : s + _SCORE_TILE] = _head(tile.x, params)[1]
        return score, None

    tile = _Tile(ids, mask, params)
    _encode([tile], params, terms, cfg, drop_rng, keep_cache=True)
    pooled, score = _head(tile.x, params)
    cache = {
        "ids": tile.ids,
        "layout": tile.layout,
        "inject_at": cfg.layers - 1,
        "blocks": tile.blocks,
        "cls": tile.x,
        "pooled": pooled,
        "score": score,
    }
    return score, cache


@contextlib.contextmanager
def _refusing_overflow(what: str) -> Iterator[None]:
    """Float64 overflow and invalid operations inside raise
    NumericOverflow naming ``what``, so finite but huge weights cannot
    return scores computed from infinities."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericOverflow(
            f"{what} left the float64 range ({exc}); the weights are too large"
        ) from exc


def _as_arrays(seqs: Sequence[TokenSequence], cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(ids, mask), each (len(seqs), max_len), of encoded sequences."""
    ids = np.empty((len(seqs), cfg.max_len), dtype=np.intp)
    mask = np.empty((len(seqs), cfg.max_len), dtype=np.float64)
    for row, seq in enumerate(seqs):
        ids[row] = seq.ids
        mask[row] = seq.attention_mask
    return ids, mask


def forward(tokens: TokenSequence, params: ModelParams, cfg: ModelConfig) -> float:
    """Deterministic single-sequence score in (0, 1), dropout off: a
    batch of one through ``_batched_scores``.

    Raises NumericOverflow when the forward leaves the float64 range.
    """
    if len(tokens.ids) != cfg.max_len:
        raise ShapeMismatch(f"sequence length {len(tokens.ids)} != max_len {cfg.max_len}")
    if len(tokens.attention_mask) != cfg.max_len:
        raise ShapeMismatch(
            f"attention mask length {len(tokens.attention_mask)} != max_len {cfg.max_len}"
        )
    ids, mask = _as_arrays([tokens], cfg)
    return float(_batched_scores(ids, mask, params, cfg)[0])


def loss_and_grads(
    ids: np.ndarray,
    mask: np.ndarray,
    gold: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    rng: Optional[np.random.Generator] = None,
    grads: Optional[ModelParams] = None,
):
    """MSE loss over a batch plus gradients for every parameter array.

    ``rng`` switches dropout on, as in ``forward_batch``.

    The gradients are a ``ModelParams`` of ``params``' layout: ``grads``
    zeroed in place when given (``train`` lays its buffer out once per
    run), else one over a new zeroed buffer. Every backward step adds
    into its views of it; the shared relative table gathers every
    layer's contribution, top layer first.
    """
    score, cache = forward_batch(ids, mask, params, cfg, rng=rng, keep_cache=True)
    gold = np.asarray(gold, dtype=np.float64)
    n_batch = score.shape[0]
    diff = score - gold
    loss = float(np.mean(diff * diff))

    if grads is None:
        grads = _params_over(cfg, rows=params.token_embed.shape[0])
    else:
        grads.flat.fill(0.0)

    dlogit = (2.0 / n_batch) * diff * score * (1.0 - score)
    pooled = cache["pooled"]
    grads.out_w += pooled.T @ dlogit
    grads.out_b += dlogit.sum()
    dpooled = dlogit[:, None] * params.out_w[None, :]
    dpooled_pre = dpooled * (1.0 - pooled * pooled)
    grads.head_w += cache["cls"].T @ dpooled_pre
    grads.head_b += dpooled_pre.sum(axis=0)
    dcls = dpooled_pre @ params.head_w.T

    layout = cache["layout"]
    dx = np.zeros((cache["ids"].size, cfg.d_model))
    dx[layout.cls_rows] = dcls

    for li in range(cfg.layers - 1, -1, -1):
        lay = params.layers[li]
        glay = grads.layers[li]
        blk = cache["blocks"][li]

        # feed-forward sub-block, on the packed rows
        d_used = dx @ lay.w2.T
        glay.w2 += blk["used"].T @ dx
        glay.b2 += dx.sum(axis=0)
        d_act = d_used if blk["ffn_drop"] is None else d_used * blk["ffn_drop"]
        d_pre = d_act * _gelu_grad_from(blk["pre"], blk["gelu_t"])
        glay.w1 += blk["n2"].T @ d_pre
        glay.b1 += d_pre.sum(axis=0)
        d_n2 = d_pre @ lay.w1.T
        dx = dx + _layer_norm_backward(d_n2, blk["ln2"], glay.ln2_g, glay.ln2_b)

        # attention sub-block, on the grid
        dh = attn_mod.backward_batched(layout.scatter(dx), blk["attn"], glay.attn)
        dx = dx + _layer_norm_backward(layout.gather(dh), blk["ln1"], glay.ln1_g, glay.ln1_b)

        if li == cache["inject_at"]:
            grads.abs_pos_embed[: layout.length] += layout.scatter(dx).sum(axis=0)

    np.add.at(grads.token_embed, cache["ids"], dx)
    return loss, grads, score


def clip_global_norm(grads: ModelParams, max_norm: float = 1.0) -> float:
    """Scale all gradients in place so their joint L2 norm <= max_norm.

    Returns the pre-clip norm. A NaN or infinite norm is returned with
    the gradients untouched, for the caller to refuse.
    """
    # fsum of per-array sums: summing the whole buffer at once
    # would round differently and move the clipped bits
    total = math.sqrt(math.fsum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
    if max_norm < total < math.inf:
        grads.flat *= max_norm / total
    return total


class AdamState:
    """Adam with bias correction; the moments share the parameters'
    flat layout, so a step runs over whole buffers."""

    def __init__(self, cfg: ModelConfig, params: ModelParams) -> None:
        self.lr = cfg.learning_rate
        self.b1 = cfg.adam_beta1
        self.b2 = cfg.adam_beta2
        self.eps = cfg.adam_eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._scratch = np.empty_like(params.flat)

    def update(self, params: ModelParams, grads: ModelParams) -> None:
        """Apply one step in place; the gradient buffer is consumed."""
        self.t += 1
        correct1 = 1.0 - self.b1**self.t
        correct2 = 1.0 - self.b2**self.t
        step = self.lr / correct1
        spread = 1.0 / math.sqrt(correct2)
        g, m, v, sq = grads.flat, self.m, self.v, self._scratch
        np.multiply(g, g, out=sq)
        sq *= 1.0 - self.b2
        v *= self.b2
        v += sq
        g *= 1.0 - self.b1
        m *= self.b1
        m += g
        np.sqrt(v, out=sq)
        sq *= spread
        sq += self.eps
        np.divide(m, sq, out=sq)
        sq *= step
        params.flat -= sq


def _encode_rows(
    d: Dataset, indices: Sequence[int], vocab: Vocabulary, cfg: ModelConfig
):
    """(ids, mask, gold) of the dataset rows, in the order of ``indices``."""
    recs = [d.records[i] for i in indices]
    ids, mask = _as_arrays(
        [encode(r.anchor, r.target, r.context, vocab, cfg.max_len, cfg.input_layout) for r in recs],
        cfg,
    )
    return ids, mask, np.array([r.score for r in recs], dtype=np.float64)


def _batched_scores(
    ids: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    helper: bool = False,
) -> np.ndarray:
    """Evaluation-mode scores of the encoded rows, in their order.

    The rows are sorted by real length (stably) and scored in
    consecutive tiles of ``_SCORE_TILE``, so each tile trims to little
    padding and its temporaries stay the same size however many rows
    there are. ``forward_batch`` takes ``_SCORE_GROUP`` tiles per call
    and runs them layer-major. Each score lands back at its row's
    position.

    With ``helper`` (``predict`` alone sets it) the groups are shared
    with one helper thread (``_score_on_two_threads``), on one BLAS
    thread, when there are two groups or more and
    ``evaluation._parallel_cpus()`` finds two CPUs or more. The bits
    are the same: only the thread that scores a group changes.

    This is the one eval-mode path: ``forward``, ``predict`` and the
    validation pass of ``train`` all score here, so all of them raise
    NumericOverflow when the forward leaves the float64 range.
    """
    out = np.empty(ids.shape[0], dtype=np.float64)
    group = _SCORE_GROUP * _SCORE_TILE
    with _refusing_overflow("scoring"):
        if params.relative is None:
            params = _prepared(params, cfg)
        order = np.argsort(mask.sum(axis=1), kind="stable")
        if helper and ids.shape[0] > group and eval_mod._parallel_cpus() > 1:
            with eval_mod._one_blas_thread():
                _score_on_two_threads(ids, mask, params, cfg, order, out)
            return out
        for start in range(0, ids.shape[0], group):
            rows = order[start : start + group]
            out[rows], _ = forward_batch(ids[rows], mask[rows], params, cfg)
    return out


def _score_on_two_threads(
    ids: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    order: np.ndarray,
    out: np.ndarray,
) -> None:
    """``_batched_scores``' groups, scored into ``out`` by this thread and
    one helper thread, each taking the next group from one cursor.

    Each thread traps overflow itself (NumPy's error state is per
    thread). The first exception either thread raises, a Ctrl-C here
    included, is raised here as it was, once the other thread has
    finished the group it is on; no thread outlives the call. At most
    two groups are in flight, so the working set is about twice one
    group's (the figures are at ``_SCORE_GROUP``).
    """
    group = _SCORE_GROUP * _SCORE_TILE
    starts = iter(range(0, ids.shape[0], group))
    cursor = threading.Lock()
    errors: list[BaseException] = []  # also the stop flag: no group is taken once it fills
    helper_done = threading.Event()

    def score_groups() -> None:
        try:
            with _refusing_overflow("scoring"):
                while True:
                    with cursor:
                        start = None if errors else next(starts, None)
                    if start is None:
                        return
                    rows = order[start : start + group]
                    out[rows], _ = forward_batch(ids[rows], mask[rows], params, cfg)
        except BaseException as exc:  # raised by the caller, after the join
            errors.append(exc)

    def helper_groups() -> None:
        try:
            score_groups()
        finally:
            helper_done.set()

    helper = threading.Thread(target=helper_groups, name="phraselab-scoring")
    try:
        helper.start()
        score_groups()
    except BaseException as exc:  # a Ctrl-C inside start() or between score_groups' handlers
        errors.append(exc)
    # A start() that a Ctrl-C cut short may have launched the thread
    # before marking it started, when is_alive() reads False and join()
    # refuses it: wait for its work to end whenever it has an ident, then
    # join it. One launched without an ident yet finds the error and
    # takes no group.
    launched = helper.ident is not None
    while launched:
        try:
            helper_done.wait()
            helper.join()
            break
        except BaseException as exc:  # a Ctrl-C while waiting stops the helper too
            errors.append(exc)
    if errors:
        raise errors[0]


def train(
    d: Dataset,
    split: tuple[Sequence[int], Sequence[int]],
    cfg: ModelConfig,
    vocab: Optional[Vocabulary] = None,
) -> tuple[ModelParams, TrainTrace]:
    """Fit on the train side of ``split``, tracking the validation side.

    The vocabulary defaults to one built from the training rows only,
    so nothing from the validation side leaks into the token table,
    and the table has one row per vocabulary entry. Raises
    NonFiniteLoss as soon as a step produces a NaN or infinite loss or
    gradient norm, and NumericOverflow when a validation pass leaves
    the float64 range.
    """
    train_idx = list(split[0])
    val_idx = list(split[1])
    if not train_idx or not val_idx:
        raise EmptySplit("both sides of the split must be non-empty")
    if set(train_idx) & set(val_idx):
        raise EmptySplit("train and validation indices overlap")

    if vocab is None:
        vocab = build_vocab(d.subset(train_idx), min_freq=1, max_size=cfg.vocab_size - 4)

    tr_ids, tr_mask, tr_gold = _encode_rows(d, train_idx, vocab, cfg)
    va_ids, va_mask, va_gold = _encode_rows(d, val_idx, vocab, cfg)

    params = init_params(cfg, rows=len(vocab))
    grads = _params_over(cfg, rows=len(vocab))
    opt = AdamState(cfg, params)
    rng = np.random.default_rng(cfg.seed)

    n_train = len(train_idx)
    steps_per_epoch = (n_train + cfg.batch_size - 1) // cfg.batch_size
    step_losses: list[float] = []
    val_losses: list[float] = []
    val_pearsons: list[Optional[float]] = []

    for _epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            pick = order[start : start + cfg.batch_size]
            loss, grads, _ = loss_and_grads(
                tr_ids[pick], tr_mask[pick], tr_gold[pick], params, cfg, rng=rng, grads=grads
            )
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"step {len(step_losses)}: loss is {loss!r}")
            norm = clip_global_norm(grads, 1.0)
            if not math.isfinite(norm):
                raise NonFiniteLoss(f"step {len(step_losses)}: gradient norm is {norm!r}")
            opt.update(params, grads)
            step_losses.append(loss)
        preds = _batched_scores(va_ids, va_mask, params, cfg)
        errs = (preds - va_gold) ** 2
        val_losses.append(math.fsum(errs.tolist()) / len(errs))
        val_pearsons.append(pearson_if_defined(va_gold, preds)[0])

    trace = TrainTrace(
        step_losses=step_losses,
        val_losses=val_losses,
        val_pearsons=val_pearsons,
        steps_per_epoch=steps_per_epoch,
        val_predictions=preds,
    )
    return params, trace


def predict(
    d: Dataset,
    indices: Sequence[int],
    params: ModelParams,
    cfg: ModelConfig,
    vocab: Vocabulary,
) -> np.ndarray:
    """Evaluation-mode scores for the given dataset rows, in the order
    of ``indices``.

    Raises NumericOverflow when the forward leaves the float64 range.
    """
    ids, mask, _ = _encode_rows(d, list(indices), vocab, cfg)
    return _batched_scores(ids, mask, params, cfg, helper=True)


def model_fold_trainer(
    d: Dataset, train_idx: Sequence[int], val_idx: Sequence[int], cfg: ModelConfig
) -> FoldOutcome:
    """Fold hook for cross-validation: train, then report the held-out
    scores that training's last validation pass already computed."""
    vocab = build_vocab(d.subset(list(train_idx)), min_freq=1, max_size=cfg.vocab_size - 4)
    params, trace = train(d, (list(train_idx), list(val_idx)), cfg, vocab=vocab)
    return FoldOutcome(
        predictions=trace.val_predictions.tolist(),
        train_loss=trace.epoch_train_losses()[-1],
        trace=trace,
        extras={"params": params, "vocab": vocab},
    )


_PRESETS = {
    # scaled-down trio keeping the originals' structural ratios:
    # base and small share width, small halves the depth; xsmall
    # halves the width at full depth
    "base": dict(layers=12, d_model=64, n_heads=4, ffn_dim=256),
    "small": dict(layers=6, d_model=64, n_heads=4, ffn_dim=256),
    "xsmall": dict(layers=12, d_model=32, n_heads=4, ffn_dim=128),
}


def presets(name: str) -> ModelConfig:
    """Named desk-scale configurations."""
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}, expected one of {sorted(_PRESETS)}")
    spec = _PRESETS[name]
    max_len = 16
    return ModelConfig(
        layers=spec["layers"],
        ffn_dim=spec["ffn_dim"],
        vocab_size=8192,
        max_len=max_len,
        attention=AttentionConfig(
            d_model=spec["d_model"],
            n_heads=spec["n_heads"],
            max_rel_distance=max_len // 2,
        ),
    )


def _config_from_dict(data: dict) -> ModelConfig:
    attn = dict(data["attention"])
    # older checkpoints name the one scale rule the attention has
    scale = attn.pop("scale_mode", "per_term")
    if scale != "per_term":
        raise ConfigError(f"scale_mode {scale!r} is not supported, only 'per_term'")
    attn = AttentionConfig(**attn)
    rest = {k: v for k, v in data.items() if k != "attention"}
    return ModelConfig(attention=attn, **rest)


def save_checkpoint(params: ModelParams, cfg: ModelConfig, path: str | Path) -> Path:
    """Binary checkpoint: magic, config JSON block, raw float64 arrays.

    The payload is ``params.flat`` written little-endian: the arrays
    in layout order with no per-array framing, their shapes fully
    determined by the config block, whose ``vocab_size`` is the token table's row count (the
    fold's vocabulary for a trained model).
    """
    path = Path(path)
    cfg = replace(cfg, vocab_size=params.token_embed.shape[0])
    blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)
            handle.write(params.flat.astype("<f8", copy=False))
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def load_checkpoint(path: str | Path) -> tuple[ModelParams, ModelConfig]:
    """Inverse of save_checkpoint; bit-exact round trip.

    The payload is read once into one float64 buffer that every array
    views. Its size is checked against the config block before any
    per-array work, so a config claiming a huge model costs nothing. A
    payload holding a NaN or infinity raises NonFiniteWeights, so a
    damaged checkpoint cannot serve ``nan`` scores.

    The buffer is read-only, so an in-place edit raises instead of
    leaving stale the relative terms built here once per layer. Terms
    that overflow float64 raise NumericOverflow.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            head = handle.read(len(MAGIC) + 4)
            if len(head) < len(MAGIC) + 4 or head[: len(MAGIC)] != MAGIC:
                raise BadMagic(f"{path}: not a checkpoint (bad magic bytes)")
            (blob_len,) = struct.unpack_from("<I", head, len(MAGIC))
            blob = handle.read(blob_len)
            if len(blob) < blob_len:
                raise ShapeMismatch(f"{path}: truncated config block")
            try:
                cfg = _config_from_dict(json.loads(blob.decode("utf-8")))
            except (ValueError, KeyError, TypeError, ConfigError) as exc:
                raise ShapeMismatch(f"{path}: unreadable config block: {exc}") from exc

            need = _param_count(cfg) * 8
            extra = size - handle.tell() - need
            if extra < 0:
                raise ShapeMismatch(f"{path}: truncated payload, {-extra} of {need} bytes missing")
            if extra:
                raise ShapeMismatch(f"{path}: {extra} trailing bytes")
            payload = np.empty(need // 8, dtype="<f8")
            if handle.readinto(payload) != payload.nbytes:
                raise ShapeMismatch(f"{path}: truncated while reading")
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc

    payload = payload.astype(np.float64, copy=False)
    payload.flags.writeable = False
    params = _params_over(cfg, payload)
    if not np.isfinite(payload).all():
        name = next(n for n, arr in params.named_arrays() if not np.isfinite(arr).all())
        raise NonFiniteWeights(f"{path}: array {name!r} holds a NaN or infinite value")
    with _refusing_overflow(f"{path}: the relative-position terms"):
        params = _prepared(params, cfg)
    return params, cfg
