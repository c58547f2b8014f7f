"""Multi-head attention with disentangled content/position scoring.

Each token is represented by two vectors: its content embedding and a
shared relative-position embedding looked up by clamped signed offset.
The raw attention score between query position m and key position n is
the sum of up to four bilinear terms:

    content-to-content   Qc[m] . Kc[n]
    content-to-position  Qc[m] . Kr[bucket(m, n)]
    position-to-content  Qr[bucket(n, m)] . Kc[n]
    position-to-position Qr[bucket(m, n)] . Kr[bucket(n, m)]  (optional)

where Qc/Kc project the hidden states, Qr/Kr project a single shared
relative-embedding table, and bucket() clamps the signed offset into
2k buckets. The sum is scaled by 1/sqrt(T * d_head) with T the number
of terms that can be structurally non-zero, so a configuration whose
position parameters are all zero reduces exactly to standard scaled
dot-product attention.

Forward and backward passes are written out by hand over float64
arrays; the backward pass is validated against finite differences in
the test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllMasked, ConfigError, ShapeMismatch


@dataclass(frozen=True)
class AttentionConfig:
    """Shape and behavior switches for one attention module.

    ``max_rel_distance`` is the clamp distance k: offsets at or beyond
    k (either direction) share the two boundary buckets, giving a
    relative-embedding table of 2k rows.
    """

    d_model: int
    n_heads: int
    max_rel_distance: int
    include_p2p: bool = True

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "max_rel_distance"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.d_model < 1 or self.n_heads < 1:
            raise ConfigError(f"d_model and n_heads must be positive, got {self.d_model}, {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_rel_distance < 1:
            raise ConfigError(f"max_rel_distance must be >= 1, got {self.max_rel_distance}")
        if not isinstance(self.include_p2p, bool):
            raise ConfigError(f"include_p2p must be true or false, got {self.include_p2p!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_buckets(self) -> int:
        return 2 * self.max_rel_distance


@dataclass
class AttentionParams:
    """Projection weights for one attention module.

    ``rel_embed`` (2k x d_model) is the shared relative-position table;
    in a multi-layer model every layer aliases the same array.

    ``qkv`` is not a field: a model whose ``wq_c``, ``wk_c`` and ``wv``
    lie back to back in one buffer sets it to the (3, d_model, d_model)
    view of that stretch, whose slices are those three arrays, so one
    product projects all three. While it is None each forward stacks
    them afresh. Copies and pickles leave it behind, since their arrays
    no longer share one buffer.
    """

    wq_c: np.ndarray
    wk_c: np.ndarray
    wv: np.ndarray
    wq_r: np.ndarray
    wk_r: np.ndarray
    rel_embed: np.ndarray
    wo: np.ndarray

    qkv = None

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "qkv"}


@dataclass(frozen=True)
class RelativeTerms:
    """The part of one module's scores that only the weights decide.

    ``rel`` (2, 1, H, dh, 2k) stacks ``kr`` and ``qr`` transposed, the
    right operands of the query and key contents' bucket-field products;
    ``qr`` and ``kr`` (H, 2k, dh), the relative table projected
    by ``wq_r`` and ``wk_r`` and split into heads, are views of it.
    ``p2p`` (H, L, L) is the position-to-position term gathered per
    (query, key) pair up to some length L, and None without that term.
    ``denom`` is the score scale. Weights that stay fixed (a loaded
    checkpoint) get them built once by ``relative_terms``; training
    builds them once per step. The arrays are made read-only.
    """

    rel: np.ndarray
    p2p: Optional[np.ndarray]
    denom: float

    def __post_init__(self) -> None:
        for arr in (self.rel, self.p2p):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def kr(self) -> np.ndarray:
        return self.rel[0, 0].swapaxes(-1, -2)

    @property
    def qr(self) -> np.ndarray:
        return self.rel[1, 0].swapaxes(-1, -2)


@dataclass
class AttentionCache:
    """Everything the backward pass needs from one forward pass."""

    h: np.ndarray
    qc: np.ndarray
    kc: np.ndarray
    v: np.ndarray
    terms: RelativeTerms
    probs: np.ndarray
    used: np.ndarray
    drop: Optional[np.ndarray]
    merged: np.ndarray
    params: AttentionParams
    cfg: AttentionConfig


def relative_bucket(i: int, j: int, k: int) -> int:
    """Bucket index of query position i relative to key position j.

    The signed offset i - j is clamped to [-k, k-1] and shifted by k,
    so bucket 0 collects offsets <= -k and bucket 2k-1 collects
    offsets >= k. Depends only on the offset, never on absolute
    position.
    """
    delta = i - j
    if delta <= -k:
        return 0
    if delta >= k:
        return 2 * k - 1
    return delta + k


def bucket_matrix(length: int, k: int) -> np.ndarray:
    """(L, L) matrix with entry [m, n] = relative_bucket(m, n, k)."""
    pos = np.arange(length)
    delta = pos[:, None] - pos[None, :]
    return (np.clip(delta, -k, k - 1) + k).astype(np.intp)


# gather/scatter tables per (length, k); small and reused every step
_TABLES: dict = {}


def _bucket_tables(length: int, k: int):
    """Cached index machinery for one (sequence length, clamp) pair.

    With b1[m, n] the bucket of query m relative to key n and b2 its
    transpose (key relative to query), returns
    (q_take, k_take, onehot, pair_flat):
      q_take        (L, L) flat index m*2k + b1[m, n] into a
                    query-indexed (L, 2k) bucket field
      k_take        (L, L) flat index n*2k + b2[m, n] into a
                    key-indexed (L, 2k) bucket field
      onehot        (L, L, 2k) float one-hot of b1, used as a scatter
                    matrix: contracting an (L, L) field against it sums
                    entries into their bucket
      pair_flat     (L*L,) flattened b1*2k+b2 joint bucket index
    """
    key = (length, k)
    hit = _TABLES.get(key)
    if hit is not None:
        return hit
    b1 = bucket_matrix(length, k)
    b2 = b1.T.copy()
    n_buckets = 2 * k
    pos = np.arange(length)
    onehot = np.zeros((length, length, n_buckets))
    onehot[pos[:, None], pos[None, :], b1] = 1.0
    tables = (
        pos[:, None] * n_buckets + b1,
        pos[None, :] * n_buckets + b2,
        onehot,
        (b1 * n_buckets + b2).ravel(),
    )
    _TABLES[key] = tables
    return tables


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Row softmax over keys, with masked keys pinned to probability 0.

    ``key_mask`` broadcasts against the key axis (last axis); every row
    must keep at least one unmasked key. Rows are shifted by their max
    before exponentiation, so the result is invariant (to rounding)
    under adding a constant to a row.
    """
    keep = np.asarray(key_mask, dtype=bool)
    # the method forms run the same reductions as np.all/np.max/np.sum
    # without their Python wrappers, which cost as much as the work at
    # batch 1
    if not keep.any(axis=-1).all():
        raise AllMasked("attention mask hides every key position")
    return _softmax(scores, keep)


def _softmax(scores: np.ndarray, keep: Optional[np.ndarray]) -> np.ndarray:
    """``masked_softmax`` of a mask already checked: ``keep`` is bool,
    or None when no key is masked. ``scores`` is left as it is."""
    if keep is None:
        weights = scores - scores.max(axis=-1, keepdims=True)
    else:
        weights = np.where(keep[..., None, :], scores, -np.inf)
        weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def active_term_count(params: AttentionParams, cfg: AttentionConfig) -> int:
    """Number of score terms that are not structurally zero.

    The content term always counts. A position term counts only when
    every factor on its path is a non-zero array, because a zero
    projection or a zero embedding table forces the whole term to
    vanish identically.
    """
    table = bool(params.rel_embed.any())
    query_side = table and bool(params.wq_r.any())
    key_side = table and bool(params.wk_r.any())
    count = 1
    if key_side:
        count += 1
    if query_side:
        count += 1
    if cfg.include_p2p and query_side and key_side:
        count += 1
    return count


def scale_denominator(params: AttentionParams, cfg: AttentionConfig) -> float:
    return math.sqrt(active_term_count(params, cfg) * cfg.d_head)


def relative_terms(params: AttentionParams, cfg: AttentionConfig, length: int) -> RelativeTerms:
    """The weight-only score terms, with the p2p field gathered at ``length``.

    Buckets depend only on the offset, so the top-left (L, L) corner of
    the field gathered at ``length`` equals, bit for bit, the field
    gathered at any L <= ``length``.
    """
    n_heads = cfg.n_heads
    qr = _split_heads(params.rel_embed @ params.wq_r, n_heads)  # (H, 2k, dh)
    kr = _split_heads(params.rel_embed @ params.wk_r, n_heads)
    p2p = None
    if cfg.include_p2p:
        pair_flat = _bucket_tables(length, cfg.max_rel_distance)[3]
        pp = qr @ kr.swapaxes(-1, -2)  # (H, 2k, 2k)
        p2p = pp.reshape(n_heads, -1)[:, pair_flat].reshape(n_heads, length, length)
    rel = np.stack((kr.swapaxes(-1, -2), qr.swapaxes(-1, -2)))[:, None]
    return RelativeTerms(rel=rel, p2p=p2p, denom=scale_denominator(params, cfg))


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., L, d) -> (..., H, L, d/H); heads are contiguous slices."""
    *lead, length, d = x.shape
    return x.reshape(*lead, length, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, L, dh) -> (..., L, H*dh); inverse of _split_heads."""
    *lead, n_heads, length, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, length, n_heads * dh)


def _validate_batched(h: np.ndarray, params: AttentionParams, cfg: AttentionConfig, mask: np.ndarray):
    if h.ndim != 3 or h.shape[2] != cfg.d_model:
        raise ShapeMismatch(f"hidden states must be (B, L, {cfg.d_model}), got {h.shape}")
    if mask.shape != h.shape[:2]:
        raise ShapeMismatch(f"mask shape {mask.shape} does not match sequence shape {h.shape[:2]}")
    if params.rel_embed.shape != (cfg.n_buckets, cfg.d_model):
        raise ShapeMismatch(
            f"relative table must be ({cfg.n_buckets}, {cfg.d_model}), got {params.rel_embed.shape}"
        )


def forward_batched(
    h: np.ndarray,
    params: AttentionParams,
    cfg: AttentionConfig,
    mask: np.ndarray,
    prob_dropout: Optional[np.ndarray] = None,
    keep_cache: bool = False,
    terms: Optional[RelativeTerms] = None,
    queries: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[AttentionCache]]:
    """Batched forward pass.

    ``h`` is (B, L, d_model), ``mask`` is (B, L) with 1 marking real
    tokens. ``prob_dropout``, when given, is an already-scaled keep
    mask applied to the attention probabilities (training only).
    ``terms`` are ``params``' relative terms, gathered at L or longer;
    when None they are built here from ``params``.
    Returns (output, raw scaled scores, cache). The cache holds what
    ``backward_batched`` reads; it is built only when ``keep_cache`` is
    set and is None otherwise, so an inference caller frees the
    projections and probabilities as soon as the call returns. Without
    a cache ``h`` is dropped once the Q/K/V product is made, which
    frees it when the caller passed the call its only reference.

    ``queries``, when given, keeps only the first ``queries`` query
    positions, 1 to L, with no cache: keys and values still come from
    every position, and the output, the scores and ``prob_dropout``
    are (B, queries, ...) and (B, H, queries, L). Each kept row has the
    bits of the full call's row when ``queries`` is at least 2 and the
    head width and bucket count at least 4: then every product keeps
    two rows or more (a one-row product takes BLAS's vector path, whose
    bits differ) and, past three rows, four columns or more
    (tests/test_blas.py).
    """
    h = np.asarray(h, dtype=np.float64)
    keep = np.asarray(mask, dtype=bool)
    _validate_batched(h, params, cfg, keep)
    n_batch, length = h.shape[:2]
    n_heads = cfg.n_heads
    if queries is not None and (keep_cache or not 1 <= queries <= length):
        raise ShapeMismatch(f"queries must be in [1, {length}] with no cache, got {queries}")
    if terms is None:
        terms = relative_terms(params, cfg, length)
    elif cfg.include_p2p and (terms.p2p is None or terms.p2p.shape[-1] < length):
        raise ShapeMismatch(f"prepared relative terms do not cover sequence length {length}")
    # count_nonzero is a plain C call, where all() sets up a reduction
    if np.count_nonzero(keep) == keep.size and length:
        keep = None  # no key masked: the softmax needs no mask
    elif not keep.any(axis=-1).all():
        raise AllMasked("attention mask hides every key position")

    # one product for the three projections, still one (L, d) block per
    # row and weight: the blocks keep the shape, so the bits, of
    # separate products (a one-row block takes NumPy's vector path)
    w3 = params.qkv if params.qkv is not None else np.stack((params.wq_c, params.wk_c, params.wv))
    q_take, k_take, _, _ = _bucket_tables(length, cfg.max_rel_distance)
    if queries is None:
        queries = length
        proj = (h @ w3[:, None]).reshape(3, n_batch, length, n_heads, -1).swapaxes(-2, -3)
        qc, kc, v = proj[0], proj[1], proj[2]  # each (B, H, L, dh)
    else:
        proj = (h @ w3[1:, None]).reshape(2, n_batch, length, n_heads, -1).swapaxes(-2, -3)
        kc, v = proj[0], proj[1]
        qc = _split_heads(h[:, :queries] @ w3[0], n_heads)
        q_take, k_take = q_take[:queries], k_take[:queries]
    if not keep_cache:
        del h

    # each bilinear term is computed in bucket space and then gathered
    # per (query, key) pair: the first field query indexed, the second
    # key indexed
    raw = qc @ kc.swapaxes(-1, -2)
    # one field at a time, each freed before the next is made: eval
    # scoring may run two tiles at once, so its temporaries die
    # early
    raw += (qc @ terms.rel[0]).reshape(n_batch, n_heads, -1).take(q_take, axis=-1)
    raw += (kc @ terms.rel[1]).reshape(n_batch, n_heads, -1).take(k_take, axis=-1)
    if cfg.include_p2p:
        raw += terms.p2p[:, :queries, :length]

    raw /= terms.denom

    probs = _softmax(raw, None if keep is None else keep[:, None, :])
    used = probs if prob_dropout is None else probs * prob_dropout
    ctx = used @ v
    if not keep_cache:
        del proj, qc, kc, v, probs, used
        return _merge_heads(ctx) @ params.wo, raw, None

    merged = _merge_heads(ctx)
    out = merged @ params.wo
    cache = AttentionCache(
        h=h, qc=qc, kc=kc, v=v, terms=terms, probs=probs, used=used, drop=prob_dropout,
        merged=merged, params=params, cfg=cfg,
    )
    return out, raw, cache


def backward_batched(d_out: np.ndarray, cache: AttentionCache, grads: AttentionParams) -> np.ndarray:
    """Gradients of a scalar loss through one batched forward pass.

    ``d_out`` must match the forward output shape; a mismatch raises
    before anything is written. Each parameter's gradient is added into
    the same-named array of ``grads``, and the input hidden states'
    gradient is returned. The scale denominator is treated as a
    constant (it is piecewise constant in the parameters and
    differentiable nowhere it changes).
    """
    d_out = np.asarray(d_out, dtype=np.float64)
    expected = (cache.h.shape[0], cache.h.shape[1], cache.cfg.d_model)
    if d_out.shape != expected:
        raise ShapeMismatch(f"upstream gradient shape {d_out.shape}, expected {expected}")

    params, cfg = cache.params, cache.cfg
    n_heads = cfg.n_heads
    n_batch, length = cache.h.shape[:2]
    n_buckets = cfg.n_buckets
    _, _, onehot, pair_flat = _bucket_tables(length, cfg.max_rel_distance)

    d_model = cfg.d_model
    grads.wo += cache.merged.reshape(-1, d_model).T @ d_out.reshape(-1, d_model)
    d_merged = d_out @ params.wo.T
    d_ctx = _split_heads(d_merged, n_heads)  # (B, H, L, dh)

    d_used = d_ctx @ cache.v.swapaxes(-1, -2)
    dv = cache.used.swapaxes(-1, -2) @ d_ctx
    d_probs = d_used if cache.drop is None else d_used * cache.drop

    # softmax backward; masked keys have prob 0, so their rows drop out
    inner = np.sum(d_probs * cache.probs, axis=-1, keepdims=True)
    d_raw = cache.probs * (d_probs - inner)
    d_raw /= cache.terms.denom

    qc, kc, qr, kr = cache.qc, cache.kc, cache.terms.qr, cache.terms.kr
    dqc = d_raw @ kc
    dkc = d_raw.swapaxes(-1, -2) @ qc

    # collapse the key axis (resp. query axis) of d_raw into buckets,
    # then every position-term gradient is a plain batched matmul
    flat = n_batch * n_heads
    by_query = d_raw.transpose(2, 0, 1, 3).reshape(length, flat, length)
    dq_buckets = (by_query @ onehot).reshape(length, n_batch, n_heads, n_buckets)
    dq_buckets = dq_buckets.transpose(1, 2, 0, 3)  # (B, H, L, 2k)
    by_key = d_raw.transpose(3, 0, 1, 2).reshape(length, flat, length)
    dk_buckets = (by_key @ onehot).reshape(length, n_batch, n_heads, n_buckets)
    dk_buckets = dk_buckets.transpose(1, 2, 0, 3)

    dqc += dq_buckets @ kr[None]
    dkc += dk_buckets @ qr[None]

    def _into_buckets(bucketed: np.ndarray, states: np.ndarray) -> np.ndarray:
        lhs = bucketed.transpose(1, 3, 0, 2).reshape(n_heads, n_buckets, -1)
        rhs = states.transpose(1, 0, 2, 3).reshape(n_heads, -1, cfg.d_head)
        return lhs @ rhs

    dkr = _into_buckets(dq_buckets, qc)
    dqr = _into_buckets(dk_buckets, kc)
    if cfg.include_p2p:
        # joint buckets offset per head, so one bincount sums every head
        n_pairs = n_buckets * n_buckets
        head_pair = np.arange(n_heads)[:, None] * n_pairs + pair_flat
        dpp = np.bincount(
            head_pair.ravel(), weights=d_raw.sum(axis=0).ravel(), minlength=n_heads * n_pairs
        ).reshape(n_heads, n_buckets, n_buckets)
        dqr += dpp @ kr
        dkr += dpp.swapaxes(-1, -2) @ qr

    dqc_full = _merge_heads(dqc)
    dkc_full = _merge_heads(dkc)
    dv_full = _merge_heads(dv)
    dqr_full = _merge_heads(dqr)  # (2k, d_model)
    dkr_full = _merge_heads(dkr)

    h2 = cache.h.reshape(-1, d_model)
    grads.wq_c += h2.T @ dqc_full.reshape(-1, d_model)
    grads.wk_c += h2.T @ dkc_full.reshape(-1, d_model)
    grads.wv += h2.T @ dv_full.reshape(-1, d_model)
    grads.wq_r += params.rel_embed.T @ dqr_full
    grads.wk_r += params.rel_embed.T @ dkr_full
    grads.rel_embed += dqr_full @ params.wq_r.T + dkr_full @ params.wk_r.T
    return dqc_full @ params.wq_c.T + dkc_full @ params.wk_c.T + dv_full @ params.wv.T
