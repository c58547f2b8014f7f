import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraselab.attention import (
    AttentionConfig,
    AttentionParams,
    active_term_count,
    bucket_matrix,
    forward_batched,
    backward_batched,
    masked_softmax,
    relative_bucket,
    relative_terms,
    scale_denominator,
)
from phraselab.errors import AllMasked, ConfigError, ShapeMismatch


def small_config(**overrides):
    base = dict(d_model=8, n_heads=2, max_rel_distance=3)
    base.update(overrides)
    return AttentionConfig(**base)


def random_params(cfg, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    d, nb = cfg.d_model, cfg.n_buckets
    return AttentionParams(
        wq_c=rng.normal(0, scale, (d, d)),
        wk_c=rng.normal(0, scale, (d, d)),
        wv=rng.normal(0, scale, (d, d)),
        wq_r=rng.normal(0, scale, (d, d)),
        wk_r=rng.normal(0, scale, (d, d)),
        rel_embed=rng.normal(0, scale, (nb, d)),
        wo=rng.normal(0, scale, (d, d)),
    )


GRAD_FIELDS = tuple(f.name for f in fields(AttentionParams))


def zero_grads(params):
    """Gradient arrays shaped like ``params``, all zero."""
    return AttentionParams(**{name: np.zeros_like(getattr(params, name)) for name in GRAD_FIELDS})


def run_backward(d_out, cache):
    """(input gradient, parameter gradients) of one backward pass into
    fresh zeroed gradients."""
    grads = zero_grads(cache.params)
    return backward_batched(d_out, cache, grads), grads


def zero_position_params(params):
    return AttentionParams(
        wq_c=params.wq_c, wk_c=params.wk_c, wv=params.wv,
        wq_r=np.zeros_like(params.wq_r), wk_r=np.zeros_like(params.wk_r),
        rel_embed=np.zeros_like(params.rel_embed), wo=params.wo,
    )


# ---------------------------------------------------------------- buckets

def test_bucket_center_and_clamps():
    assert relative_bucket(5, 5, 4) == 4
    assert relative_bucket(0, 10, 4) == 0
    assert relative_bucket(9, 2, 4) == 7


def test_bucket_full_sweep_small_k():
    # k=2: offsets -3 -2 -1 0 1 2 3 -> buckets 0 0 1 2 3 3 3
    got = [relative_bucket(i, 5, 2) for i in range(2, 9)]
    assert got == [0, 0, 1, 2, 3, 3, 3]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 50), st.integers(0, 50),
    st.integers(0, 30), st.integers(1, 12),
)
def test_bucket_translation_invariance(i, j, c, k):
    assert relative_bucket(i + c, j + c, k) == relative_bucket(i, j, k)


def test_bucket_matrix_matches_scalar():
    for length, k in ((1, 1), (5, 2), (7, 3), (4, 9)):
        mat = bucket_matrix(length, k)
        assert mat.shape == (length, length)
        for m in range(length):
            for n in range(length):
                assert mat[m, n] == relative_bucket(m, n, k)


# ----------------------------------------------------------- masked softmax

def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        scores = rng.normal(0, 5, (3, 6, 6))
        mask = (rng.random(6) > 0.3).astype(float)
        mask[0] = 1.0
        probs = masked_softmax(scores, mask[None, :])
        sums = probs.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(probs[..., mask == 0] == 0.0)


def test_masked_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    scores = rng.normal(0, 2, (4, 5, 5))
    mask = np.ones(5)
    base = masked_softmax(scores, mask)
    shifted = masked_softmax(scores + 17.25, mask)
    assert np.max(np.abs(base - shifted)) < 1e-12


def test_masked_softmax_all_masked_raises():
    with pytest.raises(AllMasked):
        masked_softmax(np.zeros((2, 3, 3)), np.zeros(3))


def test_masked_softmax_single_key_is_certain():
    mask = np.array([0.0, 1.0, 0.0])
    probs = masked_softmax(np.full((2, 3, 3), 9.0), mask)
    assert np.all(probs[..., 1] == 1.0)


# ------------------------------------------------------- term accounting

def test_active_term_count_structural():
    cfg = small_config(include_p2p=True)
    params = random_params(cfg, 0)
    assert active_term_count(params, cfg) == 4
    assert active_term_count(zero_position_params(params), cfg) == 1

    only_key = random_params(cfg, 1)
    only_key.wq_r = np.zeros_like(only_key.wq_r)
    assert active_term_count(only_key, cfg) == 2  # c2c + c2p

    only_query = random_params(cfg, 2)
    only_query.wk_r = np.zeros_like(only_query.wk_r)
    assert active_term_count(only_query, cfg) == 2  # c2c + p2c

    no_table = random_params(cfg, 3)
    no_table.rel_embed = np.zeros_like(no_table.rel_embed)
    assert active_term_count(no_table, cfg) == 1

    no_p2p = small_config(include_p2p=False)
    assert active_term_count(random_params(no_p2p, 4), no_p2p) == 3


def test_scale_denominator_modes():
    cfg = small_config()
    params = random_params(cfg, 5)
    assert scale_denominator(params, cfg) == math.sqrt(4 * cfg.d_head)
    assert scale_denominator(zero_position_params(params), cfg) == math.sqrt(cfg.d_head)


def test_config_validation():
    with pytest.raises(ConfigError):
        AttentionConfig(d_model=7, n_heads=2, max_rel_distance=3)
    with pytest.raises(ConfigError):
        AttentionConfig(d_model=8, n_heads=2, max_rel_distance=0)
    for flag in ("yes", 0, 1, None):
        with pytest.raises(ConfigError, match="include_p2p must be true or false"):
            AttentionConfig(d_model=8, n_heads=2, max_rel_distance=3, include_p2p=flag)


# -------------------------------------------------------- scalar oracles

def scalar_scores_oracle(h, params, cfg):
    """Straight-line per-entry evaluation of the four-term score sum.

    Deliberately naive: scalar loops, explicit bucket calls, no shared
    code with the implementation under test.
    """
    length = h.shape[0]
    heads, dh, k = cfg.n_heads, cfg.d_head, cfg.max_rel_distance
    qc = h @ params.wq_c
    kc = h @ params.wk_c
    qr = params.rel_embed @ params.wq_r
    kr = params.rel_embed @ params.wk_r
    denom = scale_denominator(params, cfg)
    out = np.zeros((heads, length, length))
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        for m in range(length):
            for n in range(length):
                s = float(qc[m, sl] @ kc[n, sl])
                s += float(qc[m, sl] @ kr[relative_bucket(m, n, k), sl])
                s += float(qr[relative_bucket(n, m, k), sl] @ kc[n, sl])
                if cfg.include_p2p:
                    s += float(
                        qr[relative_bucket(m, n, k), sl]
                        @ kr[relative_bucket(n, m, k), sl]
                    )
                out[head, m, n] = s / denom
    return out


def scalar_forward_oracle(h, params, cfg, mask):
    scores = scalar_scores_oracle(h, params, cfg)
    length = h.shape[0]
    heads, dh = cfg.n_heads, cfg.d_head
    v = h @ params.wv
    mixed = np.zeros((length, cfg.d_model))
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        for m in range(length):
            exps = [
                math.exp(scores[head, m, n]) if mask[n] else 0.0
                for n in range(length)
            ]
            z = sum(exps)
            for n in range(length):
                mixed[m, sl] += (exps[n] / z) * v[n, sl]
    return mixed @ params.wo


def test_two_token_scores_match_scalar_oracle():
    cfg = AttentionConfig(d_model=2, n_heads=1, max_rel_distance=1)
    params = AttentionParams(
        wq_c=np.array([[1.0, 2.0], [-1.0, 0.5]]),
        wk_c=np.array([[0.5, -1.0], [2.0, 1.0]]),
        wv=np.array([[1.0, 0.0], [0.0, 1.0]]),
        wq_r=np.array([[0.25, -0.5], [1.0, 0.75]]),
        wk_r=np.array([[-0.75, 0.5], [0.25, -1.0]]),
        rel_embed=np.array([[1.0, -1.0], [0.5, 2.0]]),
        wo=np.array([[1.0, 1.0], [-1.0, 1.0]]),
    )
    h = np.array([[0.5, -1.5], [2.0, 0.25]])
    _, raw, _ = forward_batched(h[None], params, cfg, np.ones((1, 2)))
    expected = scalar_scores_oracle(h, params, cfg)
    assert np.max(np.abs(raw[0] - expected)) < 1e-12


def test_random_instances_match_scalar_oracle():
    rng = np.random.default_rng(77)
    for seed, p2p in ((1, True), (2, False), (3, True)):
        cfg = small_config(include_p2p=p2p)
        params = random_params(cfg, seed)
        h = rng.normal(0, 1, (5, cfg.d_model))
        mask = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        out, raw, _ = forward_batched(h[None], params, cfg, mask[None])
        assert np.max(np.abs(raw[0] - scalar_scores_oracle(h, params, cfg))) < 1e-12
        assert np.max(np.abs(out[0] - scalar_forward_oracle(h, params, cfg, mask))) < 1e-12


# --------------------------------------------------- structural reductions

def test_zero_position_equals_standard_attention():
    """With position parameters zeroed the module must reduce exactly
    to softmax(Qc Kc^T / sqrt(d_head)) V, head by head."""
    rng = np.random.default_rng(21)
    cfg = small_config(include_p2p=False)
    params = zero_position_params(random_params(cfg, 6))
    h = rng.normal(0, 1, (6, cfg.d_model))
    out, _, _ = forward_batched(h[None], params, cfg, np.ones((1, 6)))

    dh = cfg.d_head
    expected = np.zeros_like(h)
    for head in range(cfg.n_heads):
        sl = slice(head * dh, (head + 1) * dh)
        q = h @ params.wq_c[:, sl]
        kk = h @ params.wk_c[:, sl]
        v = h @ params.wv[:, sl]
        s = q @ kk.T / math.sqrt(dh)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        expected[:, sl] = a @ v
    expected = expected @ params.wo
    assert np.max(np.abs(out[0] - expected)) < 1e-12


def test_zero_hidden_states_give_uniform_rows():
    cfg = small_config(include_p2p=True)
    params = AttentionParams(
        wq_c=np.zeros((8, 8)), wk_c=np.zeros((8, 8)), wv=np.zeros((8, 8)),
        wq_r=np.zeros((8, 8)), wk_r=np.zeros((8, 8)),
        rel_embed=np.zeros((cfg.n_buckets, 8)), wo=np.zeros((8, 8)),
    )
    _, _, cache = forward_batched(np.zeros((1, 4, 8)), params, cfg, np.ones((1, 4)), keep_cache=True)
    assert np.max(np.abs(cache.probs - 0.25)) < 1e-12


def test_diagonal_dominant_scores_force_identity_mixing():
    d = 4
    cfg = AttentionConfig(d_model=d, n_heads=1, max_rel_distance=2)
    params = AttentionParams(
        wq_c=np.eye(d) * 10.0, wk_c=np.eye(d) * 10.0,
        wv=np.random.default_rng(8).normal(0, 1, (d, d)),
        wq_r=np.zeros((d, d)), wk_r=np.zeros((d, d)),
        rel_embed=np.zeros((cfg.n_buckets, d)),
        wo=np.random.default_rng(9).normal(0, 1, (d, d)),
    )
    h = np.eye(d)  # orthonormal rows: off-diagonal scores collapse
    out, _, _ = forward_batched(h[None], params, cfg, np.ones((1, d)))
    assert np.max(np.abs(out[0] - h @ params.wv @ params.wo)) < 1e-12


def test_equal_values_under_uniform_mixing_give_equal_rows():
    cfg = small_config()
    params = zero_position_params(random_params(cfg, 10))
    params.wq_c = np.zeros_like(params.wq_c)  # scores all zero -> uniform
    h = np.tile(np.linspace(-1, 1, cfg.d_model), (1, 2, 1))
    out, _, cache = forward_batched(h, params, cfg, np.ones((1, 2)), keep_cache=True)
    assert np.max(np.abs(cache.probs - 0.5)) < 1e-12
    assert np.max(np.abs(out[0, 0] - out[0, 1])) < 1e-12


# ------------------------------------------------------------- validation

def test_shape_validation():
    cfg = small_config()
    params = random_params(cfg, 30)
    with pytest.raises(ShapeMismatch):
        forward_batched(np.zeros((2, 4, 5)), params, cfg, np.ones((2, 4)))
    with pytest.raises(ShapeMismatch):
        forward_batched(np.zeros((2, 4, 8)), params, cfg, np.ones((2, 5)))
    bad = random_params(cfg, 31)
    bad.rel_embed = np.zeros((3, cfg.d_model))
    with pytest.raises(ShapeMismatch):
        forward_batched(np.zeros((2, 4, 8)), bad, cfg, np.ones((2, 4)))


def test_backward_rejects_wrong_upstream_shape():
    """The shape check runs first, so a refused call writes nothing."""
    cfg = small_config()
    params = random_params(cfg, 32)
    h = np.random.default_rng(0).normal(0, 1, (2, 4, 8))
    _, _, cache = forward_batched(h, params, cfg, np.ones((2, 4)), keep_cache=True)
    grads = zero_grads(params)
    with pytest.raises(ShapeMismatch):
        backward_batched(np.ones((2, 5, 8)), cache, grads)
    for name in GRAD_FIELDS:
        assert np.all(getattr(grads, name) == 0.0), name


# -------------------------------------------------------------- gradients

def test_zero_upstream_gradient_zeroes_everything():
    cfg = small_config()
    params = random_params(cfg, 40)
    h = np.random.default_rng(41).normal(0, 1, (4, cfg.d_model))
    out, _, cache = forward_batched(h[None], params, cfg, np.ones((1, 4)), keep_cache=True)
    dh, grads = run_backward(np.zeros_like(out), cache)
    assert np.all(dh == 0.0)
    for name in GRAD_FIELDS:
        assert np.all(getattr(grads, name) == 0.0), name


def test_backward_adds_into_the_gradients_it_is_handed():
    """A second pass into the same arrays doubles every one exactly,
    since x + x is exact, and returns the same input gradient."""
    cfg = small_config()
    params = random_params(cfg, 45)
    rng = np.random.default_rng(46)
    h = rng.normal(0, 1, (2, 5, cfg.d_model))
    mask = np.ones((2, 5))
    mask[1, 3:] = 0.0
    out, _, cache = forward_batched(h, params, cfg, mask, keep_cache=True)
    d_out = rng.normal(0, 1, out.shape)
    first_dh, once = run_backward(d_out, cache)
    twice = zero_grads(params)
    backward_batched(d_out, cache, twice)
    second_dh = backward_batched(d_out, cache, twice)
    assert np.array_equal(second_dh, first_dh)
    for name in GRAD_FIELDS:
        assert np.any(getattr(once, name) != 0.0), name
        assert np.array_equal(getattr(twice, name), 2.0 * getattr(once, name)), name


def test_layers_sharing_the_relative_table_sum_into_it_in_call_order():
    """Two modules whose weights and gradients alias one relative table,
    as a model's layers do: the shared gradient is the first call's
    contribution plus the second's, rounded in that order."""
    cfg = small_config()
    top, bottom = random_params(cfg, 47), random_params(cfg, 48)
    bottom.rel_embed = top.rel_embed
    rng = np.random.default_rng(49)
    mask = np.ones((2, 4))
    passes = []
    for params in (top, bottom):
        h = rng.normal(0, 1, (2, 4, cfg.d_model))
        out, _, cache = forward_batched(h, params, cfg, mask, keep_cache=True)
        passes.append((rng.normal(0, 1, out.shape), cache))

    shared = zero_grads(top)
    layer_grads = [shared, zero_grads(bottom)]
    layer_grads[1].rel_embed = shared.rel_embed
    for (d_out, cache), grads in zip(passes, layer_grads):
        backward_batched(d_out, cache, grads)
    alone = [run_backward(d_out, cache)[1] for d_out, cache in passes]
    assert np.array_equal(shared.rel_embed, alone[0].rel_embed + alone[1].rel_embed)


def test_cache_is_built_only_on_request():
    cfg = small_config()
    params = random_params(cfg, 53)
    h = np.random.default_rng(54).normal(0, 1, (2, 5, cfg.d_model))
    mask = np.ones((2, 5))
    mask[1, 3:] = 0.0
    out, raw, cache = forward_batched(h, params, cfg, mask)
    assert cache is None
    out_c, raw_c, cache_c = forward_batched(h, params, cfg, mask, keep_cache=True)
    assert np.array_equal(out, out_c) and np.array_equal(raw, raw_c)
    assert cache_c.probs.shape == (2, cfg.n_heads, 5, 5)


# ------------------------------------------- the forward as first written

def reference_forward(h, params, cfg, mask, prob_dropout=None):
    """The batched forward as first written, with the same roundings:
    three projections, the two bucket products one at a time, and the
    softmax through ``np.where``. Returns (out, raw, arrays), where
    ``arrays`` holds what the cache keeps."""
    n_batch, length, d = h.shape
    n_heads, dh, k = cfg.n_heads, cfg.d_head, cfg.max_rel_distance

    def split(x):
        return x.reshape(*x.shape[:-1], n_heads, dh).swapaxes(-2, -3)

    qc, kc, v = (split(h @ w) for w in (params.wq_c, params.wk_c, params.wv))
    qr = split(params.rel_embed @ params.wq_r)  # (H, 2k, dh)
    kr = split(params.rel_embed @ params.wk_r)
    b1 = bucket_matrix(length, k)  # query relative to key
    raw = qc @ kc.swapaxes(-1, -2)
    q_buckets = qc @ kr.swapaxes(-1, -2)[None]
    raw += np.take_along_axis(q_buckets, np.broadcast_to(b1, q_buckets.shape[:-1] + (length,)), -1)
    k_buckets = kc @ qr.swapaxes(-1, -2)[None]  # key indexed
    raw += np.take_along_axis(
        k_buckets, np.broadcast_to(b1, k_buckets.shape[:-1] + (length,)), -1
    ).swapaxes(-1, -2)
    p2p = None
    if cfg.include_p2p:
        p2p = (qr @ kr.swapaxes(-1, -2))[:, b1, b1.T]
        raw += p2p[None]
    raw /= scale_denominator(params, cfg)

    keep = np.asarray(mask, dtype=bool)
    probs = np.where(keep[:, None, None, :], raw, -np.inf)
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    used = probs if prob_dropout is None else probs * prob_dropout
    merged = np.ascontiguousarray((used @ v).swapaxes(1, 2)).reshape(n_batch, length, d)
    arrays = dict(h=h, qc=qc, kc=kc, v=v, probs=probs, used=used, merged=merged, qr=qr, kr=kr, p2p=p2p)
    return merged @ params.wo, raw, arrays


def laid_out_back_to_back(params):
    """``params`` with wq_c, wk_c and wv moved into one buffer and
    ``qkv`` viewing it, as a model lays them out."""
    stacked = np.stack((params.wq_c, params.wk_c, params.wv))
    params.wq_c, params.wk_c, params.wv = stacked
    params.qkv = stacked
    return params


@settings(max_examples=120, deadline=None)
@given(
    n_batch=st.integers(1, 5),
    length=st.integers(1, 8),
    include_p2p=st.booleans(),
    with_dropout=st.booleans(),
    laid_out=st.booleans(),
    all_real=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_forward_is_bit_identical_to_the_forward_as_first_written(
    n_batch, length, include_p2p, with_dropout, laid_out, all_real, seed
):
    """Output, raw scores and every cached array, bit for bit, with
    masks that hide keys anywhere in a row (one key kept at least) and
    with every key real."""
    cfg = small_config(include_p2p=include_p2p)
    params = random_params(cfg, seed % 1000)
    if laid_out:
        params = laid_out_back_to_back(params)
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 1, (n_batch, length, cfg.d_model))
    mask = np.ones((n_batch, length))
    if not all_real:
        mask = (rng.random((n_batch, length)) < 0.6).astype(np.float64)
        mask[np.arange(n_batch), rng.integers(0, length, n_batch)] = 1.0
    drop = None
    if with_dropout:
        drop = (rng.random((n_batch, cfg.n_heads, length, length)) >= 0.2) / 0.8

    out, raw, cache = forward_batched(h, params, cfg, mask, drop, keep_cache=True)
    want_out, want_raw, want = reference_forward(h, params, cfg, mask, drop)
    assert np.array_equal(out, want_out)
    assert np.array_equal(raw, want_raw)
    for name in ("h", "qc", "kc", "v", "probs", "used", "merged"):
        assert np.array_equal(getattr(cache, name), want[name]), name
    assert cache.drop is drop
    assert np.array_equal(cache.terms.qr, want["qr"]) and np.array_equal(cache.terms.kr, want["kr"])
    if include_p2p:
        assert np.array_equal(cache.terms.p2p, want["p2p"])
    else:
        assert cache.terms.p2p is None


def test_a_softmax_with_no_masked_key_leaves_the_returned_scores_alone():
    cfg = small_config()
    params = laid_out_back_to_back(random_params(cfg, 70))
    h = np.random.default_rng(71).normal(0, 1, (2, 5, cfg.d_model))
    mask = np.ones((2, 5))
    out, raw, cache = forward_batched(h, params, cfg, mask, keep_cache=True)
    _, want_raw, want = reference_forward(h, params, cfg, mask)
    assert np.array_equal(raw, want_raw)
    assert not np.shares_memory(raw, cache.probs)
    assert np.array_equal(cache.probs, want["probs"])


# ------------------------------------------------- prepared relative terms

PREPARED_MAX_LEN = 9  # past 2k = 6, so the clamped buckets are in the field
PREPARED_CASES = [
    pytest.param(include_p2p, zero_pos, id=f"p2p={include_p2p}-zero_pos={zero_pos}")
    for include_p2p in (True, False) for zero_pos in (False, True)
]


def prepared_case(include_p2p, zero_pos, seed):
    cfg = small_config(include_p2p=include_p2p)
    params = random_params(cfg, seed)
    if zero_pos:
        params = zero_position_params(params)
    return cfg, params, relative_terms(params, cfg, PREPARED_MAX_LEN)


def prepared_batch(rng, length):
    h = rng.normal(0, 1, (3, length, 8))
    mask = np.ones((3, length))
    mask[1, (length + 1) // 2:] = 0.0
    mask[2, 0] = 0.0 if length > 1 else 1.0
    return h, mask


@pytest.mark.parametrize("include_p2p, zero_pos", PREPARED_CASES)
def test_prepared_terms_give_the_same_forward_bits_at_every_length(include_p2p, zero_pos):
    """Terms built once at the longest length serve every shorter one:
    output and raw scores equal, bit for bit, those of terms built from
    the parameters in the call itself."""
    cfg, params, terms = prepared_case(include_p2p, zero_pos, 60)
    if zero_pos:
        assert terms.denom == math.sqrt(cfg.d_head)
    rng = np.random.default_rng(61)
    for length in range(1, PREPARED_MAX_LEN + 1):
        h, mask = prepared_batch(rng, length)
        want_out, want_raw, _ = forward_batched(h, params, cfg, mask)
        got_out, got_raw, _ = forward_batched(h, params, cfg, mask, terms=terms)
        assert np.array_equal(got_out, want_out), length
        assert np.array_equal(got_raw, want_raw), length


@pytest.mark.parametrize("include_p2p, zero_pos", PREPARED_CASES)
def test_prepared_terms_give_the_same_gradient_bits_at_every_length(include_p2p, zero_pos):
    cfg, params, terms = prepared_case(include_p2p, zero_pos, 62)
    rng = np.random.default_rng(63)
    for length in range(1, PREPARED_MAX_LEN + 1):
        h, mask = prepared_batch(rng, length)
        d_out = rng.normal(0, 1, h.shape)
        _, _, want_cache = forward_batched(h, params, cfg, mask, keep_cache=True)
        _, _, got_cache = forward_batched(h, params, cfg, mask, keep_cache=True, terms=terms)
        assert got_cache.terms is terms
        want_dh, want = run_backward(d_out, want_cache)
        got_dh, got = run_backward(d_out, got_cache)
        assert np.array_equal(got_dh, want_dh), length
        for name in GRAD_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), (length, name)


def test_sliced_p2p_field_equals_the_field_gathered_at_that_length():
    cfg, params, terms = prepared_case(True, False, 64)
    assert terms.p2p.shape == (cfg.n_heads, PREPARED_MAX_LEN, PREPARED_MAX_LEN)
    for length in range(1, PREPARED_MAX_LEN + 1):
        short = relative_terms(params, cfg, length)
        assert np.array_equal(terms.p2p[:, :length, :length], short.p2p), length
        assert np.array_equal(terms.qr, short.qr) and np.array_equal(terms.kr, short.kr)
    assert prepared_case(False, False, 64)[2].p2p is None


def test_prepared_terms_are_read_only_and_must_cover_the_length():
    cfg, params, terms = prepared_case(True, False, 65)
    for arr in (terms.qr, terms.kr, terms.p2p):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    short = relative_terms(params, cfg, 4)
    h, mask = prepared_batch(np.random.default_rng(66), 5)
    with pytest.raises(ShapeMismatch, match="length 5"):
        forward_batched(h, params, cfg, mask, terms=short)


@settings(max_examples=150, deadline=None)
@given(
    n_batch=st.integers(1, 16),
    length=st.integers(2, PREPARED_MAX_LEN),
    queries=st.integers(1, PREPARED_MAX_LEN),
    include_p2p=st.booleans(),
    prepared=st.booleans(),
    laid_out=st.booleans(),
    with_dropout=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_query_restricted_forward_keeps_the_first_query_rows_bit_for_bit(
    n_batch, length, queries, include_p2p, prepared, laid_out, with_dropout, seed
):
    """``queries=q`` gives the first q query rows of the full call:
    output and raw scores bit for bit from two rows up, with holes in
    the mask and column 0 masked in some rows. One query row turns
    every product into a one-row product, whose vector path may round
    differently, so q = 1 is held to 1e-12."""
    q = min(queries, length)
    cfg = small_config(include_p2p=include_p2p)
    params = random_params(cfg, seed % 1000)
    if laid_out:
        params = laid_out_back_to_back(params)
    terms = relative_terms(params, cfg, PREPARED_MAX_LEN) if prepared else None
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 1, (n_batch, length, cfg.d_model))
    mask = (rng.random((n_batch, length)) < 0.6).astype(np.float64)
    mask[:, 0] = rng.random(n_batch) < 0.5
    mask[np.arange(n_batch), rng.integers(1, length, n_batch)] = 1.0
    drop = None
    if with_dropout:
        drop = (rng.random((n_batch, cfg.n_heads, length, length)) >= 0.2) / 0.8

    want_out, want_raw, _ = forward_batched(h, params, cfg, mask, drop, terms=terms)
    got_out, got_raw, cache = forward_batched(
        h, params, cfg, mask, None if drop is None else drop[:, :, :q], terms=terms, queries=q
    )
    assert cache is None
    assert got_out.shape == (n_batch, q, cfg.d_model)
    assert got_raw.shape == (n_batch, cfg.n_heads, q, length)
    if q >= 2:
        assert np.array_equal(got_out, want_out[:, :q])
        assert np.array_equal(got_raw, want_raw[:, :, :q])
    else:
        assert np.max(np.abs(got_out - want_out[:, :q])) <= 1e-12
        assert np.max(np.abs(got_raw - want_raw[:, :, :q])) <= 1e-12


def test_query_restriction_must_fit_the_length_and_keep_no_cache():
    cfg = small_config()
    params = random_params(cfg, 67)
    h, mask = prepared_batch(np.random.default_rng(68), 5)
    for bad in (0, 6):
        with pytest.raises(ShapeMismatch, match=rf"queries must be in \[1, 5\].*got {bad}"):
            forward_batched(h, params, cfg, mask, queries=bad)
    with pytest.raises(ShapeMismatch, match="no cache"):
        forward_batched(h, params, cfg, mask, keep_cache=True, queries=2)


def test_single_unmasked_key_pins_softmax_gradient():
    """One visible key pins every probability row at exactly 1, so no
    gradient can flow back through the score matrix."""
    cfg = small_config()
    params = random_params(cfg, 42)
    h = np.random.default_rng(43).normal(0, 1, (1, 3, cfg.d_model))
    mask = np.array([[1.0, 0.0, 0.0]])
    out, _, cache = forward_batched(h, params, cfg, mask, keep_cache=True)
    _, grads = run_backward(np.random.default_rng(44).normal(0, 1, out.shape), cache)
    for name in ("wq_c", "wk_c", "wq_r", "wk_r"):
        assert np.all(getattr(grads, name) == 0.0)
    assert np.any(grads.wv != 0.0)
    assert np.any(grads.wo != 0.0)


def finite_difference_check(cfg, seed, with_dropout=False, h_step=1e-5, tol=1e-4):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(2, 6))
    n_batch = int(rng.integers(1, 3))
    params = random_params(cfg, seed + 1000)
    h = rng.normal(0, 1, (n_batch, length, cfg.d_model))
    mask = np.ones((n_batch, length))
    if length > 2:
        mask[0, -1] = 0.0
    drop = None
    if with_dropout:
        drop = (rng.random((n_batch, cfg.n_heads, length, length)) >= 0.2) / 0.8
    d_out = rng.normal(0, 1, h.shape)

    def run():
        out, _, cache = forward_batched(h, params, cfg, mask, drop, keep_cache=True)
        return float(np.sum(out * d_out)), cache

    loss0, cache = run()
    dh, grads = run_backward(d_out, cache)
    worst = 0.0
    for name in GRAD_FIELDS:
        arr, an = getattr(params, name), getattr(grads, name)
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=3, replace=False):
            keep = flat[idx]
            flat[idx] = keep + h_step
            up, _ = run()
            flat[idx] = keep - h_step
            down, _ = run()
            flat[idx] = keep
            fd = (up - down) / (2 * h_step)
            a = an.reshape(-1)[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
            assert rel < tol, (name, idx, a, fd, rel)
    # input gradient too
    hf = h.reshape(-1)
    for idx in rng.choice(hf.size, size=4, replace=False):
        keep = hf[idx]
        hf[idx] = keep + h_step
        up, _ = run()
        hf[idx] = keep - h_step
        down, _ = run()
        hf[idx] = keep
        fd = (up - down) / (2 * h_step)
        a = dh.reshape(-1)[idx]
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
        worst = max(worst, rel)
        assert rel < tol, ("h", idx, a, fd, rel)
    return worst


def test_gradients_match_finite_differences():
    for seed, p2p in ((1, True), (2, False), (3, True)):
        finite_difference_check(small_config(include_p2p=p2p), seed)


def test_gradients_match_finite_differences_with_dropout():
    finite_difference_check(small_config(), 9, with_dropout=True)


def test_single_head_full_table_gradients():
    cfg = AttentionConfig(d_model=6, n_heads=1, max_rel_distance=5)
    finite_difference_check(cfg, 13)
