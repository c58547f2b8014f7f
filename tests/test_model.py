import contextlib
import copy
import functools
import hashlib
import itertools
import json
import math
import pickle
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraselab import evaluation
from phraselab import model as M
from phraselab.attention import AttentionConfig, masked_softmax, relative_terms
from phraselab.errors import (
    AllMasked,
    BadMagic,
    ConfigError,
    EmptySplit,
    NonFiniteLoss,
    NonFiniteWeights,
    NumericOverflow,
    ShapeMismatch,
    UnknownPreset,
)
from phraselab.text import TokenSequence, build_vocab, encode

from conftest import OVERLAP_WORDS, make_dataset, overlap_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"


def micro_config(**overrides):
    base = dict(
        layers=1,
        ffn_dim=5,
        vocab_size=16,
        max_len=6,
        attention=AttentionConfig(d_model=4, n_heads=2, max_rel_distance=3),
        dropout_rate=0.0,
        seed=11,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


# ------------------------------------------------------------------ init

def test_init_is_deterministic_and_seed_sensitive():
    cfg = micro_config()
    a = M.init_params(cfg)
    b = M.init_params(cfg)
    for (name, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
        assert np.array_equal(x, y), name
    c = M.init_params(micro_config(seed=12))
    assert any(
        not np.array_equal(x, y)
        for (_, x), (_, y) in zip(a.named_arrays(), c.named_arrays())
    )


def test_init_norm_gains_ones_biases_zero():
    params = M.init_params(micro_config())
    lay = params.layers[0]
    assert np.all(lay.ln1_g == 1.0) and np.all(lay.ln2_g == 1.0)
    for arr in (lay.ln1_b, lay.ln2_b, lay.b1, lay.b2, params.head_b, params.out_b):
        assert np.all(arr == 0.0)


def test_init_weight_statistics():
    cfg = micro_config(vocab_size=4096, attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=3))
    params = M.init_params(cfg)
    sample = params.token_embed.ravel()
    assert sample.size >= 10_000
    assert np.max(np.abs(sample)) <= 0.04  # hard truncation at 2 sigma
    sd = float(np.std(sample))
    assert abs(sd - 0.02) < 0.002
    assert abs(float(np.mean(sample))) < 0.001


def test_init_rows_keep_the_leading_rows_of_the_full_draw():
    cfg = micro_config(layers=2, vocab_size=64)
    full = M.init_params(cfg)
    cut = M.init_params(cfg, rows=9)
    assert cut.token_embed.shape == (9, cfg.d_model)
    # the dropped rows are not kept alive: the buffer holds 9 token rows
    assert cut.flat.size == full.flat.size - (cfg.vocab_size - 9) * cfg.d_model
    assert np.shares_memory(cut.token_embed, cut.flat)
    assert np.array_equal(cut.token_embed, full.token_embed[:9])
    for (name, got), (_, want) in itertools.islice(
        zip(cut.named_arrays(), full.named_arrays()), 1, None
    ):
        assert np.array_equal(got, want), name
    for bad in (0, cfg.vocab_size + 1):
        with pytest.raises(ConfigError):
            M.init_params(cfg, rows=bad)


def assert_flat_layout(params, cfg, rows=None):
    """Every array of ``params`` views ``params.flat`` at its
    ``_param_shapes`` offset, and the buffer holds nothing else."""
    rows = cfg.vocab_size if rows is None else rows
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1
    assert params.flat.size == M._param_count(cfg) - (cfg.vocab_size - rows) * cfg.d_model
    shapes = M._param_shapes(cfg, rows)
    assert [name for name, _ in params.named_arrays()] == list(shapes)
    base = params.flat.__array_interface__["data"][0]
    offset = 0
    for (name, arr), shape in zip(params.named_arrays(), shapes.values()):
        assert arr.shape == shape and arr.flags.c_contiguous, name
        assert arr.__array_interface__["data"][0] - base == 8 * offset, name
        offset += arr.size
    assert offset == params.flat.size
    # the struct's fields are those views, not copies
    skip = ("layers", "flat", "views", "relative")
    reachable = [getattr(params, f.name) for f in fields(params) if f.name not in skip]
    for lay in params.layers:
        reachable += [getattr(lay, f.name) for f in fields(lay) if f.name != "attn"]
        reachable += [getattr(lay.attn, f.name) for f in fields(lay.attn)]
    assert {id(a) for a in reachable} == {id(a) for _, a in params.named_arrays()}


def test_parameters_and_gradients_are_views_of_one_buffer():
    cfg = micro_config(layers=2, vocab_size=64)
    for rows in (None, 9):
        params = M.init_params(cfg, rows=rows)
        assert_flat_layout(params, cfg, rows)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, rows or cfg.vocab_size, (2, cfg.max_len))
        _, grads, _ = M.loss_and_grads(ids, np.ones((2, cfg.max_len)), rng.random(2), params, cfg)
        assert_flat_layout(grads, cfg, rows)
        assert not np.shares_memory(grads.flat, params.flat)


def test_a_gradient_buffer_handed_in_is_zeroed_before_the_step_adds_into_it():
    """``train`` lays its gradient buffer out once and hands it to every
    step, so what one step left in it must not reach the next."""
    cfg = micro_config(layers=2, vocab_size=64)
    params = M.init_params(cfg, rows=9)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 9, (2, cfg.max_len))
    mask, gold = np.ones((2, cfg.max_len)), rng.random(2)
    loss, fresh, score = M.loss_and_grads(ids, mask, gold, params, cfg)
    stale = M._params_over(cfg, rows=9)
    stale.flat.fill(7.0)
    again, grads, again_score = M.loss_and_grads(ids, mask, gold, params, cfg, grads=stale)
    assert grads is stale
    assert again == loss and again_score.tobytes() == score.tobytes()
    assert grads.flat.tobytes() == fresh.flat.tobytes()


def test_each_layers_stacked_projection_views_its_three_content_weights(tmp_path):
    """One product projects queries, keys and values through ``attn.qkv``,
    so its slices must be ``wq_c``, ``wk_c`` and ``wv`` themselves in
    every layout: initialized, loaded, gradients and a pickled copy."""
    cfg = micro_config(layers=2, vocab_size=64)
    params = M.init_params(cfg)
    loaded, _ = M.load_checkpoint(M.save_checkpoint(params, cfg, tmp_path / "m.ckpt"))
    rng = np.random.default_rng(4)
    ids = rng.integers(0, cfg.vocab_size, (2, cfg.max_len))
    _, grads, _ = M.loss_and_grads(ids, np.ones((2, cfg.max_len)), rng.random(2), params, cfg)
    for laid_out in (params, loaded, grads, pickle.loads(pickle.dumps(params))):
        for lay in laid_out.layers:
            attn = lay.attn
            assert attn.qkv.shape == (3, cfg.d_model, cfg.d_model)
            for view, weight in zip(attn.qkv, (attn.wq_c, attn.wk_c, attn.wv)):
                assert view.__array_interface__ == weight.__array_interface__
                assert np.shares_memory(view, laid_out.flat)
    # a copied layer's weights no longer share one buffer: it stacks them
    assert copy.deepcopy(params.layers[0].attn).qkv is None


def test_shared_relative_table_is_aliased():
    params = M.init_params(micro_config(layers=3))
    for lay in params.layers:
        assert lay.attn.rel_embed is params.rel_embed
    names = [n for n, _ in params.named_arrays()]
    assert names.count("rel_embed") == 1
    assert not any(n.endswith("attn.rel_embed") for n in names)


def test_config_validation():
    with pytest.raises(ConfigError):
        micro_config(layers=0)
    with pytest.raises(ConfigError):
        micro_config(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        micro_config(vocab_size=3)
    with pytest.raises(ConfigError, match="input_layout 'bogus'"):
        micro_config(input_layout="bogus")


# --------------------------------------------------------------- forward

def test_forward_score_strictly_inside_unit_interval():
    cfg = micro_config()
    params = M.init_params(cfg)
    rng = np.random.default_rng(4)
    for _ in range(20):
        ids = tuple(int(x) for x in rng.integers(0, cfg.vocab_size, cfg.max_len))
        n_real = int(rng.integers(1, cfg.max_len + 1))
        mask = tuple([1] * n_real + [0] * (cfg.max_len - n_real))
        score = M.forward(TokenSequence(ids=ids, attention_mask=mask), params, cfg)
        assert 0.0 < score < 1.0


@pytest.mark.parametrize("bad", [-1, 8])
@pytest.mark.parametrize("column", [2, 5])  # 5 is padding, cut by the trim
def test_token_ids_outside_the_table_raise_shape_mismatch(bad, column):
    cfg = micro_config()
    params = M.init_params(cfg, rows=8)
    ids = [2, 4, 5, 7, 3, 0]
    ids[column] = bad
    mask = [1, 1, 1, 1, 1, 0]
    with pytest.raises(ShapeMismatch, match=rf"token id {bad} outside .*\[0, 8\)"):
        M.forward(TokenSequence(ids=tuple(ids), attention_mask=tuple(mask)), params, cfg)
    with pytest.raises(ShapeMismatch, match=f"token id {bad} "):
        M.loss_and_grads(np.array([ids]), np.array([mask], dtype=float), np.array([0.5]),
                         params, cfg)


def test_predict_with_a_vocabulary_wider_than_the_table_raises_shape_mismatch():
    d = overlap_dataset(n_pairs=4, n_extra=0)
    vocab = build_vocab(d)
    cfg = micro_config(max_len=16, vocab_size=64,
                       attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8))
    params = M.init_params(cfg, rows=6)
    assert len(vocab) > 6
    with pytest.raises(ShapeMismatch, match=r"\[0, 6\)") as excinfo:
        M.predict(d, range(len(d)), params, cfg, vocab)
    assert "\n" not in str(excinfo.value)


def test_forward_rejects_wrong_length():
    cfg = micro_config()
    params = M.init_params(cfg)
    seq = TokenSequence(ids=(1, 2, 3), attention_mask=(1, 1, 1))
    with pytest.raises(ShapeMismatch):
        M.forward(seq, params, cfg)


@pytest.mark.parametrize("mask_len", [3, 17])
def test_forward_rejects_a_mask_of_another_length(mask_len):
    cfg = micro_config()
    params = M.init_params(cfg)
    seq = TokenSequence(ids=(2, 5, 9, 0, 0, 0), attention_mask=(1,) * mask_len)
    with pytest.raises(ShapeMismatch, match=rf"attention mask length {mask_len} != max_len 6"):
        M.forward(seq, params, cfg)


def test_forward_ignores_pad_region_content():
    cfg = micro_config()
    params = M.init_params(cfg)
    base_ids = (2, 5, 9, 0, 0, 0)
    mask = (1, 1, 1, 0, 0, 0)
    want = M.forward(TokenSequence(ids=base_ids, attention_mask=mask), params, cfg)
    got = M.forward(
        TokenSequence(ids=(2, 5, 9, 13, 1, 7), attention_mask=mask), params, cfg
    )
    assert want == got  # bit-identical: PAD columns carry probability 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_forward_pad_invariance_random(seed):
    cfg = micro_config()
    params = M.init_params(cfg)
    rng = np.random.default_rng(seed)
    n_real = int(rng.integers(1, cfg.max_len))
    real = [int(x) for x in rng.integers(0, cfg.vocab_size, n_real)]
    mask = tuple([1] * n_real + [0] * (cfg.max_len - n_real))
    pad_a = [int(x) for x in rng.integers(0, cfg.vocab_size, cfg.max_len - n_real)]
    pad_b = [int(x) for x in rng.integers(0, cfg.vocab_size, cfg.max_len - n_real)]
    sa = M.forward(TokenSequence(ids=tuple(real + pad_a), attention_mask=mask), params, cfg)
    sb = M.forward(TokenSequence(ids=tuple(real + pad_b), attention_mask=mask), params, cfg)
    assert sa == sb


# ------------------------------------------------------ scalar re-derivation

def scalar_forward_oracle(ids, mask, params, cfg):
    """The whole forward pass, re-derived with explicit scalar loops.

    Mirrors the documented architecture only: embeddings, pre-norm
    blocks, late absolute-position injection, pooled head. Shares no
    code with the implementation.
    """
    length = len(ids)
    d = cfg.d_model
    heads = cfg.n_heads
    dh = d // heads
    k = cfg.attention.max_rel_distance

    def layer_norm(vec, g, b):
        mu = sum(vec) / d
        var = sum((x - mu) ** 2 for x in vec) / d
        inv = 1.0 / math.sqrt(var + 1e-5)
        return [(x - mu) * inv * gg + bb for x, gg, bb in zip(vec, g, b)]

    def bucket(i, j):
        delta = i - j
        if delta <= -k:
            return 0
        if delta >= k:
            return 2 * k - 1
        return delta + k

    x = [[float(params.token_embed[t, c]) for c in range(d)] for t in ids]
    for li, lay in enumerate(params.layers):
        if li == cfg.layers - 1:
            for m in range(length):
                for c in range(d):
                    x[m][c] += float(params.abs_pos_embed[m, c])
        n1 = [layer_norm(row, lay.ln1_g, lay.ln1_b) for row in x]

        qc = [[sum(n1[m][i] * lay.attn.wq_c[i, c] for i in range(d)) for c in range(d)] for m in range(length)]
        kc = [[sum(n1[m][i] * lay.attn.wk_c[i, c] for i in range(d)) for c in range(d)] for m in range(length)]
        vv = [[sum(n1[m][i] * lay.attn.wv[i, c] for i in range(d)) for c in range(d)] for m in range(length)]
        nb = 2 * k
        qr = [[sum(params.rel_embed[r, i] * lay.attn.wq_r[i, c] for i in range(d)) for c in range(d)] for r in range(nb)]
        kr = [[sum(params.rel_embed[r, i] * lay.attn.wk_r[i, c] for i in range(d)) for c in range(d)] for r in range(nb)]

        terms = 4 if cfg.attention.include_p2p else 3
        denom = math.sqrt(terms * dh)
        mixed = [[0.0] * d for _ in range(length)]
        for head in range(heads):
            lo = head * dh
            for m in range(length):
                scores = []
                for n in range(length):
                    s = sum(qc[m][lo + c] * kc[n][lo + c] for c in range(dh))
                    s += sum(qc[m][lo + c] * kr[bucket(m, n)][lo + c] for c in range(dh))
                    s += sum(qr[bucket(n, m)][lo + c] * kc[n][lo + c] for c in range(dh))
                    if cfg.attention.include_p2p:
                        s += sum(qr[bucket(m, n)][lo + c] * kr[bucket(n, m)][lo + c] for c in range(dh))
                    scores.append(s / denom)
                exps = [math.exp(s) if mask[n] else 0.0 for n, s in enumerate(scores)]
                z = sum(exps)
                for n in range(length):
                    w = exps[n] / z
                    for c in range(dh):
                        mixed[m][lo + c] += w * vv[n][lo + c]
        attn_out = [[sum(mixed[m][i] * lay.attn.wo[i, c] for i in range(d)) for c in range(d)] for m in range(length)]
        x = [[x[m][c] + attn_out[m][c] for c in range(d)] for m in range(length)]

        n2 = [layer_norm(row, lay.ln2_g, lay.ln2_b) for row in x]
        for m in range(length):
            hidden = []
            for f in range(cfg.ffn_dim):
                pre = sum(n2[m][i] * lay.w1[i, f] for i in range(d)) + float(lay.b1[f])
                t = math.tanh(math.sqrt(2.0 / math.pi) * (pre + 0.044715 * pre**3))
                hidden.append(0.5 * pre * (1.0 + t))
            for c in range(d):
                x[m][c] += sum(hidden[f] * lay.w2[f, c] for f in range(cfg.ffn_dim)) + float(lay.b2[c])

    cls = x[0]
    pooled = [
        math.tanh(sum(cls[i] * params.head_w[i, c] for i in range(d)) + float(params.head_b[c]))
        for c in range(d)
    ]
    logit = sum(pooled[c] * params.out_w[c] for c in range(d)) + float(params.out_b[0])
    return 1.0 / (1.0 + math.exp(-logit))


def test_micro_model_matches_scalar_oracle():
    cfg = M.ModelConfig(
        layers=1,
        ffn_dim=5,
        vocab_size=16,
        max_len=3,
        attention=AttentionConfig(d_model=4, n_heads=1, max_rel_distance=2),
        dropout_rate=0.0,
        seed=21,
    )
    params = M.init_params(cfg)
    # inflate weights so every term is far from underflow
    for _name, arr in params.named_arrays():
        arr *= 20.0
    ids, mask = (3, 7, 12), (1, 1, 1)
    got = M.forward(TokenSequence(ids=ids, attention_mask=mask), params, cfg)
    want = scalar_forward_oracle(ids, mask, params, cfg)
    assert abs(got - want) < 1e-10


def test_two_layer_model_matches_scalar_oracle_with_padding():
    cfg = M.ModelConfig(
        layers=2,
        ffn_dim=4,
        vocab_size=16,
        max_len=4,
        attention=AttentionConfig(d_model=4, n_heads=2, max_rel_distance=2),
        dropout_rate=0.0,
        seed=22,
    )
    params = M.init_params(cfg)
    for _name, arr in params.named_arrays():
        arr *= 15.0
    ids, mask = (1, 9, 4, 2), (1, 1, 1, 0)
    got = M.forward(TokenSequence(ids=ids, attention_mask=mask), params, cfg)
    want = scalar_forward_oracle(ids, mask, params, cfg)
    assert abs(got - want) < 1e-10


# --------------------------------------------------------------- gradients

def test_micro_model_gradients_match_finite_differences():
    cfg = micro_config()
    params = M.init_params(cfg)
    rng = np.random.default_rng(31)
    ids = rng.integers(0, cfg.vocab_size, (3, cfg.max_len))
    mask = np.ones((3, cfg.max_len))
    mask[1, 4:] = 0.0
    gold = rng.random(3)
    _, grads, _ = M.loss_and_grads(ids, mask, gold, params, cfg)

    h = 1e-5
    worst = 0.0
    for name, arr in params.named_arrays():
        flat = arr.reshape(-1)
        probes = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for idx in probes:
            keep = flat[idx]
            flat[idx] = keep + h
            up, _, _ = M.loss_and_grads(ids, mask, gold, params, cfg)
            flat[idx] = keep - h
            down, _, _ = M.loss_and_grads(ids, mask, gold, params, cfg)
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            an = grads.views[name].reshape(-1)[idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4, (name, int(idx), an, fd, rel)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_trimmed_training_step_matches_the_full_length_step(seed):
    """With dropout on, a training step cut after the batch's last real
    column and packed to its real positions gives the loss and gradients
    of the full-grid step, and leaves the dropout generator in the same
    state."""
    cfg = micro_config(layers=2, max_len=8, ffn_dim=6, dropout_rate=0.3)
    params = inflated_micro_params(cfg)
    rng = np.random.default_rng(seed)
    n_batch = int(rng.integers(1, 5))
    ids = rng.integers(0, cfg.vocab_size, (n_batch, cfg.max_len))
    mask = random_mask(rng, n_batch, cfg.max_len)
    gold = rng.random(n_batch)

    trimmed_rng = np.random.default_rng(seed)
    loss, grads, _ = M.loss_and_grads(ids, mask, gold, params, cfg, rng=trimmed_rng)
    full_rng = np.random.default_rng(seed)
    with full_grid_forward() as widths:
        full_loss, full_grads, _ = M.loss_and_grads(ids, mask, gold, params, cfg, rng=full_rng)
    assert widths == [cfg.max_len] * cfg.layers

    assert abs(loss - full_loss) <= 1e-12
    for (name, got), (_, want) in zip(grads.named_arrays(), full_grads.named_arrays()):
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12, name
    assert trimmed_rng.bit_generator.state == full_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 16), st.booleans())
def test_a_training_step_reads_the_max_len_terms_as_the_terms_gathered_at_its_width(
    seed, n_batch, dropout
):
    """A training step builds its relative terms at ``max_len`` and reads
    the corner its trimmed width needs. It gives the loss, gradients,
    scores and dropout stream, bit for bit, of a step whose terms are
    gathered at that width, layer by layer."""
    cfg = micro_config(layers=2, max_len=8, ffn_dim=6, dropout_rate=0.3 if dropout else 0.0)
    params = inflated_micro_params(cfg)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, (n_batch, cfg.max_len))
    mask = random_mask(rng, n_batch, cfg.max_len)
    gold = rng.random(n_batch)
    width = M._real_width(mask)
    at_width = replace(params, relative=tuple(
        relative_terms(lay.attn, cfg.attention, width) for lay in params.layers
    ))
    assert all(t.p2p.shape[-1] == width for t in at_width.relative)

    got_rng = np.random.default_rng(seed)
    loss, grads, score = M.loss_and_grads(ids, mask, gold, params, cfg, rng=got_rng)
    want_rng = np.random.default_rng(seed)
    want_loss, want_grads, want_score = M.loss_and_grads(
        ids, mask, gold, at_width, cfg, rng=want_rng
    )
    assert loss == want_loss
    assert np.array_equal(grads.flat, want_grads.flat)
    assert np.array_equal(score, want_score)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_gradient_clipping_rescales_to_unit_norm():
    cfg = micro_config()
    grads = M._params_over(cfg)
    grads.out_w[:2] = (3.0, 4.0)
    grads.layers[0].b1[0] = 12.0
    total = M.clip_global_norm(grads, 1.0)
    assert abs(total - 13.0) < 1e-12
    joint = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.named_arrays()))
    assert abs(joint - 1.0) < 1e-12

    small = M._params_over(cfg)
    small.out_w[:2] = (0.3, 0.4)
    M.clip_global_norm(small, 1.0)
    assert np.array_equal(small.out_w[:2], np.array([0.3, 0.4]))
    assert np.count_nonzero(small.flat) == 2


# ------------------------------------------------------- inference forward

def inflated_micro_params(cfg, factor=15.0):
    """Seeded micro parameters scaled up so attention is far from uniform."""
    params = M.init_params(cfg)
    for _name, arr in params.named_arrays():
        arr *= factor
    return params


def random_mask(rng, n_batch, max_len):
    """Masks with interior holes, often ending in all-padding columns,
    with column 0 masked in about half the rows; every row keeps at
    least one real token."""
    mask = (rng.random((n_batch, max_len)) < rng.random()).astype(np.float64)
    cut = int(rng.integers(2, max_len + 1))  # columns from here on are padding
    mask[:, cut:] = 0.0
    mask[np.arange(n_batch), rng.integers(1, cut, n_batch)] = 1.0
    mask[:, 0] = rng.random(n_batch) < 0.5
    return mask


@contextlib.contextmanager
def full_grid_forward():
    """Run forward_batch on the whole (B, max_len) grid: no trailing
    column is cut and no position is packed away. Yields the sequence
    length of every attention call, so a test can check it."""
    widths = []
    attend = M.attn_mod.forward_batched

    def spy(h, *args, **kwargs):
        widths.append(h.shape[1])
        return attend(h, *args, **kwargs)

    with mock.patch.object(M, "_real_width", lambda m: m.shape[1]), \
            mock.patch.object(M, "_packed_positions", lambda m: None), \
            mock.patch.object(M.attn_mod, "forward_batched", spy):
        yield widths


def test_packed_positions_keep_real_tokens_and_every_column_zero():
    mask = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
    assert M._packed_positions(mask).tolist() == [0, 1, 2, 4, 6, 7]
    assert M._packed_positions(np.array([[0.0, 1.0], [1.0, 1.0]])) is None
    assert mask[0, 0] == 0.0  # the caller's mask is left alone


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_trimmed_eval_forward_matches_the_full_grid_forward(seed):
    """Random masks, holes and masked column-0 slots included: the eval
    forward, which drops the trailing all-padding columns and packs the
    real positions, scores as the forward over the whole grid."""
    cfg = micro_config(layers=2, max_len=8, ffn_dim=6)
    params = inflated_micro_params(cfg)
    rng = np.random.default_rng(seed)
    n_batch = int(rng.integers(1, 5))
    ids = rng.integers(0, cfg.vocab_size, (n_batch, cfg.max_len))
    mask = random_mask(rng, n_batch, cfg.max_len)

    got, cache = M.forward_batch(ids, mask, params, cfg)
    with full_grid_forward() as widths:
        want, _ = M.forward_batch(ids, mask, params, cfg)
    assert widths == [cfg.max_len] * cfg.layers
    assert cache is None
    assert np.max(np.abs(got - want)) <= 1e-12


@contextlib.contextmanager
def attention_queries():
    """Yields the ``queries`` of every attention call made inside."""
    seen = []
    attend = M.attn_mod.forward_batched

    def spy(*args, **kwargs):
        seen.append(kwargs.get("queries"))
        return attend(*args, **kwargs)

    with mock.patch.object(M.attn_mod, "forward_batched", spy):
        yield seen


@contextlib.contextmanager
def full_top_block():
    """Run the eval forward's top block in full, for every position,
    and hand the head its column-0 rows, as before the cut."""
    block = M._block_forward

    def whole(x, lay, terms, cfg, layout, mask, drop_rng, keep_cache, head_only=False):
        out, cache = block(x, lay, terms, cfg, layout, mask, drop_rng, keep_cache)
        return (out[layout.cls_rows] if head_only else out), cache

    with mock.patch.object(M, "_block_forward", whole):
        yield


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_batch=st.integers(1, 40),
    shape=st.sampled_from(["random", "column 1 padding", "width 1"]),
    dropout=st.booleans(),
)
def test_eval_forward_top_block_cut_matches_the_full_top_block(seed, n_batch, shape, dropout):
    """The eval forward's top block runs queries, the second norm and
    the FFN on grid columns 0 and 1 only; the scores equal, bit for bit,
    those of the full top block, with dropout on or off. Masks have
    holes and masked column-0 slots, column 1 padding in some rows, or
    no real column past the first; batches of one and of two tiles."""
    cfg = micro_config(layers=2, max_len=8, ffn_dim=6, dropout_rate=0.2 if dropout else 0.0,
                       attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=3))
    params = inflated_micro_params(cfg)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, (n_batch, cfg.max_len))
    mask = random_mask(rng, n_batch, cfg.max_len)
    if shape == "column 1 padding":
        mask[rng.random(n_batch) < 0.5, 1] = 0.0
        mask[:, 2] = 1.0
    elif shape == "width 1":
        mask[:, 0], mask[:, 1:] = 1.0, 0.0

    def scores():
        draw = np.random.default_rng(seed) if dropout else None
        return M.forward_batch(ids, mask, params, cfg, rng=draw)[0]

    with full_top_block(), attention_queries() as full_queries:
        want = scores()
    with attention_queries() as cut_queries:
        got = scores()
    n_tiles = len(M._tile_bounds(mask, M._SCORE_TILE * cfg.max_len))
    assert full_queries == [None] * cfg.layers * n_tiles
    assert cut_queries == [None] * n_tiles + [1 if shape == "width 1" else 2] * n_tiles
    assert np.array_equal(got, want)


@pytest.mark.parametrize("narrow", ["d_head", "n_buckets", "ffn_dim"])
def test_a_width_below_four_keeps_the_full_top_block(narrow):
    """Products of fewer than four columns may round a row differently
    at different heights, so a model with a head width, bucket count or
    FFN width below four runs its top block in full."""
    wide = dict(ffn_dim=6, attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=3))
    cut = {
        "d_head": dict(attention=AttentionConfig(d_model=6, n_heads=2, max_rel_distance=3)),
        "n_buckets": dict(attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=1)),
        "ffn_dim": dict(ffn_dim=3),
    }[narrow]
    assert M._head_only_keeps_bits(micro_config(**wide))
    cfg = micro_config(layers=2, max_len=8, **{**wide, **cut})
    assert not M._head_only_keeps_bits(cfg)
    params = inflated_micro_params(cfg)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, cfg.vocab_size, (3, cfg.max_len))
    mask = random_mask(rng, 3, cfg.max_len)
    with attention_queries() as seen:
        got, _ = M.forward_batch(ids, mask, params, cfg)
    with full_top_block():
        want, _ = M.forward_batch(ids, mask, params, cfg)
    assert seen == [None, None]
    assert np.array_equal(got, want)


def test_trimmed_eval_forward_is_bit_exact_on_the_golden_input():
    cfg = replace(M.presets("small"), seed=7)
    params = M.init_params(cfg)
    ids = np.arange(2, 18)[None]
    mask = np.array([[1.0] * 10 + [0.0] * 6])
    trimmed, _ = M.forward_batch(ids, mask, params, cfg)
    with full_grid_forward() as widths:
        full, _ = M.forward_batch(ids, mask, params, cfg)
    assert widths == [cfg.max_len] * cfg.layers
    assert trimmed[0] == full[0] == GOLDEN_SEED7_SMALL_SCORE


GOLDEN_ROWS = GOLDEN_DIR / "forward_small_seed7_rows.json"


def assert_golden_rows(golden, params, cfg):
    """Every golden score, to the last bit, through one batched forward
    and through per-row forwards."""
    ids = np.array(golden["ids"])
    mask = (np.arange(cfg.max_len) < np.array(golden["lengths"])[:, None]).astype(np.float64)
    batch, _ = M.forward_batch(ids, mask, params, cfg)
    assert [float(s).hex() for s in batch] == golden["batch_scores"]
    rows = [
        M.forward(TokenSequence(ids=tuple(ids[r].tolist()), attention_mask=tuple(mask[r].astype(int).tolist())),
                  params, cfg)
        for r in range(len(ids))
    ]
    assert [s.hex() for s in rows] == golden["row_scores"]


def test_multi_row_scores_are_pinned_to_the_golden_copy():
    """A seed-7 small-preset batch of six rows with real lengths 4 to 16,
    captured before the packed layout: every score is pinned to the last
    bit, through one batched forward and through per-row forwards."""
    golden = json.loads(GOLDEN_ROWS.read_text(encoding="utf-8"))
    cfg = replace(M.presets(golden["preset"]), seed=golden["seed"])
    assert sorted(set(golden["lengths"])) == sorted(golden["lengths"])  # all different
    assert_golden_rows(golden, M.init_params(cfg), cfg)


def test_multi_row_scores_through_a_checkpoint_round_trip_match_the_golden_copy(tmp_path):
    """The same golden rows through a loaded checkpoint, whose forward
    reads the relative terms built once at load time."""
    golden = json.loads(GOLDEN_ROWS.read_text(encoding="utf-8"))
    cfg = replace(M.presets(golden["preset"]), seed=golden["seed"])
    path = M.save_checkpoint(M.init_params(cfg), cfg, tmp_path / "seed7.ckpt")
    params, cfg = M.load_checkpoint(path)
    assert params.relative is not None and len(params.relative) == cfg.layers
    assert_golden_rows(golden, params, cfg)


def test_golden_rows_are_unmoved_by_the_top_block_cut():
    """The seed-7 golden rows through the full top block get the bits
    the cut gets, the pinned ones."""
    golden = json.loads(GOLDEN_ROWS.read_text(encoding="utf-8"))
    cfg = replace(M.presets(golden["preset"]), seed=golden["seed"])
    with full_top_block():
        assert_golden_rows(golden, M.init_params(cfg), cfg)


def test_forward_on_unprepared_params_is_a_batch_of_one_of_the_bulk_path():
    """``forward`` on init params, which carry no relative terms, gives
    the golden rows the bits that the bulk path under ``predict`` gives
    them in one call: both prepare the terms at ``max_len``."""
    golden = json.loads(GOLDEN_ROWS.read_text(encoding="utf-8"))
    cfg = replace(M.presets(golden["preset"]), seed=golden["seed"])
    params = M.init_params(cfg)
    assert params.relative is None
    ids = np.array(golden["ids"])
    mask = (np.arange(cfg.max_len) < np.array(golden["lengths"])[:, None]).astype(np.float64)
    bulk = M._batched_scores(ids, mask, params, cfg)
    rows = [
        M.forward(TokenSequence(ids=tuple(ids[r].tolist()), attention_mask=tuple(mask[r].astype(int).tolist())),
                  params, cfg)
        for r in range(len(ids))
    ]
    assert [s.hex() for s in rows] == [float(s).hex() for s in bulk] == golden["row_scores"]


def reference_layer_norm(x, g, b):
    """The layer norm as written with np.mean."""
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + M.LN_EPS)
    xn = xc * inv
    return xn * g + b, xn, inv


def reference_masked_softmax(scores, key_mask):
    """The masked softmax as written with np.max and np.sum."""
    keep = np.asarray(key_mask, dtype=bool)
    weights = np.where(keep[..., None, :], scores, -np.inf)
    weights -= np.max(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=-1, keepdims=True)
    return weights


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    log_scale=st.integers(-8, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_reductions_match_their_numpy_reference_forms_bit_for_bit(shape, log_scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0**log_scale, shape) + rng.normal(0.0, 10.0**log_scale)
    g = rng.normal(1.0, 0.5, shape[-1])
    b = rng.normal(0.0, 0.5, shape[-1])
    y, (xn, inv, _) = M._layer_norm_forward(x, g, b)
    want_y, want_xn, want_inv = reference_layer_norm(x, g, b)
    assert np.array_equal(y, want_y) and np.array_equal(xn, want_xn) and np.array_equal(inv, want_inv)

    scores = rng.normal(0.0, 10.0**log_scale, (*shape[:-1], shape[-1], shape[-1]))
    mask = (rng.random(shape[-1]) < 0.6).astype(np.float64)
    mask[rng.integers(shape[-1])] = 1.0
    assert np.array_equal(masked_softmax(scores, mask), reference_masked_softmax(scores, mask))


def test_row_score_does_not_depend_on_its_batch_mates():
    """A short row scores the same alone (trimmed to its own length) and
    next to a full-length row (not trimmed at all)."""
    cfg = micro_config(layers=2, max_len=8, ffn_dim=6)
    params = inflated_micro_params(cfg)
    rng = np.random.default_rng(12)
    ids = rng.integers(0, cfg.vocab_size, (2, cfg.max_len))
    mask = np.ones((2, cfg.max_len))
    mask[0, 3:] = 0.0
    alone, _ = M.forward_batch(ids[:1], mask[:1], params, cfg)
    batched, _ = M.forward_batch(ids, mask, params, cfg)
    assert abs(alone[0] - batched[0]) <= 1e-12


def test_eval_forward_of_an_all_masked_batch_raises():
    cfg = micro_config()
    params = M.init_params(cfg)
    ids = np.zeros((2, cfg.max_len), dtype=np.intp)
    with pytest.raises(AllMasked):
        M.forward_batch(ids, np.zeros((2, cfg.max_len)), params, cfg)


def test_one_eval_tile_peaks_at_seven_states():
    """A ``forward_batch`` of one tile of full-length small-preset rows,
    on prepared parameters, traces at most 7.1 U, where U is one
    (rows, max_len, d_model) float64 array: the block states, handed
    from block to block, take the residuals in place, and LN1's output
    dies after the Q/K/V product."""
    cfg = M.presets("small")
    params = M._prepared(M.init_params(cfg), cfg)
    n_rows = M._SCORE_TILE
    rng = np.random.default_rng(3)
    ids = rng.integers(4, 64, (n_rows, cfg.max_len))
    mask = np.ones((n_rows, cfg.max_len))
    assert M._tile_bounds(mask, M._SCORE_TILE * cfg.max_len) == [(0, n_rows)]
    M.forward_batch(ids, mask, params, cfg)  # fill the bucket-table cache first
    tracemalloc.start()
    try:
        M.forward_batch(ids, mask, params, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.1 * n_rows * cfg.max_len * cfg.d_model * 8


@pytest.mark.parametrize("n_rows", [1, M._GELU_ROWS, M._GELU_ROWS + 1, 2 * M._GELU_ROWS + 1, 480])
def test_the_in_place_gelu_runs_two_chunks_at_most_with_one_temporary_alive(n_rows):
    """``_gelu_in_place`` gives ``_gelu_parts``' bits, in at most two
    chunks (one up to ``_GELU_ROWS`` rows), and frees each chunk's
    temporary before the next is made."""
    x = np.random.default_rng(n_rows).normal(0.0, 3.0, (n_rows, 256))
    want, _ = M._gelu_parts(x)
    chunk_rows = []
    real_tanh = M._gelu_tanh

    def counting(chunk):
        chunk_rows.append(len(chunk))
        return real_tanh(chunk)

    with mock.patch.object(M, "_gelu_tanh", counting):
        tracemalloc.start()
        try:
            got = M._gelu_in_place(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert got is x and np.array_equal(got, want)
    assert len(chunk_rows) == (1 if n_rows <= M._GELU_ROWS else 2)
    assert peak <= max(chunk_rows) * x.shape[1] * 8 + 4096


def test_eval_forward_keeps_no_block_activations():
    """The peak traced allocation of a batch-256 small-preset eval forward
    on full-length rows (nothing to trim) stays below the FFN arrays that
    two blocks of the training cache hold (pre-activation, GELU tanh and
    activation), so no block's activations outlive the block."""
    cfg = M.presets("small")
    params = M.init_params(cfg)
    n_batch = 256
    rng = np.random.default_rng(3)
    ids = rng.integers(4, 64, (n_batch, cfg.max_len))
    mask = np.ones((n_batch, cfg.max_len))
    ffn_block_bytes = 3 * n_batch * cfg.max_len * cfg.ffn_dim * 8
    M.forward_batch(ids, mask, params, cfg)  # fill the bucket-table cache first
    tracemalloc.start()
    try:
        score, cache = M.forward_batch(ids, mask, params, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache is None and score.shape == (n_batch,)
    assert peak < 2 * ffn_block_bytes


def test_fold_trainer_reports_the_scores_predict_gives():
    d = overlap_dataset(n_pairs=8, n_extra=3)
    cfg = micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        epochs=2,
        batch_size=2,
        dropout_rate=0.1,
    )
    train_idx, val_idx = list(range(8)), [8, 9, 10]
    outcome = M.model_fold_trainer(d, train_idx, val_idx, cfg)
    again = M.predict(d, val_idx, outcome.extras["params"], cfg, outcome.extras["vocab"])
    assert outcome.predictions == again.tolist()


def test_a_fold_outcome_pickles_with_one_parameter_buffer():
    """What a worker sends back: the parameters cross as ``params.flat``
    alone, and their arrays view the buffer that arrives."""
    d = overlap_dataset(n_pairs=8, n_extra=3)
    cfg = micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        epochs=1,
        batch_size=4,
    )
    outcome = M.model_fold_trainer(d, list(range(8)), [8, 9, 10], cfg)
    params, rows = outcome.extras["params"], len(outcome.extras["vocab"])

    buffers = []
    blob = pickle.dumps(outcome, protocol=5, buffer_callback=buffers.append)
    sent = sorted((bytes(b) for b in buffers), key=len)
    # the parameter buffer and the held-out scores, nothing else
    assert len(sent) == 2
    assert sent[-1] == params.flat.tobytes()
    assert sent[0] == outcome.trace.val_predictions.tobytes()
    assert len(blob) < 16 * 1024

    back = pickle.loads(blob, buffers=sent)
    again = back.extras["params"]
    assert_flat_layout(again, cfg, rows)
    assert again.relative is None
    assert np.array_equal(again.flat, params.flat)
    # in-band, as a process pool sends it: one copy of the buffer
    assert len(pickle.dumps(outcome)) < params.flat.nbytes + 16 * 1024


def mixed_length_dataset(n_rows, seed=9, words=(1, 4)):
    """Rows whose phrases draw ``words`` (low, high) words each from the
    overlap word list; by default their real lengths spread over 7..16
    tokens at max_len 16, in no order."""
    rng = np.random.default_rng(seed)

    def phrase():
        return " ".join(rng.choice(OVERLAP_WORDS, int(rng.integers(words[0], words[1] + 1))))

    return make_dataset(
        (f"m{i:03d}", phrase(), phrase(), phrase(), float(rng.integers(0, 5)) / 4)
        for i in range(n_rows)
    )


# inside the first tile, around the rows that fit the budget at full
# width, and counts that end in two tiles (35 to 49) and in three (71
# and 73 with a last tile of one row, 72 of two)
TILE_ROW_COUNTS = sorted({0, 1, 15, 16, 17, 23, 24, 25, 35, 47, 48, 49, 71, 72, 73, 150} | {
    M._SCORE_TILE + extra for extra in (-1, 0, 1)
})


def tile_order_case(n_rows):
    """(cfg, dataset, vocab, params, indices): ``n_rows`` of 150 mixed-length
    rows, in no order."""
    cfg = micro_config(max_len=16, vocab_size=64,
                       attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8))
    d = mixed_length_dataset(150)
    vocab = build_vocab(d)
    params = inflated_micro_params(cfg, factor=5.0)
    indices = np.random.default_rng(n_rows).permutation(len(d))[:n_rows].tolist()
    assert n_rows < 2 or indices != sorted(indices)
    return cfg, d, vocab, params, indices


def sorted_tiles(mask, cfg):
    """(order, bounds): bulk scoring's length-sorted order of the rows and
    its tiles' (start, stop) in that order."""
    order = np.argsort(mask.sum(axis=1), kind="stable")
    return order, M._tile_bounds(mask[order], M._SCORE_TILE * cfg.max_len)


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.integers(0, 16), max_size=80),
    budget=st.integers(1, 200),
)
def test_tile_bounds_cover_the_rows_in_order_within_the_budget(widths, budget):
    """Tiles are contiguous and cover every row once, in order. Each fits
    the budget (count times widest trimmed width, one at least) or is
    one row, and the next row would not fit in it."""
    length = 16
    mask = (np.arange(length) < np.array(widths, dtype=int)[:, None]).astype(np.float64)
    mask[np.random.default_rng(len(widths)).random(mask.shape) < 0.2] = 0.0  # holes
    trimmed = [int(np.flatnonzero(row)[-1]) + 1 if row.any() else 1 for row in mask]
    bounds = M._tile_bounds(mask, budget)
    assert [row for start, stop in bounds for row in range(start, stop)] == list(range(len(widths)))
    for start, stop in bounds:
        assert stop > start
        cost = (stop - start) * max(trimmed[start:stop])
        assert cost <= budget or stop - start == 1
        if stop < len(widths):
            assert (stop + 1 - start) * max(trimmed[start : stop + 1]) > budget


def test_tiles_of_short_rows_hold_more_than_the_full_width_rows(two_cpus):
    """Score-pairs-like rows of 7 to 13 real tokens: ``predict``'s tiles
    hold more than ``_SCORE_TILE`` rows, at most the budget over the
    narrowest row, each within the budget; the scores match the rows'
    own forwards and the serial path's bits."""
    cfg = M.presets("small")
    d = mixed_length_dataset(200, words=(1, 3))
    vocab = build_vocab(d)
    params = M._prepared(M.init_params(cfg, rows=len(vocab)), cfg)
    ids, mask, _ = M._encode_rows(d, range(len(d)), vocab, cfg)
    real = mask.sum(axis=1)
    assert real.min() == 7 and real.max() == 13
    budget = M._SCORE_TILE * cfg.max_len
    tiles = []
    real_forward_batch = M.forward_batch

    def recording(ids, mask, *args, **kwargs):
        tiles.append(mask.sum(axis=1))
        return real_forward_batch(ids, mask, *args, **kwargs)

    with mock.patch.object(M, "forward_batch", recording):
        got = M.predict(d, range(len(d)), params, cfg, vocab)
    assert sum(map(len, tiles)) == len(d)
    assert max(map(len, tiles)) > M._SCORE_TILE
    assert all(len(lengths) * lengths.max() <= budget for lengths in tiles)
    assert max(map(len, tiles)) <= budget // 7
    assert np.array_equal(got, M._batched_scores(ids, mask, params, cfg))
    for row in range(0, len(d), 7):
        seq = TokenSequence(ids=tuple(ids[row].tolist()), attention_mask=tuple(mask[row].astype(int).tolist()))
        assert abs(got[row] - M.forward(seq, params, cfg)) <= 1e-12


def sorted_positions(ids, mask):
    """Each encoded row's position in bulk scoring's length-sorted
    order, keyed by the row's ids. Tiles may be scored on
    two threads in either order, so a recording spy files what it sees
    under the position of its first row; the rows must be distinct."""
    order = np.argsort(mask.sum(axis=1), kind="stable")
    where = {ids[row].tobytes(): position for position, row in enumerate(order)}
    assert len(where) == len(order)
    return where


@pytest.mark.parametrize("n_rows", TILE_ROW_COUNTS)
def test_predict_scores_sorted_tiles_in_the_callers_order(n_rows):
    """Bulk scoring runs length-sorted tiles of ``_tile_bounds``, whatever
    ``batch_size`` is, and each score comes back at its index's
    position, matching that row's own forward."""
    cfg, d, vocab, params, indices = tile_order_case(n_rows)
    ids, mask, _ = M._encode_rows(d, indices, vocab, cfg)
    where = sorted_positions(ids, mask)
    _, bounds = sorted_tiles(mask, cfg)

    tiles = []
    real_tile = M._Tile

    def recording(ids, mask, *args, **kwargs):
        tiles.append((where[ids[0].tobytes()], mask.sum(axis=1)))
        return real_tile(ids, mask, *args, **kwargs)

    with mock.patch.object(M, "_Tile", recording):
        scores = M.predict(d, indices, params, replace(cfg, batch_size=1), vocab)
    assert sorted((start, len(lengths)) for start, lengths in tiles) == [
        (start, stop - start) for start, stop in bounds
    ]
    tiles = [lengths for _, lengths in sorted(tiles, key=lambda tile: tile[0])]
    lengths = np.concatenate(tiles) if tiles else np.empty(0)
    assert np.all(np.diff(lengths) >= 0)  # shortest rows first, across tiles

    assert scores.shape == (n_rows,) and scores.dtype == np.float64
    for score, i in zip(scores, indices):
        rec = d.records[i]
        seq = encode(rec.anchor, rec.target, rec.context, vocab, cfg.max_len)
        assert abs(score - M.forward(seq, params, cfg)) <= 1e-12
    wide = M.predict(d, indices, params, replace(cfg, batch_size=512), vocab)
    assert np.array_equal(scores, wide)


@pytest.mark.parametrize("n_rows", TILE_ROW_COUNTS)
def test_layer_major_groups_score_as_one_tile_at_a_time(n_rows, two_cpus):
    """Bulk scoring, on this thread alone or shared with a helper thread,
    calls ``forward_batch`` once per tile of ``_tile_bounds`` in the
    length-sorted order, each tile once. Every score equals, bit for
    bit, the one its tile gets from a ``forward_batch`` call of its own,
    and a direct ``forward_batch`` of all the sorted rows, which runs
    its tiles layer-major, gives each tile's bits too."""
    cfg, d, vocab, params, indices = tile_order_case(n_rows)
    ids, mask, _ = M._encode_rows(d, indices, vocab, cfg)
    where = sorted_positions(ids, mask)
    order, bounds = sorted_tiles(mask, cfg)
    want = np.empty(n_rows)
    for start, stop in bounds:
        rows = order[start:stop]
        want[rows], _ = M.forward_batch(ids[rows], mask[rows], params, cfg)
    layer_major, _ = M.forward_batch(ids[order], mask[order], params, cfg)
    assert np.array_equal(layer_major, want[order])

    real_forward_batch = M.forward_batch
    tiles = [(start, stop - start) for start, stop in bounds]
    for helper in (False, True):
        calls = []

        def recording(ids, *args, **kwargs):
            calls.append((where[ids[0].tobytes()], len(ids), threading.get_ident()))
            return real_forward_batch(ids, *args, **kwargs)

        with mock.patch.object(M, "forward_batch", recording):
            got = M._batched_scores(ids, mask, params, cfg, helper=helper)
        assert sorted(call[:2] for call in calls) == tiles
        if not helper:
            assert {call[2] for call in calls} <= {threading.get_ident()}
        assert np.array_equal(got, want)


def test_predict_working_set_is_one_tile_not_all_rows():
    """512 full-length small-preset rows asked for as one batch of 512:
    the traced peak stays below the FFN arrays two blocks of the training
    cache would hold for one tile (the bound the batch-256 forward test
    sets per batch), so the peak does not grow with the number of rows,
    and below 4 MB, which two tiles of 32 full-length rows in flight
    reach."""
    cfg = replace(M.presets("small"), batch_size=512)
    d = mixed_length_dataset(512, words=(6, 6))
    vocab = build_vocab(d)
    params = M.init_params(cfg, rows=len(vocab))
    tile_ffn_bytes = 3 * M._SCORE_TILE * cfg.max_len * cfg.ffn_dim * 8
    M.predict(d, range(4), params, cfg, vocab)  # one-time allocations stay out of the trace
    tracemalloc.start()
    try:
        scores = M.predict(d, range(len(d)), params, cfg, vocab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (len(d),)
    assert peak < 2 * tile_ffn_bytes
    assert peak < 4_000_000


def test_predict_working_set_holds_with_both_threads_scoring():
    """The bounds of the test above with the helper thread made to
    score: two tiles in flight stay below them on any host, and on
    one whose BLAS cannot be pinned."""
    cfg = replace(M.presets("small"), batch_size=512)
    d = mixed_length_dataset(512, words=(6, 6))
    vocab = build_vocab(d)
    params = M.init_params(cfg, rows=len(vocab))
    tile_ffn_bytes = 3 * M._SCORE_TILE * cfg.max_len * cfg.ffn_dim * 8
    M.predict(d, range(4), params, cfg, vocab)  # one-time allocations stay out of the trace
    seen = []
    with mock.patch.object(evaluation, "_parallel_cpus", lambda: 2), helper_scores_a_group(seen):
        tracemalloc.start()
        try:
            scores = M.predict(d, range(len(d)), params, cfg, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert scores.shape == (len(d),)
    assert len({thread for thread, _ in seen}) == 2  # both threads scored
    assert peak < 2 * tile_ffn_bytes
    assert peak < 4_000_000


def huge_token_table_checkpoint(path):
    """A saved and reloaded checkpoint whose token table holds +-1e200 in
    alternating signs: finite, so loading accepts it, but the first
    layer norm's variance overflows."""
    cfg = micro_config(max_len=16, vocab_size=64,
                       attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8))
    params = M.init_params(cfg)
    size = params.token_embed.size
    params.token_embed[...] = np.where(np.arange(size) % 2 == 0, 1e200, -1e200).reshape(
        params.token_embed.shape
    )
    return M.load_checkpoint(M.save_checkpoint(params, cfg, path))


def test_library_scoring_of_huge_finite_weights_raises_numeric_overflow(tmp_path):
    params, cfg = huge_token_table_checkpoint(tmp_path / "huge.ckpt")
    d = mixed_length_dataset(8)
    vocab = build_vocab(d)
    rec = d.records[0]
    seq = encode(rec.anchor, rec.target, rec.context, vocab, cfg.max_len)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericOverflow, match="float64 range") as by_forward:
            M.forward(seq, params, cfg)
        with pytest.raises(NumericOverflow, match="float64 range") as by_predict:
            M.predict(d, range(len(d)), params, cfg, vocab)
    assert not caught
    assert "\n" not in str(by_forward.value) and "\n" not in str(by_predict.value)


# ------------------------------------------------- scoring on two threads

@pytest.fixture
def two_cpus(monkeypatch):
    """``predict`` may start its helper thread, whatever CPUs this
    machine has and whether or not its BLAS can be pinned."""
    monkeypatch.setattr(evaluation, "_parallel_cpus", lambda: 2)


@contextlib.contextmanager
def started_threads():
    """The threads started inside, through ``threading.Thread``."""
    started = []
    real_thread = threading.Thread

    class Recording(real_thread):
        def start(self):
            started.append(self)
            super().start()

    with mock.patch.object(threading, "Thread", Recording):
        yield started


@contextlib.contextmanager
def helper_scores_a_group(seen):
    """``forward_batch`` with the calling thread held back until the
    helper thread has taken a tile, so the helper scores one however
    the threads are scheduled; each call appends (thread id, BLAS thread
    count or None) to ``seen``."""
    caller = threading.get_ident()
    helper_in = threading.Event()
    real_forward_batch = M.forward_batch
    blas = evaluation._blas_thread_functions()

    def waiting(*args, **kwargs):
        seen.append((threading.get_ident(), blas and blas[1]()))
        if threading.get_ident() == caller:
            assert helper_in.wait(timeout=60)
        else:
            helper_in.set()
        return real_forward_batch(*args, **kwargs)

    with mock.patch.object(M, "forward_batch", waiting):
        yield


@pytest.mark.parametrize("n_rows", TILE_ROW_COUNTS)
def test_predict_on_two_threads_is_bit_equal_to_the_serial_path(n_rows, two_cpus):
    cfg, d, vocab, params, indices = tile_order_case(n_rows)
    ids, mask, _ = M._encode_rows(d, indices, vocab, cfg)
    _, bounds = sorted_tiles(mask, cfg)
    with started_threads() as started:
        got = M.predict(d, indices, params, cfg, vocab)
    assert len(started) == (1 if len(bounds) > 1 else 0)
    assert np.array_equal(got, M._batched_scores(ids, mask, params, cfg))


def test_golden_rows_keep_their_bits_on_two_threads(two_cpus):
    golden = json.loads(GOLDEN_ROWS.read_text(encoding="utf-8"))
    cfg = replace(M.presets(golden["preset"]), seed=golden["seed"])
    ids = np.array(golden["ids"])
    mask = (np.arange(cfg.max_len) < np.array(golden["lengths"])[:, None]).astype(np.float64)
    copies = 12  # 72 rows, three tiles, the first of 40 rows
    assert len(ids) * copies > 2 * M._SCORE_TILE
    with started_threads() as started:
        got = M._batched_scores(
            np.tile(ids, (copies, 1)), np.tile(mask, (copies, 1)), M.init_params(cfg), cfg, helper=True
        )
    assert len(started) == 1
    assert [float(s).hex() for s in got] == golden["row_scores"] * copies


def test_huge_finite_weights_raise_numeric_overflow_on_the_helper_thread_too(tmp_path, two_cpus):
    """NumPy's error state does not pass to a new thread: the helper
    traps overflow itself, so its tile raises instead of warning and
    scoring infinities."""
    params, cfg = huge_token_table_checkpoint(tmp_path / "huge.ckpt")
    d = mixed_length_dataset(3 * M._SCORE_TILE + 1)
    vocab = build_vocab(d)
    seen = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with helper_scores_a_group(seen), pytest.raises(NumericOverflow) as excinfo:
            M.predict(d, range(len(d)), params, cfg, vocab)
    assert any(thread != threading.get_ident() for thread, _ in seen)  # the helper scored
    assert not caught
    message = str(excinfo.value)
    assert message.startswith("scoring left the float64 range (") and "\n" not in message
    assert message.endswith("); the weights are too large")


@pytest.mark.parametrize("raised", [ShapeMismatch("stand-in failure"), KeyboardInterrupt()])
def test_the_first_error_of_either_thread_propagates_and_stops_the_other(raised, two_cpus):
    """The first call raises (a KeyboardInterrupt in the caller, an
    error in whichever thread scores first): it propagates as it was,
    the other thread scores at most the tile it is on, and no thread
    is left running."""
    cfg, d, vocab, params, indices = tile_order_case(150)  # five tiles
    caller = threading.get_ident()
    calls = []
    raised_at = []
    real_forward_batch = M.forward_batch

    def failing_first(*args, **kwargs):
        calls.append(threading.get_ident())
        on_caller = isinstance(raised, KeyboardInterrupt)
        if not raised_at and (threading.get_ident() == caller or not on_caller):
            raised_at.append(len(calls))
            raise raised
        return real_forward_batch(*args, **kwargs)

    before = threading.active_count()
    with mock.patch.object(M, "forward_batch", failing_first), pytest.raises(type(raised)) as excinfo:
        M.predict(d, indices, params, cfg, vocab)
    assert excinfo.value is raised
    # the failing call, then at most the other thread's tile in flight
    assert len(calls) <= raised_at[0] + 1
    assert threading.active_count() == before


def test_a_ctrl_c_inside_thread_start_still_waits_for_the_helper(two_cpus):
    """A Ctrl-C can land in ``Thread.start`` after the thread is launched
    but before it is marked started, when ``is_alive`` reads False: the
    Ctrl-C propagates, the helper scores at most the tile it took, and
    it is joined before ``predict`` raises."""
    cfg, d, vocab, params, indices = tile_order_case(150)  # five tiles
    caller = threading.get_ident()
    helper_calls = []
    real_forward_batch = M.forward_batch
    real_thread = threading.Thread
    interrupt = KeyboardInterrupt()

    class InterruptedStart(real_thread):
        def start(self):
            super().start()
            raise interrupt

        def is_alive(self):
            return False

    def slow_on_the_helper(*args, **kwargs):
        assert threading.get_ident() != caller  # the caller scores nothing
        helper_calls.append(1)
        time.sleep(0.05)
        return real_forward_batch(*args, **kwargs)

    before = threading.active_count()
    with mock.patch.object(threading, "Thread", InterruptedStart), \
            mock.patch.object(M, "forward_batch", slow_on_the_helper), \
            pytest.raises(KeyboardInterrupt) as excinfo:
        M.predict(d, indices, params, cfg, vocab)
    assert excinfo.value is interrupt
    assert threading.active_count() == before
    assert len(helper_calls) <= 1
    time.sleep(0.1)
    assert len(helper_calls) <= 1  # nothing ran on after the call


def test_two_overlapping_predict_calls_keep_their_bits_and_the_blas_count(two_cpus):
    """Two threads run ``predict`` at once, both past their BLAS pin
    before either scores: each scores what it scores alone, and the BLAS
    thread count is back afterwards whichever call ends first."""
    functions = evaluation._blas_thread_functions()
    cfg, d, vocab, params, indices = tile_order_case(150)  # five tiles
    want = M.predict(d, indices, params, cfg, vocab)
    both_pinned = threading.Barrier(2)
    real_score_on_two_threads = M._score_on_two_threads

    def meeting(*args, **kwargs):
        both_pinned.wait(timeout=60)
        return real_score_on_two_threads(*args, **kwargs)

    got = [None, None]

    def call(slot):
        got[slot] = M.predict(d, indices, params, cfg, vocab)

    before = functions[1]() if functions else None
    if functions:
        functions[0](2)  # a count the pin changes
    try:
        expected = functions[1]() if functions else None
        threads = [threading.Thread(target=call, args=(slot,)) for slot in (0, 1)]
        with mock.patch.object(M, "_score_on_two_threads", meeting):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        if functions:
            assert functions[1]() == expected
    finally:
        if functions:
            functions[0](before)
    assert all(np.array_equal(scores, want) for scores in got)


def test_only_predict_of_two_tiles_or_more_starts_a_thread(monkeypatch, two_cpus):
    cfg, d, vocab, params, indices = tile_order_case(150)
    rec = d.records[indices[0]]
    seq = encode(rec.anchor, rec.target, rec.context, vocab, cfg.max_len)
    tile = M._SCORE_TILE
    before = threading.active_count()
    with started_threads() as started:
        M.forward(seq, params, cfg)
        # a validation side of three tiles still scores on this thread
        M.train(d, (indices[: 150 - 3 * tile], indices[150 - 3 * tile :]), replace(cfg, epochs=1))
        M.predict(d, indices[:tile], params, cfg, vocab)
        monkeypatch.setattr(evaluation, "_parallel_cpus", lambda: 1)
        M.predict(d, indices, params, cfg, vocab)
    assert started == []
    monkeypatch.setattr(evaluation, "_parallel_cpus", lambda: 2)
    with started_threads() as started:
        M.predict(d, indices, params, cfg, vocab)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


def test_each_group_is_scored_once_under_rapid_thread_switching(two_cpus):
    """The shared cursor hands every tile to exactly one thread, even
    when the interpreter switches threads at every chance."""
    cfg, d, vocab, params, indices = tile_order_case(150)  # five tiles
    ids, mask, _ = M._encode_rows(d, indices, vocab, cfg)
    where = sorted_positions(ids, mask)
    _, bounds = sorted_tiles(mask, cfg)
    want = M._batched_scores(ids, mask, params, cfg)
    real_forward_batch = M.forward_batch
    calls = []

    def recording(ids, *args, **kwargs):
        calls.append(where[ids[0].tobytes()])
        return real_forward_batch(ids, *args, **kwargs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(M, "forward_batch", recording):
            for _ in range(20):
                calls.clear()
                got = M._batched_scores(ids, mask, params, cfg, helper=True)
                assert sorted(calls) == [start for start, _ in bounds]
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_scoring_threads_run_one_blas_thread(two_cpus):
    functions = evaluation._blas_thread_functions()
    if functions is None:
        pytest.skip("NumPy's BLAS exports no OpenBLAS thread setter and getter")
    setter, getter = functions
    before = getter()
    setter(2)
    try:
        if getter() != 2:
            pytest.skip("this OpenBLAS cannot run two threads")
        cfg, d, vocab, params, indices = tile_order_case(150)
        seen = []
        with helper_scores_a_group(seen):
            M.predict(d, indices, params, cfg, vocab)
        assert any(thread != threading.get_ident() for thread, _ in seen)  # the helper scored
        assert {count for _, count in seen} == {1}
        assert getter() == 2
    finally:
        setter(before)


# ---------------------------------------------------------------- training

def test_training_loss_converges_on_constant_gold():
    d = make_dataset(
        [(f"r{i}", "gear pump", "valve seat", "c07", 0.5) for i in range(8)]
    )
    cfg = M.ModelConfig(
        layers=1,
        ffn_dim=16,
        vocab_size=64,
        max_len=8,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=4),
        dropout_rate=0.0,
        seed=2,
        epochs=200,
        batch_size=4,
    )
    params, trace = M.train(d, ([0, 1, 2, 3, 4, 5], [6, 7]), cfg)
    assert len(trace.step_losses) <= 200 * trace.steps_per_epoch
    assert min(trace.step_losses[:200]) < 1e-3


def test_zero_learning_rate_keeps_params_bit_identical():
    d = overlap_dataset(n_pairs=8, n_extra=2)
    cfg = micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        learning_rate=0.0,
        epochs=2,
        batch_size=4,
        dropout_rate=0.1,
    )
    params, trace = M.train(d, (list(range(8)), [8, 9]), cfg)
    fresh = M.init_params(cfg, rows=params.token_embed.shape[0])
    for (name, got), (_, want) in zip(params.named_arrays(), fresh.named_arrays()):
        assert np.array_equal(got, want), name
    # loss trace constant per repeated pass over identical parameters
    assert len(set(trace.val_losses)) == 1


def test_training_sizes_the_token_table_and_adam_slots_to_the_vocabulary(tmp_path, monkeypatch):
    made = []

    class RecordingAdam(M.AdamState):
        def __init__(self, cfg, params):
            super().__init__(cfg, params)
            made.append(self)

    monkeypatch.setattr(M, "AdamState", RecordingAdam)
    d = overlap_dataset(n_pairs=8, n_extra=2)
    cfg = micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        epochs=1,
        batch_size=4,
    )
    outcome = M.model_fold_trainer(d, list(range(8)), [8, 9], cfg)
    params, rows = outcome.extras["params"], len(outcome.extras["vocab"])
    assert rows < cfg.vocab_size
    assert params.token_embed.shape == (rows, cfg.d_model)
    (opt,) = made
    assert opt.m.shape == opt.v.shape == opt._scratch.shape == params.flat.shape
    # Adam stepped the buffer in place, and the arrays still view it
    assert_flat_layout(params, cfg, rows)
    assert not np.array_equal(params.flat, M.init_params(cfg, rows=rows).flat)

    path = M.save_checkpoint(params, cfg, tmp_path / "fold.ckpt")
    loaded, loaded_cfg = M.load_checkpoint(path)
    assert loaded_cfg == replace(cfg, vocab_size=rows)
    assert np.array_equal(loaded.flat, params.flat)
    assert_flat_layout(loaded, loaded_cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["fold.ckpt"]


def test_training_is_deterministic_across_runs():
    d = overlap_dataset(n_pairs=8, n_extra=2)
    cfg = micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        epochs=3,
        batch_size=4,
        dropout_rate=0.1,
        seed=5,
    )
    split = (list(range(8)), [8, 9])
    p1, t1 = M.train(d, split, cfg)
    p2, t2 = M.train(d, split, cfg)
    assert t1.step_losses == t2.step_losses
    assert t1.val_losses == t2.val_losses
    for (name, a), (_, b) in zip(p1.named_arrays(), p2.named_arrays()):
        assert np.array_equal(a, b), name


def test_train_rejects_bad_splits():
    d = overlap_dataset(n_pairs=4, n_extra=1)
    cfg = micro_config(max_len=16, vocab_size=64,
                       attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8))
    with pytest.raises(EmptySplit):
        M.train(d, ([], [0]), cfg)
    with pytest.raises(EmptySplit):
        M.train(d, ([0, 1], []), cfg)
    with pytest.raises(EmptySplit):
        M.train(d, ([0, 1], [1, 2]), cfg)


def divergent_config(batch_size):
    return micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        learning_rate=1e150,
        epochs=4,
        batch_size=batch_size,
    )


def test_divergent_training_raises_non_finite_loss():
    """Two steps per epoch: the first step's update blows the weights
    up, and the second step's loss is refused before any validation."""
    d = overlap_dataset(n_pairs=8, n_extra=2)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss, match="^step 1: loss is nan$"):
            M.train(d, (list(range(8)), [8, 9]), divergent_config(batch_size=4))


def test_a_validation_pass_that_leaves_the_float64_range_raises_numeric_overflow():
    """One step per epoch: the first validation pass scores the blown-up
    weights, and is trapped like every eval-mode score instead of
    recording non-finite validation scores."""
    d = overlap_dataset(n_pairs=8, n_extra=2)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericOverflow, match="^scoring left the float64 range"):
            M.train(d, (list(range(8)), [8, 9]), divergent_config(batch_size=8))


@pytest.mark.parametrize("poison", [math.nan, math.inf])
def test_non_finite_gradient_norm_raises_naming_the_step(poison, monkeypatch):
    """A finite loss with a non-finite gradient must stop training
    before the optimizer spreads it into the parameters."""
    d = overlap_dataset(n_pairs=8, n_extra=2)
    cfg = micro_config(
        max_len=16,
        vocab_size=64,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
        epochs=2,
        batch_size=4,
    )
    real = M.loss_and_grads
    steps = []

    def poisoned(*args, **kwargs):
        loss, grads, score = real(*args, **kwargs)
        steps.append(loss)
        if len(steps) == 4:  # the last of 2 epochs x 2 steps
            grads.layers[0].w1[0, 0] = poison
        return loss, grads, score

    monkeypatch.setattr(M, "loss_and_grads", poisoned)
    with pytest.raises(NonFiniteLoss, match=r"^step 3: gradient norm is (nan|inf)$"):
        M.train(d, (list(range(8)), [8, 9]), cfg)
    assert all(math.isfinite(loss) for loss in steps)


def test_capacity_separation_on_overfit_task():
    """The deeper preset must overfit the synthetic pairs faster than a
    one-layer thin model at the same step budget (3-seed median)."""
    d = overlap_dataset()
    split = (list(range(32)), [32, 33, 34, 35])
    small_losses, tiny_losses = [], []
    for seed in (0, 1, 2):
        small = replace(M.presets("small"), epochs=30, seed=seed)
        tiny = M.ModelConfig(
            layers=1,
            ffn_dim=32,
            vocab_size=8192,
            max_len=16,
            attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
            seed=seed,
            epochs=30,
        )
        _, trace_s = M.train(d, split, small)
        _, trace_t = M.train(d, split, tiny)
        small_losses.append(trace_s.epoch_train_losses()[-1])
        tiny_losses.append(trace_t.epoch_train_losses()[-1])
    assert sorted(small_losses)[1] < sorted(tiny_losses)[1]


# ----------------------------------------------------------------- presets

def test_preset_shapes():
    base = M.presets("base")
    small = M.presets("small")
    xsmall = M.presets("xsmall")
    assert (base.layers, base.d_model, base.n_heads, base.ffn_dim) == (12, 64, 4, 256)
    assert small.layers == 6 and small.d_model == base.d_model
    assert xsmall.layers == base.layers and xsmall.d_model == base.d_model // 2
    for cfg in (base, small, xsmall):
        assert cfg.vocab_size == 8192
        assert cfg.max_len == 16
        assert cfg.attention.max_rel_distance == cfg.max_len // 2
        assert cfg.dropout_rate == 0.1
        assert cfg.epochs == 5
        assert cfg.batch_size == 16


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        M.presets("giant")


# -------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = micro_config(layers=2)
    params = M.init_params(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = M.load_checkpoint(path)
    assert loaded_cfg == cfg
    for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
        assert np.array_equal(a, b), name
    for lay in loaded.layers:
        assert lay.attn.rel_embed is loaded.rel_embed


def test_loaded_arrays_are_read_only_and_round_trip_byte_for_byte(tmp_path):
    """Loaded weights carry relative terms built from them, so an
    in-place edit would serve stale scores: every array refuses it."""
    cfg = micro_config(layers=2)
    path = M.save_checkpoint(M.init_params(cfg), cfg, tmp_path / "model.ckpt")
    loaded, loaded_cfg = M.load_checkpoint(path)
    for name, arr in loaded.named_arrays():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
    for terms in loaded.relative:
        with pytest.raises(ValueError, match="read-only"):
            terms.qr[...] = 0.0
    assert all(lay.attn.rel_embed is loaded.rel_embed for lay in loaded.layers)
    again = M.save_checkpoint(loaded, loaded_cfg, tmp_path / "again.ckpt")
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_with_huge_relative_table_is_refused(tmp_path):
    """Finite weights whose relative terms overflow float64 are refused
    at load, before any score is computed from infinities."""
    cfg = micro_config()
    params = M.init_params(cfg)
    params.rel_embed[...] = 1e200
    path = M.save_checkpoint(params, cfg, tmp_path / "huge.ckpt")
    with pytest.raises(NumericOverflow, match="float64 range"):
        M.load_checkpoint(path)


def test_checkpoint_save_is_deterministic(tmp_path):
    cfg = micro_config()
    params = M.init_params(cfg)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    M.save_checkpoint(params, cfg, a)
    M.save_checkpoint(params, cfg, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTTHEMAGIC" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        M.load_checkpoint(path)
    short = tmp_path / "short.ckpt"
    short.write_bytes(b"SS")
    with pytest.raises(BadMagic):
        M.load_checkpoint(short)


def test_checkpoint_truncation_detected(tmp_path):
    cfg = micro_config()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(M.init_params(cfg), cfg, path)
    raw = path.read_bytes()
    for cut in (len(raw) // 3, len(raw) - 5):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(raw[:cut])
        with pytest.raises((BadMagic, ShapeMismatch)):
            M.load_checkpoint(clipped)


def test_checkpoint_trailing_bytes_detected(tmp_path):
    cfg = micro_config()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(M.init_params(cfg), cfg, path)
    bloated = tmp_path / "bloat.ckpt"
    bloated.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ShapeMismatch):
        M.load_checkpoint(bloated)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["first", "last"])
def test_checkpoint_with_non_finite_weight_is_rejected(tmp_path, bad, where):
    cfg = micro_config()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(M.init_params(cfg), cfg, path)
    raw = bytearray(path.read_bytes())
    n_params = sum(arr.size for _, arr in M.init_params(cfg).named_arrays())
    at = len(raw) - 8 * n_params if where == "first" else len(raw) - 8
    raw[at : at + 8] = struct.pack("<d", bad)
    path.write_bytes(bytes(raw))
    name = "token_embed" if where == "first" else "out_b"
    with pytest.raises(NonFiniteWeights, match=name):
        M.load_checkpoint(path)


def rewrite_config_block(path: Path, field: str, value) -> bytes:
    """Set one config-block field of a checkpoint file in place, keeping
    the JSON form ``save_checkpoint`` writes; returns the new block."""
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, len(M.MAGIC))
    start = len(M.MAGIC) + 4
    blob = json.loads(raw[start : start + blob_len])
    *outer, leaf = field.split(".")
    holder = blob[outer[0]] if outer else blob
    holder[leaf] = value
    new = json.dumps(blob, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[: len(M.MAGIC)] + struct.pack("<I", len(new)) + new + raw[start + blob_len :])
    return new


@pytest.mark.parametrize("field", ["layers", "ffn_dim", "max_len", "attention.d_model"])
def test_checkpoint_config_with_a_non_integer_count_is_rejected(tmp_path, field):
    cfg = micro_config()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(M.init_params(cfg), cfg, path)
    leaf = field.rsplit(".", 1)[-1]
    count = functools.reduce(getattr, field.split("."), cfg)
    rewrite_config_block(path, field, float(count))  # 2 -> 2.0, still valid JSON
    with pytest.raises(ShapeMismatch, match=rf"unreadable config block: {leaf} must be"):
        M.load_checkpoint(path)


def test_missing_checkpoint_is_io_error(tmp_path):
    from phraselab.errors import IoError

    with pytest.raises(IoError):
        M.load_checkpoint(tmp_path / "absent.ckpt")


GOLDEN_SEED7_SMALL_SCORE = 0.4998889379563953
# the whole checkpoint, since the score reads only token rows 2-17
GOLDEN_SEED7_SMALL_CKPT_SHA256 = "ee4fdc89830d94d97954a3c8be80378c0faaf5d25089a189824126d22a5f6137"


def test_frozen_forward_score_from_seeded_checkpoint(tmp_path):
    """Initialization, serialization, and the forward pass must stay
    frozen: the score of a fixed input under the seed-7 small preset,
    routed through a checkpoint round trip, is pinned to the last bit."""
    cfg = replace(M.presets("small"), seed=7)
    params = M.init_params(cfg)
    path = tmp_path / "seed7.ckpt"
    M.save_checkpoint(params, cfg, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SEED7_SMALL_CKPT_SHA256
    loaded, loaded_cfg = M.load_checkpoint(path)
    ids = tuple(range(2, 18))
    mask = tuple([1] * 10 + [0] * 6)
    score = M.forward(TokenSequence(ids=ids, attention_mask=mask), loaded, loaded_cfg)
    assert score == GOLDEN_SEED7_SMALL_SCORE
