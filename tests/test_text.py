import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraselab.errors import ConfigError, EmptyDataset, MaxLenTooSmall, ValidationError
from phraselab.text import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    build_vocab,
    encode,
    load_vocab,
    save_vocab,
    tokenize,
)

from conftest import make_dataset


def small_vocab():
    d = make_dataset(
        [
            ("r1", "gear pump", "gear valve", "c07", 0.5),
            ("r2", "rotor", "rotor shaft pump", "c07", 0.5),
        ]
    )
    return build_vocab(d, min_freq=1, max_size=100)


def test_special_ids_are_fixed():
    v = small_vocab()
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)
    assert v.id_to_token[:4] == SPECIAL_TOKENS
    assert v.token_to_id["[PAD]"] == 0


def test_vocab_ordering_count_then_lexicographic():
    v = small_vocab()
    # counts: c07 2, gear 2, pump 2, rotor 2, shaft 1, valve 1
    assert list(v.id_to_token[4:]) == ["c07", "gear", "pump", "rotor", "shaft", "valve"]


def test_vocab_min_freq_filters():
    d = make_dataset([("r1", "gear gear", "pump", "c07", 0.5)])
    v = build_vocab(d, min_freq=2, max_size=100)
    assert "gear" in v.token_to_id
    assert "pump" not in v.token_to_id


def test_vocab_max_size_caps():
    d = make_dataset([("r1", "a b c d e", "f g", "h", 0.5)])
    v = build_vocab(d, min_freq=1, max_size=3)
    assert len(v) == 7  # 4 specials + 3 kept


def test_vocab_empty_dataset():
    with pytest.raises(EmptyDataset):
        build_vocab(make_dataset([]))


def test_vocab_bad_knobs():
    d = make_dataset([("r1", "a", "b", "c", 0.5)])
    with pytest.raises(ConfigError):
        build_vocab(d, min_freq=0)
    with pytest.raises(ConfigError):
        build_vocab(d, max_size=0)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Gear  PUMP\tvalve") == ["gear", "pump", "valve"]
    assert tokenize("   ") == []


def test_encode_layout():
    v = small_vocab()
    seq = encode("gear pump", "rotor", "c07", v, max_len=10)
    g, p, r, c = (v.token_to_id[t] for t in ("gear", "pump", "rotor", "c07"))
    assert seq.ids == (CLS_ID, g, p, SEP_ID, r, SEP_ID, c, SEP_ID, PAD_ID, PAD_ID)
    assert seq.attention_mask == (1, 1, 1, 1, 1, 1, 1, 1, 0, 0)


def test_encode_unknown_words_map_to_unk():
    v = small_vocab()
    seq = encode("flux capacitor", "gear", "c07", v, max_len=10)
    assert seq.ids[1] == UNK_ID
    assert seq.ids[2] == UNK_ID


def test_encode_anchor_context_layout():
    v = small_vocab()
    seq = encode("gear", "rotor", "c07", v, max_len=8, layout="anchor_context")
    g, c = v.token_to_id["gear"], v.token_to_id["c07"]
    assert seq.ids == (CLS_ID, g, SEP_ID, c, SEP_ID, PAD_ID, PAD_ID, PAD_ID)
    # the target segment is absent: exactly two separators
    assert seq.ids.count(SEP_ID) == 2


def test_encode_unknown_layout():
    with pytest.raises(ConfigError):
        encode("a", "b", "c", small_vocab(), 10, layout="target_first")


def test_encode_max_len_floor():
    with pytest.raises(MaxLenTooSmall):
        encode("a", "b", "c", small_vocab(), 6)


def test_truncation_trims_longest_segment_first():
    v = small_vocab()
    # budget at max_len=8 with 3 segments is 4 content tokens
    seq = encode("gear pump rotor shaft", "valve", "c07", v, max_len=8)
    # anchor sheds tokens until the total fits: anchor keeps 2, others 1
    assert seq.ids.count(SEP_ID) == 3
    assert seq.ids[0] == CLS_ID
    assert seq.attention_mask == (1,) * 8
    toks = [v.id_to_token[i] for i in seq.ids]
    assert toks[:3] == ["[CLS]", "gear", "pump"]
    assert "valve" in toks and "c07" in toks


def test_truncation_arithmetic_oracle():
    """Segment lengths after trimming match a direct simulation."""
    v = small_vocab()
    cases = [
        ((5, 1, 1), 10, (4, 1, 1)),
        ((5, 5, 1), 10, (2, 3, 1)),
        ((1, 1, 1), 7, (1, 1, 1)),
        ((9, 0, 0), 7, (3, 0, 0)),
    ]
    for (na, nt, nc), max_len, expected in cases:
        anchor = " ".join(["gear"] * na)
        target = " ".join(["pump"] * nt)
        context = " ".join(["c07"] * nc)
        seq = encode(anchor, target, context, v, max_len)
        ids = list(seq.ids)
        # recover segment sizes from separator positions
        seps = [i for i, t in enumerate(ids) if t == SEP_ID]
        sizes = (seps[0] - 1, seps[1] - seps[0] - 1, seps[2] - seps[1] - 1)
        assert sizes == expected, (na, nt, nc, max_len)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(["gear", "pump", "rotor", "zzz"]), min_size=0, max_size=12),
    st.lists(st.sampled_from(["valve", "shaft", "qqq"]), min_size=0, max_size=12),
    st.integers(min_value=7, max_value=24),
)
def test_encode_properties(aw, tw, max_len):
    v = small_vocab()
    seq = encode(" ".join(aw), " ".join(tw), "c07", v, max_len)
    assert len(seq.ids) == max_len
    assert len(seq.attention_mask) == max_len
    assert seq.ids[0] == CLS_ID
    assert seq.ids.count(SEP_ID) == 3
    # mask is 1 exactly on the non-PAD prefix
    real = sum(seq.attention_mask)
    assert all(m == 1 for m in seq.attention_mask[:real])
    assert all(i == PAD_ID for i in seq.ids[real:])
    # deterministic
    assert encode(" ".join(aw), " ".join(tw), "c07", v, max_len) == seq


def test_decode_round_trip_untruncated():
    v = small_vocab()
    seq = encode("gear pump", "rotor", "c07", v, max_len=12)
    toks = [v.id_to_token[i] for i in seq.ids]
    assert toks[:8] == ["[CLS]", "gear", "pump", "[SEP]", "rotor", "[SEP]", "c07", "[SEP]"]


def test_vocab_save_load_round_trip(tmp_path):
    v = small_vocab()
    p = tmp_path / "vocab.txt"
    save_vocab(v, p)
    w = load_vocab(p)
    assert w == v


def test_vocab_load_rejects_bad_specials(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("[PAD]\n[UNK]\nwrong\n[SEP]\ngear\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_vocab(p)


def test_vocab_load_rejects_invalid_utf8(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_bytes(b"[PAD]\n[UNK]\n[CLS]\n[SEP]\ng\xffar\n")
    with pytest.raises(ValidationError, match=r"vocab\.txt: not valid UTF-8 \(byte 0xff"):
        load_vocab(p)
