"""Byte-mutation fuzzing of the three loaders through the CLI.

A small checkpoint, its vocabulary file and a CSV are damaged by
flipping, truncating or inserting bytes, then ``score``, ``eda``,
``baseline`` and ``crossval`` run through ``cli.main``. Whatever the
damage, the command must end in a documented exit code (0 success,
1 I/O, 2 validation, 3 numeric) with nothing on stderr but a one-line
error on failure, never an escaping exception, a warning or a ``nan``
score.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phraselab import cli, model
from phraselab.attention import AttentionConfig
from phraselab.text import build_vocab, save_vocab

from conftest import overlap_dataset, write_csv

FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# (kind, position as a fraction of the file or of its head, bit or byte)
MUTATION = st.tuples(
    st.sampled_from(["flip", "truncate", "insert"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, 255),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=3)


def mutate(raw: bytes, mutations, head: int) -> bytes:
    """Apply the mutations in order; positions fall in the first
    ``head`` bytes when ``head`` is positive, else anywhere."""
    data = bytearray(raw)
    for kind, where, value in mutations:
        span = min(head, len(data)) if head else len(data)
        at = int(where * max(span, 1))
        if kind == "flip" and data:
            data[min(at, len(data) - 1)] ^= 1 << (value % 8)
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data.insert(at, value)
    return bytes(data)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    d = overlap_dataset(n_pairs=6, n_extra=0)
    cfg = model.ModelConfig(
        layers=1,
        ffn_dim=8,
        vocab_size=64,
        max_len=16,
        attention=AttentionConfig(d_model=8, n_heads=2, max_rel_distance=8),
    )
    vocab = build_vocab(d)
    ckpt = model.save_checkpoint(model.init_params(cfg, rows=len(vocab)), cfg, tmp / "good.ckpt")
    save_vocab(vocab, Path(f"{ckpt}.vocab.txt"))
    rows = [(r.id, r.anchor, r.target, r.context, r.score) for r in d]
    csv = write_csv(tmp / "good.csv", rows)
    config_end = len(model.MAGIC) + 4 + int.from_bytes(ckpt.read_bytes()[5:9], "little")
    return tmp, ckpt, csv, config_end


def run_and_check(argv, capsys) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    # a command-line run prints its warnings to stderr, where pytest
    # would record them instead, so they count as stderr lines here
    err = captured.err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code in (0, 1, 2, 3)
    assert "nan" not in captured.out.lower()
    if code:
        assert captured.out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
        if argv[0] == "score":
            assert 0.0 <= float(captured.out) <= 1.0
    return code


CROSSVAL = ["crossval", "--preset", "xsmall", "--k", "2", "--epochs", "1"]


def score_argv(ckpt: Path) -> list:
    return ["score", "--checkpoint", ckpt, "--anchor", "alpha beta", "--target", "beta gamma",
            "--context", "ctx00"]


@FUZZ
@given(mutations=MUTATIONS, in_config=st.booleans())
def test_damaged_checkpoint_exits_cleanly(fixtures, capsys, mutations, in_config):
    tmp, good, _, config_end = fixtures
    ckpt = tmp / "bad.ckpt"
    ckpt.write_bytes(mutate(good.read_bytes(), mutations, config_end if in_config else 0))
    Path(f"{ckpt}.vocab.txt").write_bytes(Path(f"{good}.vocab.txt").read_bytes())
    run_and_check(score_argv(ckpt), capsys)


@FUZZ
@given(mutations=MUTATIONS)
def test_damaged_vocabulary_exits_cleanly(fixtures, capsys, mutations):
    tmp, good, _, _ = fixtures
    ckpt = tmp / "vocab.ckpt"
    ckpt.write_bytes(good.read_bytes())
    vocab = Path(f"{good}.vocab.txt").read_bytes()
    Path(f"{ckpt}.vocab.txt").write_bytes(mutate(vocab, mutations, 0))
    run_and_check(score_argv(ckpt), capsys)


@FUZZ
@given(mutations=MUTATIONS)
def test_damaged_csv_exits_cleanly(fixtures, capsys, mutations):
    tmp, _, good, _ = fixtures
    data = tmp / "bad.csv"
    data.write_bytes(mutate(good.read_bytes(), mutations, 0))
    run_and_check(["eda", "--data", data, "--out", tmp / "eda"], capsys)
    run_and_check(["baseline", "--data", data, "--out", tmp / "baseline"], capsys)


# each undamaged-enough case trains a fold per k, so keep it to a few
@settings(FUZZ, max_examples=20)
@given(mutations=MUTATIONS)
def test_damaged_csv_crossval_exits_cleanly(fixtures, capsys, mutations):
    tmp, _, good, _ = fixtures
    data = tmp / "bad_cv.csv"
    data.write_bytes(mutate(good.read_bytes(), mutations, 0))
    run_and_check(CROSSVAL + ["--data", data, "--out", tmp / "cv"], capsys)


def test_undamaged_inputs_score_and_summarize(fixtures, capsys):
    tmp, good, csv, _ = fixtures
    assert run_and_check(score_argv(good), capsys) == 0
    assert run_and_check(["eda", "--data", csv, "--out", tmp / "eda_ok"], capsys) == 0
    assert run_and_check(["baseline", "--data", csv, "--out", tmp / "baseline_ok"], capsys) == 0
    assert run_and_check(CROSSVAL + ["--data", csv, "--out", tmp / "cv_ok"], capsys) == 0
