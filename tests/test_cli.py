"""End-to-end tests for the command-line interface.

Every command is driven through ``cli.main`` with real files under a
temporary directory, and exit codes, artifacts, and manifests are
checked against the documented contract: 0 success, 1 I/O failure,
2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from phraselab import cli, evaluation, model, reporting
from phraselab.errors import NonFiniteLoss
from phraselab.text import SPECIAL_TOKENS, encode, load_vocab

from conftest import write_csv
from test_model import rewrite_config_block

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "run.json").read_text(encoding="utf-8"))


def crossval_csv(tmp_path: Path) -> Path:
    words = [
        "one", "two", "three", "four", "five", "six",
        "seven", "eight", "nine", "ten", "eleven", "twelve",
    ]
    rows = [
        (f"r{i:02d}", f"anchor {w}", f"target {w} extra", f"ctx{i}", round(i / 11, 6))
        for i, w in enumerate(words)
    ]
    return write_csv(tmp_path / "cv.csv", rows)


# ---------------------------------------------------------------- manifests


def test_eda_happy_path_writes_artifacts_and_manifest(tiny_csv, tmp_path):
    out = tmp_path / "eda"
    assert run_cli("eda", "--data", tiny_csv, "--out", out) == 0

    summary = json.loads((out / "eda_summary.json").read_text(encoding="utf-8"))
    assert summary["record_count"] == 3

    manifest = read_manifest(out)
    assert manifest["command"] == "eda"
    assert manifest["seed"] is None
    assert manifest["wall_clock_seconds"] >= 0.0
    assert manifest["inputs"] == {str(tiny_csv): reporting.sha256_of(tiny_csv)}
    # the manifest never lists itself, and every listed hash must be live
    assert "run.json" not in manifest["outputs"]
    assert "eda_summary.json" in manifest["outputs"]
    for rel, digest in manifest["outputs"].items():
        assert reporting.sha256_of(out / rel) == digest


def test_eda_rerun_is_byte_identical(tiny_csv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("eda", "--data", tiny_csv, "--out", out1) == 0
    assert run_cli("eda", "--data", tiny_csv, "--out", out2) == 0
    m1, m2 = read_manifest(out1), read_manifest(out2)
    assert m1["outputs"] == m2["outputs"]
    for rel in m1["outputs"]:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_eda_missing_column_exits_2(tmp_path, capsys):
    bad = write_csv(
        tmp_path / "bad.csv",
        [("r1", "a", "b", 0.5)],
        header="id,anchor,target,score",
    )
    assert run_cli("eda", "--data", bad, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eda_missing_input_file_exits_1(tmp_path, capsys):
    assert run_cli("eda", "--data", tmp_path / "nope.csv", "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- baseline


def test_baseline_reports_pearson_on_varied_gold(tiny_csv, tmp_path):
    out = tmp_path / "base"
    assert run_cli("baseline", "--data", tiny_csv, "--out", out) == 0

    report = json.loads((out / "baseline_report.json").read_text(encoding="utf-8"))
    assert report["record_count"] == 3
    assert isinstance(report["pearson"], float)
    assert report["pearson_error"] is None

    hist = (out / "hist_levenshtein.csv").read_text(encoding="utf-8").splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert len(hist) == 11  # ten unit-interval bins
    assert read_manifest(out)["command"] == "baseline"


def test_baseline_constant_gold_still_exits_0(tmp_path):
    data = write_csv(
        tmp_path / "const.csv",
        [
            ("r1", "alpha", "beta", "c", 0.5),
            ("r2", "gamma", "delta", "c", 0.5),
            ("r3", "epsilon", "zeta", "c", 0.5),
        ],
    )
    out = tmp_path / "base"
    assert run_cli("baseline", "--data", data, "--out", out) == 0
    report = json.loads((out / "baseline_report.json").read_text(encoding="utf-8"))
    # correlation undefined on a constant column: null plus a reason
    assert report["pearson"] is None
    assert "constant" in report["pearson_error"]


def test_baseline_empty_dataset_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("id,anchor,target,context,score\n", encoding="utf-8")
    assert run_cli("baseline", "--data", empty, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- crossval


@pytest.fixture(scope="module")
def crossval_run(tmp_path_factory):
    """One shared crossval run; several tests inspect its artifacts."""
    tmp = tmp_path_factory.mktemp("cv")
    data = crossval_csv(tmp)
    out = tmp / "out"
    code = run_cli(
        "crossval", "--data", data, "--out", out, "--preset", "xsmall",
        "--k", "2", "--bins", "2", "--seed", "11", "--epochs", "1",
    )
    return code, data, out


def test_crossval_exit_code_and_report(crossval_run):
    code, _, out = crossval_run
    assert code == 0
    report = json.loads((out / "cv_report.json").read_text(encoding="utf-8"))
    assert report["k"] == 2
    assert report["seed"] == 11
    assert report["training_loss_definition"] == "final_epoch_mean"
    assert report["config"]["attention"]["d_model"] == 32
    assert report["config"]["epochs"] == 1
    assert len(report["folds"]) == 2
    for i, fold in enumerate(report["folds"]):
        assert fold["fold"] == i
        assert fold["n_val"] == 6
        assert fold["training_loss"] >= 0.0
        assert fold["validation_loss"] >= 0.0
    assert report["cv_estimate"] >= 0.0


def test_crossval_writes_per_fold_artifacts(crossval_run):
    _, _, out = crossval_run
    for fold in range(2):
        ckpt = out / f"fold_{fold}.ckpt"
        assert ckpt.exists()
        assert not Path(f"{ckpt}.json").exists()
        vocab_lines = (
            (out / f"fold_{fold}.ckpt.vocab.txt").read_text(encoding="utf-8").splitlines()
        )
        assert tuple(vocab_lines[:4]) == SPECIAL_TOKENS

        curve = (out / f"loss_curve_fold_{fold}.csv").read_text(encoding="utf-8").splitlines()
        assert curve[0] == "epoch,mean_train_loss,val_loss"
        assert len(curve) == 2  # one epoch
        assert curve[1].startswith("0,")

        pearson = (out / f"pearson_curve_fold_{fold}.csv").read_text(encoding="utf-8").splitlines()
        assert pearson[0] == "epoch,pearson"
        assert len(pearson) == 2


def test_crossval_report_matches_the_golden_copy(crossval_run):
    """The fixture's cv_report.json is pinned byte for byte; a change
    that claims identical training must leave it untouched."""
    _, _, out = crossval_run
    golden = Path(__file__).parent / "golden" / "cv_report_xsmall_seed11.json"
    assert (out / "cv_report.json").read_bytes() == golden.read_bytes()


def test_crossval_checkpoints_match_the_golden_digests(crossval_run):
    """Both fold checkpoints are pinned byte for byte, so a change in
    initialization, training or the payload layout cannot pass unseen."""
    _, _, out = crossval_run
    golden = Path(__file__).parent / "golden" / "ckpt_xsmall_seed11.sha256"
    for line in golden.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        assert reporting.sha256_of(out / name) == digest, name


def test_crossval_checkpoints_are_sized_to_the_fold_vocabulary(crossval_run):
    _, _, out = crossval_run
    report = json.loads((out / "cv_report.json").read_text(encoding="utf-8"))
    assert report["config"]["vocab_size"] == 8192  # the preset's cap
    for fold in range(2):
        ckpt = out / f"fold_{fold}.ckpt"
        rows = len(load_vocab(f"{ckpt}.vocab.txt"))
        params, cfg = model.load_checkpoint(ckpt)
        assert params.token_embed.shape == (rows, cfg.d_model)
        assert cfg.vocab_size == rows


def test_crossval_manifest_covers_every_artifact(crossval_run):
    _, data, out = crossval_run
    manifest = read_manifest(out)
    assert manifest["command"] == "crossval"
    assert manifest["seed"] == 11
    assert manifest["inputs"] == {str(data): reporting.sha256_of(data)}
    expected = {
        "cv_report.json",
        "fold_0.ckpt", "fold_0.ckpt.vocab.txt",
        "fold_1.ckpt", "fold_1.ckpt.vocab.txt",
        "loss_curve_fold_0.csv", "loss_curve_fold_1.csv",
        "pearson_curve_fold_0.csv", "pearson_curve_fold_1.csv",
    }
    assert set(manifest["outputs"]) == expected
    for rel, digest in manifest["outputs"].items():
        assert reporting.sha256_of(out / rel) == digest


def test_manifests_record_every_parsed_option_and_the_seed(crossval_run, tiny_csv, tmp_path):
    """``flags`` holds each option as parsed, defaults included; ``seed``
    is the seed the run used, the preset's when ``--seed`` is left out."""
    _, data, out = crossval_run
    manifest = read_manifest(out)
    assert manifest["flags"] == {
        "data": str(data), "out": str(out), "preset": "xsmall", "k": 2, "bins": 2,
        "seed": 11, "epochs": 1, "layout": "anchor_target_context",
    }
    assert manifest["seed"] == 11

    cv_out = tmp_path / "cv"
    assert run_cli(
        "crossval", "--data", data, "--out", cv_out, "--preset", "xsmall", "--k", "2",
        "--epochs", "1",
    ) == 0
    manifest = read_manifest(cv_out)
    assert manifest["flags"] == {
        "data": str(data), "out": str(cv_out), "preset": "xsmall", "k": 2, "bins": 5,
        "seed": None, "epochs": 1, "layout": "anchor_target_context",
    }
    assert manifest["seed"] == model.presets("xsmall").seed

    eda_out = tmp_path / "eda"
    assert run_cli("eda", "--data", tiny_csv, "--out", eda_out, "--char-bin", "3") == 0
    manifest = read_manifest(eda_out)
    assert manifest["flags"] == {
        "data": str(tiny_csv), "out": str(eda_out), "char_bin": 3, "word_bin": 1,
    }
    assert manifest["seed"] is None

    base_out = tmp_path / "baseline"
    assert run_cli("baseline", "--data", tiny_csv, "--out", base_out) == 0
    manifest = read_manifest(base_out)
    assert manifest["flags"] == {"data": str(tiny_csv), "out": str(base_out)}
    assert manifest["seed"] is None
    assert manifest["inputs"] == {str(tiny_csv): reporting.sha256_of(tiny_csv)}


def artifacts(out: Path) -> dict[str, bytes]:
    """Every file a run wrote but its manifest, which records the out path
    and the wall clock."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run.json"}


def test_one_worker_writes_the_bytes_the_default_worker_count_writes(
    crossval_run, tmp_path, monkeypatch
):
    _, data, out = crossval_run
    monkeypatch.setattr(evaluation, "_fold_workers", lambda k: 1)
    serial = tmp_path / "serial"
    assert run_cli(
        "crossval", "--data", data, "--out", serial, "--preset", "xsmall",
        "--k", "2", "--bins", "2", "--seed", "11", "--epochs", "1",
    ) == 0
    assert artifacts(serial) == artifacts(out)


def test_a_subprocess_without_blas_thread_variables_writes_the_same_bytes(
    crossval_run, tmp_path
):
    _, data, out = crossval_run
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    again = tmp_path / "again"
    proc = subprocess.run(
        [
            sys.executable, "-m", "phraselab", "crossval", "--data", str(data),
            "--out", str(again), "--preset", "xsmall", "--k", "2", "--bins", "2",
            "--seed", "11", "--epochs", "1",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert artifacts(again) == artifacts(out)


def test_crossval_rerun_reproduces_reports_byte_for_byte(tmp_path):
    data = crossval_csv(tmp_path)
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        code = run_cli(
            "crossval", "--data", data, "--out", out, "--preset", "xsmall",
            "--k", "2", "--bins", "2", "--seed", "7", "--epochs", "1",
        )
        assert code == 0
    first = (outs[0] / "cv_report.json").read_bytes()
    second = (outs[1] / "cv_report.json").read_bytes()
    assert first == second
    assert (outs[0] / "fold_0.ckpt").read_bytes() == (outs[1] / "fold_0.ckpt").read_bytes()


def test_crossval_unknown_preset_exits_2(tmp_path, capsys):
    data = crossval_csv(tmp_path)
    code = run_cli(
        "crossval", "--data", data, "--out", tmp_path / "out",
        "--preset", "enormous", "--k", "2",
    )
    assert code == 2
    assert "enormous" in capsys.readouterr().err


def test_crossval_k_larger_than_dataset_exits_2(tmp_path, capsys):
    data = crossval_csv(tmp_path)
    code = run_cli(
        "crossval", "--data", data, "--out", tmp_path / "out",
        "--preset", "xsmall", "--k", "50",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- score


def test_score_round_trips_checkpoint(crossval_run, capsys):
    _, _, out = crossval_run
    ckpt = out / "fold_0.ckpt"
    code = run_cli(
        "score", "--checkpoint", ckpt,
        "--anchor", "anchor one", "--target", "target one extra", "--context", "ctx0",
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()

    params, cfg = model.load_checkpoint(ckpt)
    vocab = load_vocab(f"{ckpt}.vocab.txt")
    seq = encode("anchor one", "target one extra", "ctx0", vocab, cfg.max_len, cfg.input_layout)
    expected = model.forward(seq, params, cfg)
    assert printed == f"{expected:.6f}"
    assert 0.0 < float(printed) < 1.0


def test_score_repeat_is_deterministic(crossval_run, capsys):
    _, _, out = crossval_run
    args = (
        "score", "--checkpoint", out / "fold_0.ckpt",
        "--anchor", "alpha beta", "--target", "beta gamma", "--context", "ctx",
    )
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first


def test_score_corrupt_checkpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    code = run_cli(
        "score", "--checkpoint", bad,
        "--anchor", "a", "--target", "b", "--context", "c",
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_score_missing_checkpoint_exits_1(tmp_path, capsys):
    code = run_cli(
        "score", "--checkpoint", tmp_path / "nope.ckpt",
        "--anchor", "a", "--target", "b", "--context", "c",
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_score_missing_vocab_sidecar_exits_1(crossval_run, tmp_path, capsys):
    _, _, out = crossval_run
    orphan = tmp_path / "orphan.ckpt"
    orphan.write_bytes((out / "fold_0.ckpt").read_bytes())
    code = run_cli(
        "score", "--checkpoint", orphan,
        "--anchor", "a", "--target", "b", "--context", "c",
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_score_non_finite_checkpoint_exits_3(crossval_run, tmp_path, capsys):
    _, _, out = crossval_run
    raw = bytearray((out / "fold_0.ckpt").read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))  # out_b, the last array
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(raw))
    shutil.copyfile(out / "fold_0.ckpt.vocab.txt", f"{bad}.vocab.txt")
    code = run_cli(
        "score", "--checkpoint", bad,
        "--anchor", "anchor one", "--target", "target one", "--context", "ctx0",
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "out_b" in captured.err


def with_huge_array(ckpt: Path, name: str, dest: Path) -> Path:
    """Copy of a checkpoint and its vocabulary with array ``name`` set
    to +-1e200 in alternating signs: finite, so the load-time check
    passes it."""
    params, _ = model.load_checkpoint(ckpt)
    arrays = list(params.named_arrays())
    raw = bytearray(ckpt.read_bytes())
    at = len(raw) - 8 * sum(arr.size for _, arr in arrays)
    for array_name, arr in arrays:
        if array_name == name:
            break
        at += 8 * arr.size
    huge = np.where(np.arange(arr.size) % 2 == 0, 1e200, -1e200).astype("<f8")
    raw[at : at + huge.nbytes] = huge.tobytes()
    dest.write_bytes(bytes(raw))
    shutil.copyfile(f"{ckpt}.vocab.txt", f"{dest}.vocab.txt")
    return dest


@pytest.mark.parametrize("name", ["token_embed", "rel_embed"])
def test_score_with_huge_finite_weights_exits_3(crossval_run, tmp_path, capsys, name):
    """A huge token table overflows the first layer norm and a huge
    relative table overflows the terms built at load: either way one
    error line and exit 3, with no warning and no score."""
    _, _, out = crossval_run
    bad = with_huge_array(out / "fold_0.ckpt", name, tmp_path / "huge.ckpt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "score", "--checkpoint", bad,
            "--anchor", "anchor one", "--target", "target one", "--context", "ctx0",
        )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not caught
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "float64 range" in captured.err


def test_score_vocab_longer_than_checkpoint_exits_2(crossval_run, tmp_path, capsys):
    _, _, out = crossval_run
    ckpt = tmp_path / "wide.ckpt"
    ckpt.write_bytes((out / "fold_0.ckpt").read_bytes())
    _, cfg = model.load_checkpoint(ckpt)
    words = [f"w{i}" for i in range(cfg.vocab_size)]
    Path(f"{ckpt}.vocab.txt").write_text("\n".join(SPECIAL_TOKENS + tuple(words)) + "\n", encoding="utf-8")
    code = run_cli(
        "score", "--checkpoint", ckpt,
        "--anchor", words[-1], "--target", "b", "--context", "c",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(cfg.vocab_size) in captured.err


@pytest.mark.parametrize("command", ["eda", "baseline", "crossval"])
def test_csv_that_is_not_utf8_exits_2(command, tmp_path, capsys):
    data = crossval_csv(tmp_path)
    data.write_bytes(data.read_bytes().replace(b"anchor seven", b"anchor s\xffven"))
    extra = ["--preset", "xsmall", "--k", "2"] if command == "crossval" else []
    code = run_cli(command, "--data", data, "--out", tmp_path / "out", *extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(data) in captured.err and "UTF-8" in captured.err


def test_crossval_negative_seed_exits_2(tmp_path, capsys):
    data = crossval_csv(tmp_path)
    code = run_cli(
        "crossval", "--data", data, "--out", tmp_path / "out", "--preset", "xsmall",
        "--k", "2", "--seed", "-1",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def copy_checkpoint(src: Path, dst: Path) -> Path:
    dst.write_bytes(src.read_bytes())
    shutil.copyfile(f"{src}.vocab.txt", f"{dst}.vocab.txt")
    return dst


SCORE_PAIR = ("--anchor", "anchor one", "--target", "target one extra", "--context", "ctx0")


def test_checkpoint_naming_the_per_term_scale_still_scores(crossval_run, tmp_path, capsys):
    """Checkpoints written while the config had a ``scale_mode`` field
    carry ``"scale_mode": "per_term"`` in their config block."""
    _, _, out = crossval_run
    assert run_cli("score", "--checkpoint", out / "fold_0.ckpt", *SCORE_PAIR) == 0
    want = capsys.readouterr().out
    old = copy_checkpoint(out / "fold_0.ckpt", tmp_path / "old.ckpt")
    block = rewrite_config_block(old, "attention.scale_mode", "per_term")
    assert b'"n_heads": 4, "scale_mode": "per_term"}, "batch_size"' in block
    assert run_cli("score", "--checkpoint", old, *SCORE_PAIR) == 0
    assert capsys.readouterr().out == want
    assert model.load_checkpoint(old)[1] == model.load_checkpoint(out / "fold_0.ckpt")[1]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("attention.scale_mode", "global", "scale_mode 'global' is not supported"),
        ("attention.scale_mode", None, "scale_mode None is not supported"),
        ("attention.include_p2p", "yes", "include_p2p must be true or false"),
        ("attention.include_p2p", 0, "include_p2p must be true or false"),
        ("input_layout", "bogus", "unknown input_layout 'bogus'"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("seed", 7.5, "seed must be a non-negative integer, got 7.5"),
    ],
    ids=[
        "scale-global", "scale-null", "p2p-string", "p2p-int", "layout-unknown",
        "seed-negative", "seed-float",
    ],
)
def test_score_refuses_a_bad_config_field_with_exit_2(
    crossval_run, tmp_path, capsys, field, value, message
):
    _, _, out = crossval_run
    bad = copy_checkpoint(out / "fold_0.ckpt", tmp_path / "bad.ckpt")
    rewrite_config_block(bad, field, value)
    code = run_cli("score", "--checkpoint", bad, *SCORE_PAIR)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"unreadable config block: {message}" in captured.err


def test_score_refuses_a_huge_layer_count_before_building_shapes(
    crossval_run, tmp_path, capsys, monkeypatch
):
    _, _, out = crossval_run
    bad = copy_checkpoint(out / "fold_0.ckpt", tmp_path / "huge.ckpt")
    rewrite_config_block(bad, "layers", 10**9)

    def refuse(cfg):
        raise AssertionError("per-array shapes built for a payload of the wrong size")

    monkeypatch.setattr(model, "_param_shapes", refuse)
    code = run_cli("score", "--checkpoint", bad, *SCORE_PAIR)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "truncated payload" in captured.err


def test_score_vocab_that_is_not_utf8_exits_2(crossval_run, tmp_path, capsys):
    _, _, out = crossval_run
    ckpt = tmp_path / "latin.ckpt"
    ckpt.write_bytes((out / "fold_0.ckpt").read_bytes())
    vocab = Path(f"{ckpt}.vocab.txt")
    vocab.write_bytes((out / "fold_0.ckpt.vocab.txt").read_bytes() + b"caf\xe9\n")
    code = run_cli(
        "score", "--checkpoint", ckpt,
        "--anchor", "anchor one", "--target", "target one", "--context", "ctx0",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(vocab) in captured.err and "UTF-8" in captured.err


# ---------------------------------------------------------------- fold workers

# Fold trainers are module-level functions, since cross_validate sends
# them to its worker processes by name. They tell the folds apart by the
# seed each is handed, CV_SEED ^ fold.
CV_SEED = 8
train_fold = model.model_fold_trainer


def crossval_in_workers(data, out, monkeypatch, trainer=None) -> int:
    """``crossval`` of three folds on two worker processes, whatever the
    host; ``trainer`` stands in for the model's fold trainer."""
    monkeypatch.setattr(evaluation, "_fold_workers", lambda k: 2)
    if trainer is not None:
        monkeypatch.setattr(model, "model_fold_trainer", trainer)
    return run_cli(
        "crossval", "--data", data, "--out", out, "--preset", "xsmall",
        "--k", "3", "--bins", "2", "--seed", CV_SEED, "--epochs", "1",
    )


def non_finite_in_fold_1(data, train_idx, val_idx, cfg):
    if cfg.seed ^ CV_SEED == 1:
        raise NonFiniteLoss("step 0: loss is nan")
    return train_fold(data, train_idx, val_idx, cfg)


def non_finite_in_folds_1_and_2(data, train_idx, val_idx, cfg):
    fold = cfg.seed ^ CV_SEED
    if fold == 1:
        # fold 2 fails first, yet fold 1 is the one reported
        time.sleep(0.5)
    if fold in (1, 2):
        raise NonFiniteLoss(f"step 0: loss is nan in fold {fold}")
    return train_fold(data, train_idx, val_idx, cfg)


def dies_in_fold_1(data, train_idx, val_idx, cfg):
    if cfg.seed ^ CV_SEED == 1:
        os._exit(1)
    return train_fold(data, train_idx, val_idx, cfg)


def test_a_worker_raising_non_finite_loss_exits_3_naming_the_fold(tmp_path, capsys, monkeypatch):
    data = crossval_csv(tmp_path)
    assert crossval_in_workers(data, tmp_path / "out", monkeypatch, non_finite_in_fold_1) == 3
    err = capsys.readouterr().err
    assert err == "error: fold 1: step 0: loss is nan\n"
    assert multiprocessing.active_children() == []
    # folds 0 and 2 trained and staged their checkpoints, but a failed
    # run writes no artifact and leaves no staging directory
    assert [p.name for p in tmp_path.iterdir()] == ["cv.csv"]


def test_a_failed_run_leaves_an_existing_out_directory_as_it_was(tmp_path, capsys, monkeypatch):
    data = crossval_csv(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n", encoding="utf-8")
    assert crossval_in_workers(data, out, monkeypatch, non_finite_in_fold_1) == 3
    assert capsys.readouterr().err == "error: fold 1: step 0: loss is nan\n"
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.csv", "out"]


def test_of_two_failing_folds_the_lower_one_is_reported(tmp_path, capsys, monkeypatch):
    data = crossval_csv(tmp_path)
    code = crossval_in_workers(data, tmp_path / "out", monkeypatch, non_finite_in_folds_1_and_2)
    assert code == 3
    assert capsys.readouterr().err == "error: fold 1: step 0: loss is nan in fold 1\n"
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    data = crossval_csv(tmp_path)
    # a missing parent is not created either
    out = tmp_path / "runs" / "out"
    assert crossval_in_workers(data, out, monkeypatch, dies_in_fold_1) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a worker process exited before returning its results\n"
    assert multiprocessing.active_children() == []
    assert [p.name for p in tmp_path.iterdir()] == ["cv.csv"]


def test_the_command_never_rebuilds_a_fold_parameter_set(tmp_path, monkeypatch):
    """The workers save their folds, so no parameter buffer comes back
    to be laid out again here."""
    calls = []
    lay_out = model._lay_out

    # named as the original, so a pickled parameter set still finds it
    @functools.wraps(lay_out)
    def counting_lay_out(*args, **kwargs):
        calls.append(os.getpid())
        return lay_out(*args, **kwargs)

    monkeypatch.setattr(model, "_lay_out", counting_lay_out)
    data = crossval_csv(tmp_path)
    out = tmp_path / "out"
    assert crossval_in_workers(data, out, monkeypatch) == 0
    assert multiprocessing.active_children() == []
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.csv", "out"]
    assert not [p for p in out.iterdir() if p.is_dir()]
    for fold in range(3):
        params, cfg = model.load_checkpoint(out / f"fold_{fold}.ckpt")
        assert cfg.seed == CV_SEED ^ fold
        assert cfg.vocab_size == len(load_vocab(out / f"fold_{fold}.ckpt.vocab.txt"))


# ---------------------------------------------------------------- exit mapping


def test_numeric_error_maps_to_exit_3(tiny_csv, tmp_path, capsys, monkeypatch):
    def blow_up(args):
        raise NonFiniteLoss("loss became non-finite at step 1")

    monkeypatch.setattr(cli, "cmd_baseline", blow_up)
    assert run_cli("baseline", "--data", tiny_csv, "--out", tmp_path / "out") == 3
    assert "non-finite" in capsys.readouterr().err


def test_os_error_maps_to_exit_1(tiny_csv, tmp_path, capsys, monkeypatch):
    def blow_up(args):
        raise OSError("disk on fire")

    monkeypatch.setattr(cli, "cmd_baseline", blow_up)
    assert run_cli("baseline", "--data", tiny_csv, "--out", tmp_path / "out") == 1
    assert "disk on fire" in capsys.readouterr().err


def test_ctrl_c_exits_130_with_one_line(tiny_csv, tmp_path, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_baseline", interrupted)
    try:
        code = run_cli("baseline", "--data", tiny_csv, "--out", tmp_path / "out")
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    err = capsys.readouterr().err
    assert code == 130
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_importing_the_cli_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, and the fold pool's machinery costs ~5-7 ms
    # to import; score, which hashes nothing and trains no fold, should
    # pay for neither
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    lazy = ("hashlib", "multiprocessing", "concurrent.futures")
    code = f"import sys, phraselab.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_entrypoint_raises_system_exit(tiny_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "sys.argv",
        ["phraselab", "eda", "--data", str(tiny_csv), "--out", str(tmp_path / "out")],
    )
    with pytest.raises(SystemExit) as excinfo:
        cli.entrypoint()
    assert excinfo.value.code == 0
