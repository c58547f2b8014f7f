"""Command-line front-end.

Four subcommands: ``eda`` (descriptive statistics), ``baseline``
(lexical similarity), ``crossval`` (train and evaluate under the
stratified K-fold protocol), ``score`` (one prediction from a saved
checkpoint). Every artifact-writing command also writes a ``run.json``
manifest recording flags, input/output hashes, and wall-clock time.

Exit codes: 0 success, 1 I/O failure (or a worker process lost while
training a fold), 2 validation or configuration failure, 3 numeric
failure (a non-finite training loss or checkpoint weight, or checkpoint
weights too large to score with), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import corpus, evaluation, lexical, model, reporting
from .errors import (
    IoError,
    NumericError,
    PhraseLabError,
    ShapeMismatch,
)
from .text import LAYOUTS, encode, load_vocab, save_vocab

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
# the shell's code for a command ended by SIGINT
EXIT_INTERRUPTED = 130

# the per-fold files crossval writes into --out; group 1 or 2 is the fold
_FOLD_FILE = re.compile(
    r"fold_(0|[1-9][0-9]*)\.ckpt(?:\.vocab\.txt)?|(?:loss|pearson)_curve_fold_(0|[1-9][0-9]*)\.csv"
)


def _write_manifest(args: argparse.Namespace, seed, outputs: set[Path], started: float) -> Path:
    """Write ``run.json`` into ``args.out``: every parsed option, the
    seed the run used, and the hashes of the data file and ``outputs``."""
    out_dir = Path(args.out)
    data = Path(args.data)
    flags = {name: value for name, value in vars(args).items() if name not in ("func", "command")}
    manifest = {
        "command": args.command,
        "flags": reporting.exact_reals(flags),
        "seed": seed,
        "inputs": {str(data): reporting.sha256_of(data)},
        "outputs": {
            str(p.relative_to(out_dir)): reporting.sha256_of(p) for p in sorted(outputs)
        },
        "wall_clock_seconds": time.perf_counter() - started,
    }
    return reporting.write_json(out_dir / "run.json", manifest)


def cmd_eda(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out)
    d = corpus.load_dataset(args.data)
    report = corpus.compute_eda(d, char_bin_width=args.char_bin, word_bin_width=args.word_bin)
    written = corpus.export_eda(report, out_dir)
    _write_manifest(args, None, written, started)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out)
    d = corpus.load_dataset(args.data)
    report = lexical.run_baseline(d)
    written = {
        reporting.write_json(
            out_dir / "baseline_report.json",
            {
                "record_count": len(d),
                "pearson": report.pearson_vs_gold,
                "pearson_error": report.pearson_error,
            },
        ),
        reporting.write_hist_csv(out_dir / "hist_levenshtein.csv", report.histogram),
    }
    _write_manifest(args, None, written, started)
    return EXIT_OK


def _staging_dir(out_dir: Path) -> Path:
    """A new directory on the file system ``out_dir`` is or will be on,
    so files staged there move into ``out_dir`` with ``os.replace``:
    inside ``out_dir`` when it exists, else in its nearest existing
    ancestor, so that a failed run creates no directory."""
    parent = out_dir.absolute()
    while not parent.is_dir():
        parent = parent.parent
    return Path(tempfile.mkdtemp(prefix=".crossval-staging-", dir=parent))


def _train_and_stage_fold(staging: Path, d, train_idx, val_idx, cfg) -> evaluation.FoldOutcome:
    """Fold hook of ``crossval``, run in the fold's worker: train with
    ``model.model_fold_trainer``, write the fold's checkpoint and
    vocabulary into ``staging`` (named by the fold's seed, which no
    other fold shares), and return the outcome with the checkpoint's
    path in place of the parameters and the vocabulary, so neither is
    sent back to the command."""
    outcome = model.model_fold_trainer(d, train_idx, val_idx, cfg)
    extras = outcome.extras
    ckpt = model.save_checkpoint(extras.pop("params"), cfg, staging / f"seed_{cfg.seed}.ckpt")
    save_vocab(extras.pop("vocab"), Path(f"{ckpt}.vocab.txt"))
    extras["checkpoint"] = ckpt
    return outcome


def _fold_artifacts(out_dir: Path, fold: int, outcome) -> set[Path]:
    """Move fold ``fold``'s staged checkpoint and vocabulary into
    ``out_dir`` and write its loss and Pearson curves there."""
    staged = outcome.extras["checkpoint"]
    ckpt = out_dir / f"fold_{fold}.ckpt"
    vocab = Path(f"{ckpt}.vocab.txt")
    os.replace(staged, ckpt)
    os.replace(f"{staged}.vocab.txt", vocab)
    written = {ckpt, vocab}

    trace = outcome.trace
    rows = ["epoch,mean_train_loss,val_loss"]
    for e, (mean_train, vloss) in enumerate(zip(trace.epoch_train_losses(), trace.val_losses)):
        rows.append(
            f"{e},{reporting.format_real(mean_train)},{reporting.format_real(vloss)}"
        )
    written.add(
        reporting.write_text(out_dir / f"loss_curve_fold_{fold}.csv", "\n".join(rows) + "\n")
    )

    rows = ["epoch,pearson"]
    for e, corr in enumerate(trace.val_pearsons):
        rows.append(f"{e}," + ("" if corr is None else reporting.format_real(corr)))
    written.add(
        reporting.write_text(out_dir / f"pearson_curve_fold_{fold}.csv", "\n".join(rows) + "\n")
    )
    return written


def _remove_stale_folds(out_dir: Path, k: int) -> None:
    """Remove the per-fold files of folds ``k`` and up from ``out_dir``:
    an earlier run with a larger ``--k`` left them, and they belong to
    no report now that folds ``0 .. k-1`` have been replaced."""
    for entry in out_dir.iterdir():
        match = _FOLD_FILE.fullmatch(entry.name)
        if match and int(match.group(1) or match.group(2)) >= k and entry.is_file():
            entry.unlink()


def cmd_crossval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out)
    d = corpus.load_dataset(args.data)

    cfg = model.presets(args.preset)
    overrides: dict = {"input_layout": args.layout}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = replace(cfg, **overrides)

    plan = evaluation.stratified_kfold(d, args.k, n_bins=args.bins, seed=cfg.seed)
    # the workers write the folds' checkpoints here; they reach out_dir
    # only once every fold has succeeded, so a failed run writes none.
    # cross_validate has stopped every worker by the time it returns or
    # raises, so none writes here after the removal
    staging = _staging_dir(out_dir)
    try:
        report = evaluation.cross_validate(
            d, plan, cfg, train_fn=functools.partial(_train_and_stage_fold, staging)
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        written: set[Path] = set()
        for fold, outcome in enumerate(report.outcomes):
            written |= _fold_artifacts(out_dir, fold, outcome)
        _remove_stale_folds(out_dir, plan.k)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    payload = {
        "cv_estimate": report.cv_estimate,
        "mean_pearson": report.mean_pearson,
        "folds": [asdict(f) for f in report.folds],
        "k": plan.k,
        "n_bins": args.bins,
        "seed": cfg.seed,
        "training_loss_definition": "final_epoch_mean",
        "config": reporting.exact_reals(asdict(cfg)),
    }
    written.add(reporting.write_json(out_dir / "cv_report.json", payload))
    _write_manifest(args, cfg.seed, written, started)
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    params, cfg = model.load_checkpoint(args.checkpoint)
    vocab_path = f"{args.checkpoint}.vocab.txt"
    vocab = load_vocab(vocab_path)
    if len(vocab) > cfg.vocab_size:
        raise ShapeMismatch(
            f"{vocab_path}: {len(vocab)} entries, but the checkpoint embeds only "
            f"{cfg.vocab_size} token ids"
        )
    seq = encode(args.anchor, args.target, args.context, vocab, cfg.max_len, cfg.input_layout)
    print(f"{model.forward(seq, params, cfg):.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phraselab",
        description="Phrase-pair similarity laboratory: statistics, lexical baseline, "
        "small-encoder training, and checkpoint scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eda", help="write descriptive statistics for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--char-bin", type=int, default=5, dest="char_bin")
    p.add_argument("--word-bin", type=int, default=1, dest="word_bin")
    p.set_defaults(func=cmd_eda)

    p = sub.add_parser("baseline", help="run the lexical similarity baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("crossval", help="train and evaluate with stratified K-fold")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument(
        "--layout",
        choices=sorted(LAYOUTS),
        default="anchor_target_context",
    )
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("score", help="score one phrase pair with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--context", required=True)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PhraseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    raise SystemExit(main())
