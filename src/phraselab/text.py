"""Tokenizer, vocabulary, and fixed-length sequence encoding.

Tokens are lowercased whitespace-split words. A model input packs the
anchor, target, and context phrases into one sequence: a leading
classifier token, each segment terminated by a separator, then padding
out to ``max_len``. An alternative layout drops the target segment so
the anchor/context pairing can be probed on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Dataset
from .errors import ConfigError, EmptyDataset, IoError, MaxLenTooSmall, ValidationError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")

# segment orders selectable per model configuration
LAYOUTS = {
    "anchor_target_context": ("anchor", "target", "context"),
    "anchor_context": ("anchor", "context"),
}


def tokenize(text: str) -> list[str]:
    return text.lower().split()


@dataclass(frozen=True)
class Vocabulary:
    """Token table with the four reserved ids in front."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence with its padding mask (1 = real)."""

    ids: tuple[int, ...]
    attention_mask: tuple[int, ...]


def build_vocab(d: Dataset, min_freq: int = 1, max_size: int = 50000) -> Vocabulary:
    """Count tokens over all three text columns and keep the top ones.

    Ties and order are deterministic: tokens are ranked by descending
    count, then lexicographically. ``max_size`` caps the non-special
    entries; the four reserved tokens always occupy ids 0..3.
    """
    if len(d) == 0:
        raise EmptyDataset(f"{d.source_path}: cannot build a vocabulary from no records")
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    if max_size < 1:
        raise ConfigError(f"max_size must be >= 1, got {max_size}")

    counts: dict[str, int] = {}
    for rec in d:
        for text in (rec.anchor, rec.target, rec.context):
            for tok in tokenize(text):
                counts[tok] = counts.get(tok, 0) + 1

    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )[:max_size]

    id_to_token = SPECIAL_TOKENS + tuple(kept)
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )


def encode(
    anchor: str,
    target: str,
    context: str,
    vocab: Vocabulary,
    max_len: int,
    layout: str = "anchor_target_context",
) -> TokenSequence:
    """Pack one record's phrases into a fixed-length id sequence.

    Layout: [CLS] seg0 [SEP] seg1 [SEP] ... padded with [PAD] to
    ``max_len``. When the segments overflow the budget, one token is
    trimmed from the tail of the currently longest segment (earliest
    wins ties) until they fit, so no segment is starved wholesale.
    """
    if layout not in LAYOUTS:
        raise ConfigError(f"unknown layout {layout!r}, expected one of {sorted(LAYOUTS)}")
    if max_len < 7:
        raise MaxLenTooSmall(f"max_len must be >= 7 to hold the special tokens, got {max_len}")

    fields = {"anchor": anchor, "target": target, "context": context}
    segments = [tokenize(fields[name]) for name in LAYOUTS[layout]]

    budget = max_len - 1 - len(segments)  # room left after [CLS] and the [SEP]s
    while sum(len(s) for s in segments) > budget:
        longest = max(range(len(segments)), key=lambda i: len(segments[i]))
        segments[longest].pop()

    ids = [CLS_ID]
    for seg in segments:
        ids.extend(vocab.id_for(tok) for tok in seg)
        ids.append(SEP_ID)
    real = len(ids)
    ids.extend([PAD_ID] * (max_len - real))

    mask = [1] * real + [0] * (max_len - real)
    return TokenSequence(ids=tuple(ids), attention_mask=tuple(mask))


def save_vocab(vocab: Vocabulary, path: str | Path) -> Path:
    """Write one token per line, line number = id."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(vocab.id_to_token) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write vocabulary {path}: {exc}") from exc
    return path


def load_vocab(path: str | Path) -> Vocabulary:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoError(f"cannot read vocabulary {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ValidationError(f"{path}: not valid UTF-8 (byte 0x{bad:02x}: {exc.reason})") from exc
    if tuple(lines[:4]) != SPECIAL_TOKENS:
        raise ValidationError(
            f"{path}: first four entries must be {SPECIAL_TOKENS}, got {tuple(lines[:4])}"
        )
    id_to_token = tuple(lines)
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )
