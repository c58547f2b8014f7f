"""Loading and descriptive statistics for phrase-pair CSV corpora.

A corpus row pairs a short anchor phrase with a target phrase, tags the
pair with a domain context code, and assigns a gold similarity score in
[0, 1]. This module parses such files into validated records and
computes the exploratory statistics used by the reporting commands:
unique-phrase counts, token frequency tables, length histograms, the
score distribution, and group-size distributions (for example, how many
anchors each target co-occurs with).
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import reporting
from .errors import (
    DuplicateId,
    EmptyDataset,
    EmptyField,
    IoError,
    MalformedCsv,
    MissingColumn,
    ScoreOutOfRange,
    ValidationError,
)

REQUIRED_COLUMNS = ("id", "anchor", "target", "context", "score")


@dataclass(frozen=True)
class PhraseRecord:
    """One scored phrase pair.

    Text fields are stored whitespace-trimmed; ``score`` is a float in
    the closed interval [0, 1].
    """

    id: str
    anchor: str
    target: str
    context: str
    score: float


@dataclass(frozen=True)
class Dataset:
    """An ordered, id-unique collection of records from one source."""

    records: tuple[PhraseRecord, ...]
    source_path: str

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def subset(self, indices) -> "Dataset":
        """New dataset holding the given rows, preserving their order."""
        picked = tuple(self.records[i] for i in indices)
        return Dataset(picked, f"{self.source_path}#subset")


# histogram rows are (bin_lo, bin_hi, count); hi is exclusive except the
# final unit bin which closes at 1.0
Histogram = list[tuple[float, float, int]]


@dataclass
class EdaReport:
    """Descriptive statistics for one dataset."""

    record_count: int
    unique_anchor_count: int
    unique_target_count: int
    term_frequency: dict[str, dict[str, int]] = field(default_factory=dict)
    char_count_hist: dict[str, Histogram] = field(default_factory=dict)
    word_count_hist: dict[str, Histogram] = field(default_factory=dict)
    score_hist: Histogram = field(default_factory=list)
    anchors_per_target: dict[int, int] = field(default_factory=dict)
    anchors_per_context: dict[int, int] = field(default_factory=dict)
    targets_per_context: dict[int, int] = field(default_factory=dict)

    def summary(self) -> dict:
        """Scalar counts only, so the JSON round-trips exactly."""
        return {
            "record_count": self.record_count,
            "unique_anchor_count": self.unique_anchor_count,
            "unique_target_count": self.unique_target_count,
            "distinct_terms": {col: len(freq) for col, freq in self.term_frequency.items()},
            "total_terms": {col: sum(freq.values()) for col, freq in self.term_frequency.items()},
        }


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> MalformedCsv:
    bad = exc.object[exc.start]
    return MalformedCsv(f"{path}: not valid UTF-8 (byte 0x{bad:02x}: {exc.reason})")


def load_dataset(path: str | Path) -> Dataset:
    """Parse a phrase-pair CSV into a validated dataset.

    The header must contain the columns id, anchor, target, context and
    score, in any order; extra columns are ignored. The first bad row,
    a missing column or a file that is not UTF-8 raises.
    """
    path = Path(path)
    try:
        handle = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: file is empty, no header row") from None
        except csv.Error as exc:
            raise MalformedCsv(f"{path}: unparseable header: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc

        columns = {name.strip(): i for i, name in enumerate(header)}
        missing = [c for c in REQUIRED_COLUMNS if c not in columns]
        if missing:
            raise MissingColumn(f"{path}: missing column(s): {', '.join(missing)}")
        needed = 1 + max(columns[c] for c in REQUIRED_COLUMNS)

        records: list[PhraseRecord] = []
        seen_ids: set[str] = set()
        line_no = 1
        while True:
            line_no += 1
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise MalformedCsv(f"{path}: row {line_no}: {exc}") from exc
            except UnicodeDecodeError as exc:
                # decoding runs ahead in blocks, so the bad byte is not
                # pinned to a row: the whole file is refused
                raise _not_utf8(path, exc) from exc
            if not row:
                continue
            record = _parse_row(row, columns, needed, line_no, seen_ids, path)
            seen_ids.add(record.id)
            records.append(record)

    return Dataset(tuple(records), str(path))


def _parse_row(row, columns, needed, line_no, seen_ids, path) -> PhraseRecord:
    if len(row) < needed:
        raise MalformedCsv(
            f"{path}: row {line_no}: expected at least {needed} fields, got {len(row)}"
        )
    rec_id = row[columns["id"]].strip()
    if rec_id in seen_ids:
        raise DuplicateId(f"{path}: row {line_no}: duplicate id {rec_id!r}")
    anchor = row[columns["anchor"]].strip()
    target = row[columns["target"]].strip()
    context = row[columns["context"]].strip()
    for name, value in (("anchor", anchor), ("target", target), ("context", context)):
        if not value:
            raise EmptyField(f"{path}: row {line_no}: empty {name}")
    raw_score = row[columns["score"]].strip()
    try:
        score = float(raw_score)
    except ValueError:
        raise MalformedCsv(
            f"{path}: row {line_no}: score {raw_score!r} is not a number"
        ) from None
    if not 0.0 <= score <= 1.0:
        raise ScoreOutOfRange(f"{path}: row {line_no}: score {raw_score} outside [0, 1]")
    return PhraseRecord(rec_id, anchor, target, context, score)


def compute_eda(d: Dataset, char_bin_width: int = 5, word_bin_width: int = 1) -> EdaReport:
    """Compute the full descriptive-statistics report for a dataset.

    Tokens are lowercased whitespace-split words. Length histograms
    cover the two phrase columns; token frequencies cover all three
    text columns. Bin widths must be positive integers.
    """
    if len(d) == 0:
        raise EmptyDataset(f"{d.source_path}: no records to analyze")
    if char_bin_width < 1 or word_bin_width < 1:
        raise ValidationError(
            f"bin widths must be >= 1, got char={char_bin_width} word={word_bin_width}"
        )

    term_frequency = {col: Counter() for col in ("anchor", "target", "context")}
    char_counts: dict[str, list[int]] = {"anchor": [], "target": []}
    word_counts: dict[str, list[int]] = {"anchor": [], "target": []}
    anchors_by_target: dict[str, set[str]] = {}
    anchors_by_context: dict[str, set[str]] = {}
    targets_by_context: dict[str, set[str]] = {}

    for rec in d:
        for col, text in (("anchor", rec.anchor), ("target", rec.target), ("context", rec.context)):
            term_frequency[col].update(text.lower().split())
        for col, text in (("anchor", rec.anchor), ("target", rec.target)):
            char_counts[col].append(len(text))
            word_counts[col].append(len(text.split()))
        anchors_by_target.setdefault(rec.target, set()).add(rec.anchor)
        anchors_by_context.setdefault(rec.context, set()).add(rec.anchor)
        targets_by_context.setdefault(rec.context, set()).add(rec.target)

    def group_size_distribution(groups: dict[str, set[str]]) -> dict[int, int]:
        dist = Counter(len(members) for members in groups.values())
        return dict(sorted(dist.items()))

    return EdaReport(
        record_count=len(d),
        unique_anchor_count=len({r.anchor for r in d}),
        unique_target_count=len({r.target for r in d}),
        term_frequency={col: dict(freq) for col, freq in term_frequency.items()},
        char_count_hist={
            col: reporting.integer_histogram(vals, char_bin_width)
            for col, vals in char_counts.items()
        },
        word_count_hist={
            col: reporting.integer_histogram(vals, word_bin_width)
            for col, vals in word_counts.items()
        },
        score_hist=reporting.unit_histogram([r.score for r in d]),
        anchors_per_target=group_size_distribution(anchors_by_target),
        anchors_per_context=group_size_distribution(anchors_by_context),
        targets_per_context=group_size_distribution(targets_by_context),
    )


def export_eda(report: EdaReport, out_dir: str | Path) -> set[Path]:
    """Write the report as one summary JSON plus plot-ready CSVs.

    Returns the set of paths written. Output is deterministic: sorted
    JSON keys, fixed six-decimal reals, stable row ordering.
    """
    out = Path(out_dir)
    written: set[Path] = set()

    written.add(reporting.write_json(out / "eda_summary.json", report.summary()))

    for col, bins in sorted(report.char_count_hist.items()):
        written.add(reporting.write_hist_csv(out / f"hist_{col}_char_count.csv", bins))
    for col, bins in sorted(report.word_count_hist.items()):
        written.add(reporting.write_hist_csv(out / f"hist_{col}_word_count.csv", bins))
    written.add(reporting.write_hist_csv(out / "hist_score.csv", report.score_hist))

    for name, dist in (
        ("anchors_per_target", report.anchors_per_target),
        ("anchors_per_context", report.anchors_per_context),
        ("targets_per_context", report.targets_per_context),
    ):
        bins = [(float(s), float(s + 1), n) for s, n in sorted(dist.items())]
        written.add(reporting.write_hist_csv(out / f"hist_{name}.csv", bins))

    for col, freq in sorted(report.term_frequency.items()):
        written.add(reporting.write_terms_csv(out / f"terms_{col}.csv", freq))

    return written
