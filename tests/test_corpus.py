import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraselab import reporting
from phraselab.corpus import (
    EdaReport,
    PhraseRecord,
    compute_eda,
    export_eda,
    load_dataset,
)
from phraselab.errors import (
    DuplicateId,
    EmptyDataset,
    EmptyField,
    IoError,
    MalformedCsv,
    MissingColumn,
    ScoreOutOfRange,
)

from conftest import make_dataset, write_csv


def test_load_happy_path(tiny_csv):
    d = load_dataset(tiny_csv)
    assert len(d) == 3
    assert d.records[0] == PhraseRecord("r1", "abatement", "eliminating process", "A47", 0.5)
    assert d.records[2].score == 1.0


def test_load_accepts_any_column_order(tmp_path):
    p = write_csv(
        tmp_path / "shuffled.csv",
        [(0.5, "ctx", "t phrase", "a phrase", "x1")],
        header="score,context,target,anchor,id",
    )
    d = load_dataset(p)
    assert d.records[0].anchor == "a phrase"
    assert d.records[0].context == "ctx"


def test_load_ignores_extra_columns(tmp_path):
    p = write_csv(
        tmp_path / "extra.csv",
        [("x1", "a", "b", "c", 0.5, "junk")],
        header="id,anchor,target,context,score,notes",
    )
    assert len(load_dataset(p)) == 1


def test_missing_column(tmp_path):
    p = write_csv(tmp_path / "m.csv", [("x1", "a", "b", 0.5)], header="id,anchor,target,score")
    with pytest.raises(MissingColumn, match="context"):
        load_dataset(p)


def test_empty_file_reports_missing_header(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_dataset(p)


def test_nonexistent_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "nope.csv")


def test_score_out_of_range_strict(tmp_path):
    p = write_csv(tmp_path / "s.csv", [("x1", "a", "b", "c", 1.5)])
    with pytest.raises(ScoreOutOfRange):
        load_dataset(p)


def test_score_nan_rejected(tmp_path):
    p = write_csv(tmp_path / "s.csv", [("x1", "a", "b", "c", "nan")])
    with pytest.raises(ScoreOutOfRange):
        load_dataset(p)


def test_score_not_a_number(tmp_path):
    p = write_csv(tmp_path / "s.csv", [("x1", "a", "b", "c", "high")])
    with pytest.raises(MalformedCsv):
        load_dataset(p)


def test_empty_anchor_strict(tmp_path):
    p = write_csv(tmp_path / "e.csv", [("x1", "   ", "b", "c", 0.5)])
    with pytest.raises(EmptyField, match="anchor"):
        load_dataset(p)


def test_short_row(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("id,anchor,target,context,score\nx1,a,b\n", encoding="utf-8")
    with pytest.raises(MalformedCsv):
        load_dataset(p)


def test_duplicate_id(tmp_path):
    p = write_csv(tmp_path / "d.csv", [("x1", "a", "b", "c", 0.5), ("x1", "d", "e", "f", 0.5)])
    with pytest.raises(DuplicateId):
        load_dataset(p)


@pytest.mark.parametrize("where", ["header", "row"])
def test_invalid_utf8_is_malformed_csv(tmp_path, where):
    p = write_csv(tmp_path / "u.csv", [("x1", "gear", "pump", "c07", 0.5)])
    raw = p.read_bytes()
    at = raw.index(b"anchor" if where == "header" else b"gear")
    p.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
    with pytest.raises(MalformedCsv, match=r"u\.csv: not valid UTF-8 \(byte 0xff") as excinfo:
        load_dataset(p)
    assert "\n" not in str(excinfo.value)


def test_fields_are_trimmed(tmp_path):
    p = write_csv(tmp_path / "t.csv", [("x1", "  gear box ", " pump ", " c07 ", 0.5)])
    rec = load_dataset(p).records[0]
    assert rec.anchor == "gear box"
    assert rec.target == "pump"
    assert rec.context == "c07"


def test_subset_preserves_order():
    d = make_dataset([(f"r{i}", f"a{i}", f"t{i}", "c", i / 10) for i in range(5)])
    s = d.subset([3, 1])
    assert [r.id for r in s] == ["r3", "r1"]


# ---------------------------------------------------------------- EDA


def test_eda_empty_dataset():
    with pytest.raises(EmptyDataset):
        compute_eda(make_dataset([]))


def test_eda_single_record_counts():
    d = make_dataset([("r1", "abatement", "forest region", "A01", 0.5)])
    r = compute_eda(d, char_bin_width=5, word_bin_width=1)
    assert r.record_count == 1
    assert r.unique_anchor_count == 1
    assert r.unique_target_count == 1
    assert r.term_frequency["anchor"] == {"abatement": 1}
    # 9 characters -> bin [5, 10)
    assert (5.0, 10.0, 1) in r.char_count_hist["anchor"]
    assert r.word_count_hist["anchor"][-1] == (1.0, 2.0, 1)


def test_eda_group_distributions(tiny_csv):
    r = compute_eda(load_dataset(tiny_csv))
    # "eliminating process" pairs with two anchors, "forest region" with one
    assert r.anchors_per_target == {1: 1, 2: 1}
    assert r.anchors_per_context == {1: 1, 2: 1}
    assert r.targets_per_context == {1: 2}


def test_eda_histogram_mass(tiny_csv):
    d = load_dataset(tiny_csv)
    r = compute_eda(d)
    for col in ("anchor", "target"):
        assert sum(c for _, _, c in r.char_count_hist[col]) == len(d)
        assert sum(c for _, _, c in r.word_count_hist[col]) == len(d)
    assert sum(c for _, _, c in r.score_hist) == len(d)


def test_eda_term_frequencies_lowercased(tiny_csv):
    r = compute_eda(load_dataset(tiny_csv))
    assert r.term_frequency["context"] == {"a47": 2, "a01": 1}
    assert r.term_frequency["target"]["eliminating"] == 2


GOLDEN_SUMMARY = (
    '{"distinct_terms": {"anchor": 3, "context": 2, "target": 4}, '
    '"record_count": 3, '
    '"total_terms": {"anchor": 4, "context": 3, "target": 6}, '
    '"unique_anchor_count": 2, "unique_target_count": 2}\n'
)

GOLDEN_ANCHOR_CHARS = """bin_lo,bin_hi,count
0.000000,5.000000,0
5.000000,10.000000,2
10.000000,15.000000,0
15.000000,20.000000,1
"""

GOLDEN_TARGET_WORDS = """bin_lo,bin_hi,count
0.000000,1.000000,0
1.000000,2.000000,0
2.000000,3.000000,3
"""

GOLDEN_TERMS_TARGET = """token,count
eliminating,2
process,2
forest,1
region,1
"""


def test_export_golden_files(tiny_csv, tmp_path):
    """Every byte of the exports is pinned by hand-computed expectations."""
    r = compute_eda(load_dataset(tiny_csv), char_bin_width=5, word_bin_width=1)
    out = tmp_path / "eda"
    written = export_eda(r, out)
    names = {p.name for p in written}
    assert names == {
        "eda_summary.json",
        "hist_anchor_char_count.csv", "hist_anchor_word_count.csv",
        "hist_target_char_count.csv", "hist_target_word_count.csv",
        "hist_score.csv",
        "hist_anchors_per_target.csv", "hist_anchors_per_context.csv",
        "hist_targets_per_context.csv",
        "terms_anchor.csv", "terms_target.csv", "terms_context.csv",
    }
    assert (out / "eda_summary.json").read_text() == GOLDEN_SUMMARY
    assert (out / "hist_anchor_char_count.csv").read_text() == GOLDEN_ANCHOR_CHARS
    assert (out / "hist_target_word_count.csv").read_text() == GOLDEN_TARGET_WORDS
    assert (out / "terms_target.csv").read_text() == GOLDEN_TERMS_TARGET
    score_rows = (out / "hist_score.csv").read_text().splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in score_rows]
    assert counts == [0, 0, 1, 0, 0, 1, 0, 0, 0, 1]


def test_export_deterministic(tiny_csv, tmp_path):
    r = compute_eda(load_dataset(tiny_csv))
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_eda(r, a)
    export_eda(r, b)
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


def test_export_empty_report(tmp_path):
    """A constructed empty report exports zero counts and bare headers."""
    r = EdaReport(record_count=0, unique_anchor_count=0, unique_target_count=0)
    out = tmp_path / "eda"
    export_eda(r, out)
    summary = (out / "eda_summary.json").read_text()
    assert '"record_count": 0' in summary
    assert (out / "hist_score.csv").read_text() == "bin_lo,bin_hi,count\n"


def test_summary_round_trips_exactly(tiny_csv, tmp_path):
    import json

    r = compute_eda(load_dataset(tiny_csv))
    out = tmp_path / "eda"
    export_eda(r, out)
    assert json.loads((out / "eda_summary.json").read_text()) == r.summary()


# --------------------------------------------------- property tests

_censored = st.text(
    alphabet=string.ascii_lowercase + " ",
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip() and "," not in s)

_row = st.tuples(
    _censored,
    _censored,
    _censored,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_row, min_size=1, max_size=20))
def test_strict_load_yields_valid_records(tmp_path_factory, rows):
    """Whatever valid CSV we write, loading it honors the invariants."""
    p = tmp_path_factory.mktemp("gen") / "gen.csv"
    csv_rows = [(f"id{i}", a.strip(), t.strip(), c.strip(), s) for i, (a, t, c, s) in enumerate(rows)]
    write_csv(p, csv_rows)
    d = load_dataset(p)
    assert len(d) == len(rows)
    seen = set()
    for rec in d:
        assert rec.id not in seen
        seen.add(rec.id)
        assert rec.anchor == rec.anchor.strip() and rec.anchor
        assert rec.target == rec.target.strip() and rec.target
        assert 0.0 <= rec.score <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=9),
)
def test_integer_histogram_partition(values, width):
    bins = reporting.integer_histogram(values, width)
    assert sum(c for _, _, c in bins) == len(values)
    for lo, hi, _ in bins:
        assert hi - lo == width
    # contiguous from zero
    assert bins[0][0] == 0.0
    for (_, hi_prev, _), (lo, _, _) in zip(bins, bins[1:]):
        assert lo == hi_prev
