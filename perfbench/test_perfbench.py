"""Tests of the benchmark itself: generator, span arithmetic, tracer, smoke runs."""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

run.import_program()

import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from phraselab import cli, evaluation, model, text  # noqa: E402

TINY = {
    "cv-train": replace(synth.TRAIN_SHAPE, rows=24, lexicon=60),
    "score-pairs": replace(synth.SCORE_SHAPE, rows=24, lexicon=60),
}


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- generator


def test_generator_is_deterministic_for_a_seed(tmp_path):
    shape = TINY["cv-train"]
    first = synth.write_corpus(tmp_path / "a.csv", 11, shape).read_bytes()
    again = synth.write_corpus(tmp_path / "b.csv", 11, shape).read_bytes()
    other = synth.write_corpus(tmp_path / "c.csv", 12, shape).read_bytes()
    assert first == again
    assert first != other


def test_generated_rows_follow_the_corpus_shape():
    shape = synth.TRAIN_SHAPE
    rows = synth.generate_rows(3, shape)
    assert len(rows) == shape.rows
    assert len({r[0] for r in rows}) == shape.rows
    for _id, anchor, target, context, score in rows:
        assert shape.anchor_words[0] <= len(anchor.split()) <= shape.anchor_words[1]
        assert 1 <= len(target.split())
        assert len(context) == 3 and context[0] in "ABCDEFGH"
        assert float(score) in synth.SCORES
    assert len({r[3] for r in rows}) > 1


# ---------------------------------------------------------------- self time


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.5, 0),
        ("second_root", 20.0, 21.5, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.5])


def test_aggregate_sums_self_time_per_name():
    log = spans.SpanLog(spans=[("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 3.5, 0)])
    agg = spans.aggregate(log)
    assert agg["outer"] == {"calls": 1.0, "self_s": pytest.approx(3.5)}
    assert agg["inner"] == {"calls": 2.0, "self_s": pytest.approx(1.5)}
    # only the children's time sits below the entry point
    assert spans.below_entry_s(log) == pytest.approx(1.5)


# ---------------------------------------------------------------- tracer


def _bindings() -> dict:
    found = {}
    for name, mod in sys.modules.items():
        if mod is not None and name.startswith("phraselab"):
            for attr, value in vars(mod).items():
                found[(name, attr)] = value
    found[("AdamState", "update")] = model.AdamState.__dict__["update"]
    return found


def test_tracer_wraps_every_binding_and_restores_them_all():
    before = _bindings()
    original_encode = text.encode
    tracer = spans.Tracer()
    with tracer:
        assert model.encode is text.encode is cli.encode
        assert text.encode is not original_encode
        assert model.pearson is evaluation.pearson
        assert getattr(model.pearson, spans.WRAPPED_MARK)
        assert getattr(model.AdamState.__dict__["update"], spans.WRAPPED_MARK)
        vocab = text.Vocabulary({"[PAD]": 0}, ("[PAD]", "[UNK]", "[CLS]", "[SEP]"))
        model.encode("a b", "c", "d", vocab, 8)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert spans.leftover_wrappers() == []
    assert [name for name, *_ in tracer.log.spans] == ["text.encode"]


def test_tracer_restores_bindings_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            raise ZeroDivisionError
    assert all(_bindings()[key] is value for key, value in before.items())


# ---------------------------------------------------------------- smoke runs


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_passes_its_output_checks(name, trace, tmp_path):
    out = run.measure(name, 5, 0.0, trace, tmp_path / "work", shape=TINY[name])
    result = out["result"]
    assert out["report"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert spans.leftover_wrappers() == []


def test_benchmark_spec_matches_the_code():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_edit_distance_table_matches_known_values():
    assert workloads.edit_distance_dp("", "abc") == 3
    assert workloads.edit_distance_dp("kitten", "sitting") == 3
    assert workloads.edit_distance_dp("flaw", "lawn") == 2


def test_a_non_zero_exit_code_is_a_problem(monkeypatch):
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 2)
    _wall, problems = workloads.run_cli(["eda", "--data", "x.csv", "--out", "y"])
    assert problems == ["eda: exit code 2"]


def test_a_wrong_edit_distance_fails_the_lexical_checks(monkeypatch, tmp_path):
    real = workloads.lexical.levenshtein_distance
    monkeypatch.setattr(workloads.lexical, "levenshtein_distance", lambda a, b: real(a, b) + 1)
    out = run.measure("cv-train", 5, 0.0, False, tmp_path / "work", shape=TINY["cv-train"])
    result = out["result"]
    assert not result["correct"]
    # eda and crossval pass; only the baseline fails
    assert result["failed"] == 1 and result["attempted"] == 3
    assert "levenshtein" in out["report"]["failures"][0]


def test_wrong_similarities_fail_the_lexical_checks(monkeypatch, tmp_path):
    # a similarity path that bypasses levenshtein_distance is checked too
    real = workloads.lexical.levenshtein_similarity
    monkeypatch.setattr(workloads.lexical, "levenshtein_similarity", lambda a, b: real(a, b) * 0.9)
    out = run.measure("cv-train", 5, 0.0, False, tmp_path / "work", shape=TINY["cv-train"])
    assert out["result"]["failed"] == 1
    assert "histogram" in out["report"]["failures"][0]
