from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from recal.counting import CountingMethod, IndicatorKind
from recal.defaults import CURRENT_MINIMUMS
from recal.evaluation import (
    EvaluationError,
    ThresholdTable,
    diff_tables,
    evaluate_candidate,
    load_threshold_table,
    save_threshold_table,
)

import reference_section as ref

K = IndicatorKind
INTEGER = CountingMethod.INTEGER

SOCIAL_GEOGRAPHY_MINIMUMS = {
    kind: value
    for (discipline, kind), value in CURRENT_MINIMUMS.items()
    if discipline == "social_geography"
}


def current_table() -> ThresholdTable:
    return ThresholdTable("current", dict(CURRENT_MINIMUMS))


def evaluate(values: dict[K, float], discipline: str, table: ThresholdTable):
    return evaluate_candidate("cand", INTEGER, values, discipline, table)


def test_exact_minimums_score_one_everywhere():
    result = evaluate(dict(SOCIAL_GEOGRAPHY_MINIMUMS), "social_geography", current_table())
    assert result.overall_fulfilled
    assert len(result.scores) == len(SOCIAL_GEOGRAPHY_MINIMUMS) == 10
    for score in result.scores:
        assert score.fulfilled
        assert score.score == pytest.approx(1.0)


def test_zero_values_score_zero():
    result = evaluate({kind: 0.0 for kind in SOCIAL_GEOGRAPHY_MINIMUMS}, "social_geography", current_table())
    assert not result.overall_fulfilled
    assert all(score.score == 0.0 and not score.fulfilled for score in result.scores)


def test_double_value_scores_two():
    values = dict(SOCIAL_GEOGRAPHY_MINIMUMS)
    values[K.PUBLICATIONS] *= 2
    result = evaluate(values, "social_geography", current_table())
    by_kind = {score.kind: score for score in result.scores}
    assert by_kind[K.PUBLICATIONS].score == pytest.approx(2.0)
    assert result.overall_fulfilled


def test_threshold_sharpness():
    for kind in SOCIAL_GEOGRAPHY_MINIMUMS:
        values = dict(SOCIAL_GEOGRAPHY_MINIMUMS)
        values[kind] -= 1e-9
        result = evaluate(values, "social_geography", current_table())
        by_kind = {score.kind: score for score in result.scores}
        assert not by_kind[kind].fulfilled
        assert not result.overall_fulfilled


def test_missing_required_kind_is_an_error():
    values = dict(SOCIAL_GEOGRAPHY_MINIMUMS)
    del values[K.H_INDEX]
    with pytest.raises(EvaluationError, match="h_index"):
        evaluate(values, "social_geography", current_table())


def test_unknown_discipline_is_an_error():
    with pytest.raises(EvaluationError):
        evaluate({}, "astrology", current_table())


def test_non_required_indicators_are_omitted():
    # social geography does not require WoS-indexed independent citations
    values = dict(SOCIAL_GEOGRAPHY_MINIMUMS)
    values[K.WOS_INDEPENDENT_CITATIONS] = 999.0
    result = evaluate(values, "social_geography", current_table())
    assert K.WOS_INDEPENDENT_CITATIONS not in {s.kind for s in result.scores}


@given(st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.0, max_value=100.0))
def test_monotonicity_in_value(value, bump):
    table = ThresholdTable("t", {("geology", K.PUBLICATIONS): 30.0})
    low = evaluate({K.PUBLICATIONS: value}, "geology", table)
    high = evaluate({K.PUBLICATIONS: value + bump}, "geology", table)
    assert high.scores[0].score >= low.scores[0].score
    assert high.scores[0].fulfilled or not low.scores[0].fulfilled


def test_rejects_non_positive_minimums():
    with pytest.raises(EvaluationError):
        ThresholdTable("bad", {("geology", K.PUBLICATIONS): 0.0})


# --------------------------------------------------------------------------
# Table diffs

def published_recalibrated_table() -> ThresholdTable:
    minimums: dict[tuple[str, K], float] = {}
    for (kind, method), cells in ref.RMV_ROUNDED_PUBLISHED.items():
        if method is not CountingMethod.INTEGER:
            continue
        for discipline, value in cells.items():
            minimums[(discipline, kind)] = float(value)
    for kind, cells in ref.DERIVED_PUBLISHED.items():
        for discipline, value in cells.items():
            minimums[(discipline, kind)] = float(value)
    return ThresholdTable("recalibrated (published)", minimums)


def test_diff_against_published_recalibrated_table():
    deltas = diff_tables(current_table(), published_recalibrated_table())
    assert deltas[("geology", K.PUBLICATIONS)] == pytest.approx(6.0)
    assert deltas[("geodesy", K.INDEPENDENT_CITATIONS)] == pytest.approx(-46.0)
    # the h-index exists only in the current table, so the diff, which has the new table's cells, lacks it
    assert ("geology", K.H_INDEX) not in deltas
    assert deltas.keys() == published_recalibrated_table().minimums.keys()


def test_diff_identity_and_antisymmetry():
    a, b = current_table(), published_recalibrated_table()
    assert diff_tables(a, a) == dict.fromkeys(a.minimums, 0.0)
    forward, backward = diff_tables(a, b), diff_tables(b, a)
    assert forward.keys() == b.minimums.keys() and backward.keys() == a.minimums.keys()
    for cell, delta in forward.items():
        if delta is None:  # only in b, so not a cell of the backward diff
            assert cell not in a.minimums and cell not in backward
        else:
            assert backward[cell] == pytest.approx(-delta)
    assert [cell for cell, delta in backward.items() if delta is None] == [
        cell for cell in a.minimums if cell not in b.minimums
    ]


def test_threshold_table_round_trip(tmp_path):
    quoted = ThresholdTable('label, "quoted"', {('a,"b"', K.PUBLICATIONS): 30.5})
    for table in (published_recalibrated_table(), quoted):
        path = tmp_path / "thresholds.csv"
        save_threshold_table(table, path)
        loaded = load_threshold_table(path)
        assert loaded.label == table.label
        assert loaded.minimums == dict(table.minimums)


@pytest.mark.parametrize("table, message", [
    (ThresholdTable("t", {("", K.PUBLICATIONS): 3.0}),
     "row 1 ('', publications): column 'discipline' is empty"),
    (ThresholdTable("t", {(" geology", K.PUBLICATIONS): 3.0}),
     "row 1 (' geology', publications): reads back as ('geology', publications) with 3.0"),
    (ThresholdTable("t", {("geology\ud800", K.PUBLICATIONS): 3.0}),
     "row 1 ('geology\\ud800', publications): column 'discipline': 'geology\\ud800' holds a lone surrogate,"
     " which UTF-8 cannot encode"),
    (ThresholdTable("t\udfff", {("geology", K.PUBLICATIONS): 3.0}),
     "label 't\\udfff' holds a lone surrogate, which UTF-8 cannot encode"),
    (ThresholdTable("t", {("geology", K.PUBLICATIONS): 3.0, ("mining", K.H_INDEX): 1e-7}),  # saves as '0'
     "row 2 ('mining', h_index): minimum for (mining, h_index) must be a finite positive number, got 0.0"),
], ids=["empty", "padded", "surrogate", "label_surrogate", "rounds_to_zero"])
def test_threshold_table_save_refuses_a_cell_that_would_not_load_back(tmp_path, table, message):
    path = tmp_path / "thresholds.csv"
    with pytest.raises(EvaluationError) as caught:
        save_threshold_table(table, path)
    assert str(caught.value) == message
    assert not path.exists()


@pytest.mark.parametrize("minimum", [math.nan, math.inf, 0.0, -1.0])
def test_threshold_table_refuses_a_minimum_that_is_not_finite_and_positive(minimum):
    with pytest.raises(EvaluationError) as caught:
        ThresholdTable("t", {("geology", K.PUBLICATIONS): 3.0, ("mining", K.H_INDEX): minimum})
    assert str(caught.value) == f"minimum for (mining, h_index) must be a finite positive number, got {minimum}"


_DISCIPLINES = st.one_of(
    st.sampled_from(["geology", "", " geology", "geology ", "a,b", 'a"b', "a\nb", "a\rb", "\x85x", "x\ud800", "\x00"]),
    st.text(st.characters(blacklist_categories=()), max_size=4),  # surrogates included
)
_MINIMUMS = st.one_of(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),  # what ThresholdTable takes
    st.sampled_from([1e-7, 5e-7, 4.9999e-7, 1.23456789, 1e300, 5e-324]),
)


@settings(max_examples=300, deadline=None)
@given(label=st.text(st.characters(blacklist_categories=()), max_size=4),
       minimums=st.dictionaries(st.tuples(_DISCIPLINES, st.sampled_from(list(K))), _MINIMUMS, max_size=4))
@example(label="t", minimums={("geology", K.PUBLICATIONS): 1e-6})  # the least minimum the file holds
@example(label="t", minimums={("geology", K.PUBLICATIONS): 5e-7})  # a binary hair under 1e-6 / 2: saves as '0'
def test_threshold_table_loads_back_or_is_refused_at_save(label, minimums):
    table = ThresholdTable(label, minimums)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "thresholds.csv"
        try:
            save_threshold_table(table, path)
        except EvaluationError:
            assert not path.exists()
            return
        loaded = load_threshold_table(path)
    assert loaded.label == label
    # each minimum is written to 6 decimals
    assert loaded.minimums == {cell: float(f"{minimum:.6f}") for cell, minimum in minimums.items()}


def test_threshold_table_refuses_a_repeated_cell(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text(
        "label,twice\ndiscipline,kind,minimum\ngeology,publications,30\nmining,publications,20\n"
        "geology,publications,1\n",
        encoding="utf-8",
    )
    with pytest.raises(EvaluationError) as caught:
        load_threshold_table(path)
    assert str(caught.value) == f"{path}:3: repeats row 1, the minimum of (geology, publications)"


def test_threshold_table_strips_a_padded_discipline_and_kind(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text("label,t\ndiscipline,kind,minimum\ngeology,publications,1\n geology, h_index ,99\n",
                    encoding="utf-8")
    table = load_threshold_table(path)
    assert table.minimums == {("geology", K.PUBLICATIONS): 1.0, ("geology", K.H_INDEX): 99.0}
    assert table.required_kinds("geology") == [K.PUBLICATIONS, K.H_INDEX]


def test_threshold_table_header_may_be_padded_or_reordered_and_the_label_is_read_as_written(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text("label, as written \n minimum ,discipline,kind\n30,geology,publications\n", encoding="utf-8")
    table = load_threshold_table(path)
    assert table.label == " as written "
    assert table.minimums == {("geology", K.PUBLICATIONS): 30.0}


def test_threshold_table_save_refuses_a_path_the_reader_would_read_as_jsonl(tmp_path):
    path = tmp_path / "thresholds.jsonl"
    with pytest.raises(EvaluationError) as caught:
        save_threshold_table(published_recalibrated_table(), path)
    assert str(caught.value).startswith(f"{path}: the readers would read it as jsonl, not dsv")
    assert not path.exists()


def test_threshold_table_refuses_an_empty_discipline_naming_the_line(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text("label,t\ndiscipline,kind,minimum\ngeology,publications,1\n geology,h_index,99\n"
                    ",wos_articles,5\n", encoding="utf-8")
    with pytest.raises(EvaluationError) as caught:
        load_threshold_table(path)
    assert str(caught.value) == f"{path}:3: column 'discipline' is empty"


def test_threshold_table_refuses_a_non_positive_minimum_naming_the_line(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text("label,zero\ndiscipline,kind,minimum\ngeology,publications,30\n\ngeochemistry,publications,0\n",
                    encoding="utf-8")
    with pytest.raises(EvaluationError) as caught:
        load_threshold_table(path)
    assert str(caught.value) == (
        f"{path}:3: minimum for (geochemistry, publications) must be a finite positive number, got 0.0"
    )
