from __future__ import annotations

import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from recal.cli import main
from recal.config import (
    CELL,
    LANGUAGE,
    ConfigError,
    default_config,
    load_pipeline_config,
)
from recal.corpus import PubType, YearWindow, required_string
from recal.corpus import _language as read_language
from recal.counting import CountingMethod, IndicatorKind
from recal.evaluation import EvaluationError, ThresholdTable, save_threshold_table
from recal.recalibration import derived_scaled_minimums, read_apv_table, recalibrate_all

APV_TABLE = Path(__file__).parent / "data" / "section_apv.csv"


def test_partial_override_keeps_other_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "domestic_language": "en",
                "pub_window": [2000, 2004],
                "recalibration": {"top_fraction": 0.5, "ym_decimals": None},
            }
        ),
        encoding="utf-8",
    )
    config = load_pipeline_config(path)
    assert config.domestic_language == "en"
    assert config.pub_window == YearWindow(2000, 2004)
    assert config.citation_window == default_config().citation_window
    assert config.recalibration.top_fraction == 0.5
    assert config.recalibration.ym_decimals is None
    assert config.recalibration.ym_source_method is CountingMethod.INTEGER


def test_counted_publication_types(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"schema_version": 1, "counted_publication_types": ["journal_article", "book"]}),
        encoding="utf-8",
    )
    config = load_pipeline_config(path)
    assert config.counted_publication_types == frozenset({PubType.JOURNAL_ARTICLE, PubType.BOOK})
    settings = config.counting_settings()
    assert settings.counted_publication_types == config.counted_publication_types


def test_unknown_schema_version_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": 2}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_pipeline_config(path)


def test_output_formats_key_is_a_config_error_naming_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": 1, "output_formats": ["jsonl"]}', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{path}.*output_formats.*--format"):
        load_pipeline_config(path)


def test_bad_indicator_kind_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "disciplines": [{"key": "geology"}],
                "current_minimums": {"geology": {"nonsense": 3}},
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="nonsense"):
        load_pipeline_config(path)


@pytest.mark.parametrize(
    "override",
    [
        {"current_minimums": {"geology": {"publications": float("nan")}}},
        {"recalibration": {"t_years": {"publications": float("inf")}}},
    ],
)
def test_non_finite_number_rejected(tmp_path, override):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"schema_version": 1, "disciplines": [{"key": "geology"}], **override}),
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="finite"):
        load_pipeline_config(path)


@pytest.mark.parametrize("minimum", [math.nan, math.inf])
def test_library_config_refuses_a_minimum_that_is_not_finite(minimum):
    minimums = {**default_config().current_minimums, ("geology", IndicatorKind.PUBLICATIONS): minimum}
    with pytest.raises(EvaluationError) as caught:
        replace(default_config(), current_minimums=minimums)
    assert str(caught.value) == f"minimum for (geology, publications) must be a finite positive number, got {minimum}"


def _gives_back(convert, text: str) -> bool:
    """Whether the reader's cell converter ``convert`` gives ``text`` back unchanged."""
    try:
        return convert(text, "cell") == text
    except ValueError:
        return False


def _takes(convert, *args) -> bool:
    try:
        convert(*args)
    except (ValueError, EvaluationError):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.sampled_from(["", " ", "geology", " geology", "geology\t", "a\nb", "\x85x", "x\u3000", "x\ud800", "HU", "\u0130"]),
    st.text(st.characters(blacklist_categories=()), max_size=4),  # surrogates included
))
@example(text="hu")
def test_config_and_threshold_save_take_exactly_the_text_a_reader_gives_back(text):
    kept = _gives_back(required_string, text)
    assert _takes(CELL.convert, text) == kept
    assert _takes(LANGUAGE.convert, text) == _gives_back(read_language, text)
    with tempfile.TemporaryDirectory() as directory:
        table = ThresholdTable("t", {(text, IndicatorKind.PUBLICATIONS): 1.0})
        assert _takes(save_threshold_table, table, Path(directory) / "thresholds.csv") == kept


def test_malformed_discipline_entry_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"schema_version": 1, "disciplines": [{"name": "No Key"}]}),
        encoding="utf-8",
    )
    with pytest.raises(ConfigError):
        load_pipeline_config(path)


@pytest.mark.parametrize("override, where", [
    ({"disciplines": [{"key": "geo\ud800"}]}, "disciplines[0].key"),
    ({"disciplines": [{"key": "geology", "name": "Geo\udfffogy"}]}, "disciplines[0].name"),
    ({"current_minimums": {"geo\ud800": {"publications": 1}}}, "current_minimums.geo\\ud800"),  # the key escaped
    ({"domestic_language": "h\udc00u"}, "domestic_language"),
])
def test_lone_surrogate_is_refused_naming_the_key_path(tmp_path, override, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, **override}), encoding="utf-8")
    text = re.search(r'"[^"]*\\u[dD][89a-fA-F]\w\w[^"]*"', path.read_text(encoding="utf-8"))[0]
    with pytest.raises(ConfigError) as caught:
        load_pipeline_config(path)
    assert str(caught.value) == f"{path}: bad config: {where}: {text} holds a lone surrogate, which UTF-8 cannot encode"


def test_derived_minimums_exclude_core_and_unscalable_kinds():
    config = default_config()
    rows = recalibrate_all(read_apv_table(APV_TABLE), config.disciplines, config.current_minimums,
                           config.recalibration)
    derived = derived_scaled_minimums(rows, config.current_minimums, CountingMethod.INTEGER,
                                      config.recalibration.rounding)
    kinds = {kind for _, kind in derived}
    assert IndicatorKind.PUBLICATIONS not in kinds
    assert IndicatorKind.H_INDEX not in kinds
    assert IndicatorKind.WOS_INDEPENDENT_CITATIONS not in kinds
    assert IndicatorKind.FIRST_AUTHOR_PUBLICATIONS in kinds
    assert ("social_geography", IndicatorKind.BOOKS_AND_MONOGRAPHS) in derived


def test_discipline_order_and_display_names_come_from_the_registry(tmp_path):
    """The ``disciplines`` list orders every recalibration output by itself:
    reversed, it reverses the rows of each (kind, method) group of
    ``recalibration.csv`` and of every ``dsdr_*`` file, and nothing else
    changes. Display names are the registry's own and reach no output."""
    order = list(reversed(default_config().disciplines))
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps({"schema_version": 1, "disciplines": [{"key": key, "name": key.upper()} for key in order]}),
                    encoding="utf-8")
    assert load_pipeline_config(path).disciplines == {key: key.upper() for key in order}
    assert main(["recalibrate", "--apv-table", str(APV_TABLE), "--out-dir", str(tmp_path / "default")]) == 0
    assert main(["recalibrate", "--apv-table", str(APV_TABLE), "--config", str(path),
                 "--out-dir", str(tmp_path / "reversed")]) == 0
    names = sorted(file.name for file in (tmp_path / "default").iterdir())
    assert names == ["dsdr_cumulative_if.csv", "dsdr_independent_citations.csv", "dsdr_publications.csv",
                     "dsdr_wos_articles.csv", "recalibration.csv"]
    for name in names:
        default, reversed_ = ((tmp_path / run / name).read_text(encoding="utf-8").splitlines()
                              for run in ("default", "reversed"))
        assert reversed_[0] == default[0]
        assert sorted(reversed_[1:]) == sorted(default[1:])
        groups = (len(default) - 1) // len(order)
        assert [line.split(",")[0] for line in reversed_[1:]] == order * groups
