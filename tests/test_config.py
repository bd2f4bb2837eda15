from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from recal.config import (
    ConfigError,
    default_config,
    load_pipeline_config,
    save_pipeline_config,
)
from recal.corpus import PubType, YearWindow
from recal.counting import CountingMethod, IndicatorKind


def test_default_config_round_trips_through_file(tmp_path):
    config = default_config()
    path = tmp_path / "config.json"
    save_pipeline_config(config, path)
    loaded = load_pipeline_config(path)
    assert loaded.disciplines == config.disciplines
    assert loaded.current_minimums == config.current_minimums
    assert loaded.pub_window == config.pub_window
    assert loaded.recalibration.t == config.recalibration.t
    assert loaded.recalibration.ym_decimals == 3
    assert loaded == config


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


def test_derived_cmv_excludes_core_and_unscalable_kinds():
    derived = default_config().derived_cmv()
    kinds = {kind for _, kind in derived}
    assert IndicatorKind.PUBLICATIONS not in kinds
    assert IndicatorKind.H_INDEX not in kinds
    assert IndicatorKind.WOS_INDEPENDENT_CITATIONS not in kinds
    assert IndicatorKind.FIRST_AUTHOR_PUBLICATIONS in kinds
    assert ("social_geography", IndicatorKind.BOOKS_AND_MONOGRAPHS) in derived


def _changed_minimums(config):
    cell = next(iter(config.current_minimums))
    return {"current_minimums": {**config.current_minimums, cell: config.current_minimums[cell] + 1}}


def _reordered_disciplines(config):
    return {"disciplines": dict(reversed(config.disciplines.items()))}


@pytest.mark.parametrize("change", [_changed_minimums, _reordered_disciplines],
                         ids=["current_minimums", "disciplines"])
def test_pipeline_config_refuses_copies_that_disagree(change):
    config = default_config()
    with pytest.raises(ConfigError, match="must equal disciplines and current_minimums"):
        replace(config, **change(config))
    # changing both copies together is fine, and display names are not copied
    change = change(config)
    recalibration = replace(config.recalibration, cmv=change.get("current_minimums", config.current_minimums),
                            disciplines=tuple(change.get("disciplines", config.disciplines)))
    assert replace(config, **change, recalibration=recalibration).recalibration is recalibration
    assert replace(config, disciplines={key: key.upper() for key in config.disciplines}).disciplines["geology"] == "GEOLOGY"
