"""Pipeline configuration: discipline registry, windows, minimums, and the
recalibration knobs, loadable from a versioned JSON document.

Every key except ``schema_version`` is optional; omitted keys fall back to
the shipped defaults (the nine-discipline section, 2014-2018 publications,
2014-2019 citations, top quarter, t=5 years). Unknown keys are refused, and
every error names the file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import defaults
from .corpus import PubType, YearWindow, finite_float
from .counting import CountingMethod, CountingSettings, IndicatorKind
from .evaluation import EvaluationError, ThresholdTable
from .recalibration import DEFAULT_BASE_KINDS, RecalibrationConfig, RecalibrationError, RoundingMode

SCHEMA_VERSION = 1
CONFIG_KEYS = frozenset({
    "schema_version", "disciplines", "domestic_language", "pub_window", "citation_window",
    "current_minimums", "recalibration", "counted_publication_types",
})
RECALIBRATION_KEYS = frozenset({"top_fraction", "t_years", "ym_source_method", "ym_decimals", "rounding"})


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    disciplines: Mapping[str, str]  # key -> display name, in output order
    domestic_language: str
    pub_window: YearWindow
    citation_window: YearWindow
    current_minimums: Mapping[tuple[str, IndicatorKind], float]
    recalibration: RecalibrationConfig
    counted_publication_types: frozenset[PubType] | None = None

    def __post_init__(self) -> None:
        for (key, _kind) in self.current_minimums:
            if key not in self.disciplines:
                raise ConfigError(f"minimum for unregistered discipline {key!r}")
        self.current_threshold_table()  # every minimum is positive

    def counting_settings(self) -> CountingSettings:
        return CountingSettings(
            domestic_language=self.domestic_language,
            counted_publication_types=self.counted_publication_types,
        )

    def current_threshold_table(self) -> ThresholdTable:
        return ThresholdTable(label="current minimums", minimums=dict(self.current_minimums))

    def derived_cmv(self) -> dict[tuple[str, IndicatorKind], float]:
        """Current minimums of the indicators that scale off a base kind."""
        return {
            cell: value
            for cell, value in self.current_minimums.items()
            if cell[1] in DEFAULT_BASE_KINDS
        }


def default_config() -> PipelineConfig:
    return PipelineConfig(
        disciplines=dict(defaults.DISCIPLINES),
        domestic_language=defaults.DEFAULT_DOMESTIC_LANGUAGE,
        pub_window=defaults.DEFAULT_PUB_WINDOW,
        citation_window=defaults.DEFAULT_CITATION_WINDOW,
        current_minimums=dict(defaults.CURRENT_MINIMUMS),
        recalibration=RecalibrationConfig(
            disciplines=tuple(defaults.DISCIPLINES),
            cmv=dict(defaults.CURRENT_MINIMUMS),
            t=dict(defaults.DEFAULT_T),
        ),
    )


def _parse_window(doc: object, name: str) -> YearWindow:
    if (
        not isinstance(doc, (list, tuple))
        or len(doc) != 2
        or not all(isinstance(x, int) for x in doc)
    ):
        raise ConfigError(f"{name} must be a [start, end] pair of years")
    return YearWindow(doc[0], doc[1])


def _parse_minimums(doc: Mapping) -> dict[tuple[str, IndicatorKind], float]:
    table: dict[tuple[str, IndicatorKind], float] = {}
    for discipline, kinds in doc.items():
        for kind_name, value in kinds.items():
            try:
                kind = IndicatorKind(kind_name)
            except ValueError:
                raise ConfigError(f"unknown indicator kind {kind_name!r}") from None
            table[(discipline, kind)] = finite_float(value)
    return table


def _refuse_unknown_keys(doc: Mapping, known: frozenset[str], where: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"known keys: {', '.join(sorted(known))}"
        )


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    with Path(path).open(encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (RecursionError, ValueError) as exc:  # invalid JSON, nested too deep, or bytes that are not UTF-8
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: expected schema_version {SCHEMA_VERSION}")

    base = default_config()
    try:
        _refuse_unknown_keys(doc, CONFIG_KEYS, "the config (the --format option sets the output format)")
        disciplines = dict(base.disciplines)
        if "disciplines" in doc:
            disciplines = {}
            for entry in doc["disciplines"]:
                disciplines[entry["key"]] = entry.get("name", entry["key"])

        minimums = dict(base.current_minimums)
        if "current_minimums" in doc:
            minimums = _parse_minimums(doc["current_minimums"])

        recal_doc = doc.get("recalibration", {})
        _refuse_unknown_keys(recal_doc, RECALIBRATION_KEYS, "'recalibration'")
        t = dict(base.recalibration.t)
        if "t_years" in recal_doc:
            t = {IndicatorKind(k): finite_float(v) for k, v in recal_doc["t_years"].items()}
        recalibration = RecalibrationConfig(
            disciplines=tuple(disciplines),
            cmv=minimums,
            t=t,
            top_fraction=float(recal_doc.get("top_fraction", base.recalibration.top_fraction)),
            ym_source_method=CountingMethod(
                recal_doc.get("ym_source_method", base.recalibration.ym_source_method.value)
            ),
            rounding=RoundingMode(recal_doc.get("rounding", base.recalibration.rounding.value)),
            ym_decimals=recal_doc.get("ym_decimals", base.recalibration.ym_decimals),
        )

        domestic_language = doc.get("domestic_language", base.domestic_language)
        if not isinstance(domestic_language, str):
            raise ConfigError(f"domestic_language must be a string, got {domestic_language!r}")

        counted_types = None
        if doc.get("counted_publication_types") is not None:
            counted_types = frozenset(PubType(t) for t in doc["counted_publication_types"])

        return PipelineConfig(
            disciplines=disciplines,
            domestic_language=domestic_language,
            pub_window=(
                _parse_window(doc["pub_window"], "pub_window")
                if "pub_window" in doc
                else base.pub_window
            ),
            citation_window=(
                _parse_window(doc["citation_window"], "citation_window")
                if "citation_window" in doc
                else base.citation_window
            ),
            current_minimums=minimums,
            recalibration=recalibration,
            counted_publication_types=counted_types,
        )
    except (AttributeError, KeyError, TypeError, ValueError,
            ConfigError, EvaluationError, RecalibrationError) as exc:
        raise ConfigError(f"{path}: bad config: {exc}") from exc


def save_pipeline_config(config: PipelineConfig, path: str | Path) -> None:
    minimums: dict[str, dict[str, float]] = {}
    for (discipline, kind), value in config.current_minimums.items():
        minimums.setdefault(discipline, {})[kind.value] = value
    doc = {
        "schema_version": SCHEMA_VERSION,
        "disciplines": [
            {"key": key, "name": name} for key, name in config.disciplines.items()
        ],
        "domestic_language": config.domestic_language,
        "pub_window": [config.pub_window.start, config.pub_window.end],
        "citation_window": [config.citation_window.start, config.citation_window.end],
        "current_minimums": minimums,
        "recalibration": {
            "top_fraction": config.recalibration.top_fraction,
            "t_years": {k.value: v for k, v in config.recalibration.t.items()},
            "ym_source_method": config.recalibration.ym_source_method.value,
            "ym_decimals": config.recalibration.ym_decimals,
            "rounding": config.recalibration.rounding.value,
        },
        "counted_publication_types": (
            None
            if config.counted_publication_types is None
            else sorted(t.value for t in config.counted_publication_types)
        ),
    }
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
