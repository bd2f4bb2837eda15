"""Pipeline configuration: discipline registry, windows, minimums, and the
recalibration knobs, loadable from a versioned JSON document.

Every key except ``schema_version`` is optional; omitted keys fall back to
the shipped defaults (the nine-discipline section, 2014-2018 publications,
2014-2019 citations, top quarter, t=5 years). ``check_document`` checks it,
and the generator spec, against a schema table, on load and before a save;
every error names the file and the key path.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping

from . import defaults
from .corpus import LONE_SURROGATE, PubType, RecalError, YearWindow, finite_float, has_lone_surrogate, text_not_kept
from .counting import CountingMethod, CountingSettings, IndicatorKind
from .evaluation import ThresholdTable
from .recalibration import RecalibrationConfig, RoundingMode

SCHEMA_VERSION = 1


class ConfigError(RecalError):
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
        if not self.disciplines:
            raise ConfigError("no disciplines configured")
        for kind in self.recalibration.t:
            for discipline in self.disciplines:
                if (discipline, kind) not in self.current_minimums:
                    raise ConfigError(f"no CMV for ({discipline}, {kind.value})")
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


def default_config() -> PipelineConfig:
    return PipelineConfig(
        disciplines=dict(defaults.DISCIPLINES),
        domestic_language=defaults.DEFAULT_DOMESTIC_LANGUAGE,
        pub_window=defaults.DEFAULT_PUB_WINDOW,
        citation_window=defaults.DEFAULT_CITATION_WINDOW,
        current_minimums=dict(defaults.CURRENT_MINIMUMS),
        recalibration=RecalibrationConfig(t=dict(defaults.DEFAULT_T)),
    )


# --------------------------------------------------------------------------
# Document schemas: one walk checks a JSON document against a table of rules

class SchemaError(Exception):
    """A value that breaks its rule; ``args`` are its key path and the problem."""


@dataclass(frozen=True)
class Rule:
    """One node of a document schema. A value that fails ``test`` is not
    ``noun``; ``convert`` makes what the loader keeps, and a ``ValueError`` it
    raises refuses the value. An array's elements pass ``item``; an object's
    keys pass ``key`` and its values ``item``, or, for a table, ``fields``
    names its keys: the ``required`` ones must be there, others are refused."""

    noun: str
    test: Callable[[object], bool]
    convert: Callable[[Any], Any] = lambda value: value
    item: Rule | None = None
    key: Rule | None = None
    fields: Mapping[str, Rule] | None = None
    required: tuple[str, ...] = ()
    nullable: bool = False  # JSON null passes, as None
    note: str = ""  # appended to the error for an unknown key


def _encodable(text: str) -> str:
    if has_lone_surrogate(text):
        raise ValueError(f"{json.dumps(text)} {LONE_SURROGATE}")
    return text


def _cell(text: str) -> str:
    """``text``, if a reader gives it back as written (``text_not_kept``)."""
    if bad := text_not_kept([text]):
        raise ValueError(f"{json.dumps(text)} {bad[1]}")
    return text


def _number(value: int | float) -> float:
    if (number := finite_float(value)) != value:  # an integer past 2**53 would load as its nearest float
        raise ValueError(f"{value} is an integer that no float equals")
    return number


def _language(text: str) -> str:
    text = _cell(text)
    if text != text.lower():
        raise ValueError(f"{json.dumps(text)} is not lowercase, and the corpus readers lowercase every language")
    return text


INTEGER = Rule("an integer", lambda value: type(value) is int)  # a boolean is not an integer
NUMBER = Rule("a number", lambda value: type(value) in (int, float), _number)
STRING = Rule("a string", lambda value: type(value) is str, _encodable)
VERSION = Rule(f"the supported version {SCHEMA_VERSION}", lambda value: type(value) is int and value == SCHEMA_VERSION)
CELL = Rule("a string", lambda value: type(value) is str, _cell)  # text that a corpus cell holds, as a discipline key
LANGUAGE = replace(CELL, convert=_language)
WINDOW = Rule("a [start, end] pair of years", lambda value: type(value) is list and len(value) == 2,
              lambda pair: YearWindow(*pair), item=INTEGER)


def enum(kind: type[Enum]) -> Rule:
    names = [member.value for member in kind]
    return Rule(f"one of {', '.join(names)}", lambda value: type(value) is str and value in names, kind)


def array(item: Rule, convert: Callable[[list], Any] = list) -> Rule:
    return Rule("an array", lambda value: type(value) is list, convert, item=item)


def mapping(item: Rule, key: Rule = STRING, convert: Callable[[dict], Any] = dict) -> Rule:
    return Rule("an object", lambda value: type(value) is dict, convert, item=item, key=key)


def table(required: Mapping[str, Rule], optional: Mapping[str, Rule], note: str = "") -> Rule:
    """An object whose keys are those of ``required`` and, if present, of ``optional``."""
    fields = {**required, **optional}
    return Rule("an object", lambda value: type(value) is dict, fields=fields, required=tuple(required), note=note)


class _RepeatedKey(dict):
    """A JSON object that names its key ``repeated`` twice."""

    repeated: str


def _json_object(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _RepeatedKey(obj)
        obj.repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
    return obj


def _walk(rule: Rule, value: Any, where: str) -> Any:
    """``value`` checked and converted by ``rule``; ``where`` is its key path
    with a leading dot."""
    if type(value) is _RepeatedKey:
        raise SchemaError(f"{where}.{value.repeated}", "repeated key")
    if value is None and rule.nullable:
        return None
    if not rule.test(value):
        raise SchemaError(where, f"{json.dumps(value)} is not {rule.noun}")
    if rule.fields is not None:
        for name in rule.required:
            if name not in value:
                raise SchemaError(f"{where}.{name}", "missing key")
        for name in value:
            if name not in rule.fields:
                note = f" ({rule.note})" if rule.note else ""
                raise SchemaError(f"{where}.{name}", f"unknown key{note}; known keys: {', '.join(sorted(rule.fields))}")
        value = {name: _walk(rule.fields[name], item, f"{where}.{name}") for name, item in value.items()}
    elif rule.key is not None:
        value = {_walk(rule.key, name, f"{where}.{name}"): _walk(rule.item, item, f"{where}.{name}")
                 for name, item in value.items()}
    elif rule.item is not None:
        value = [_walk(rule.item, item, f"{where}[{i}]") for i, item in enumerate(value)]
    try:
        return rule.convert(value)
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from None


def read_document(path: str | Path, schema: Rule, error: type[Exception], what: str,
                  build: Callable[[dict], Any]) -> Any:
    """``build`` of the JSON document at ``path`` as ``schema`` converts it,
    without its ``schema_version``. A defect, or a ``RecalError`` that
    ``build`` raises, raises ``error`` naming the file and ``what`` the
    document is, and a schema defect its key path too; a file that cannot be
    read raises ``OSError``."""
    with Path(path).open(encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_json_object)
        except (RecursionError, ValueError) as exc:  # invalid JSON, nested too deep, or bytes that are not UTF-8
            raise error(f"{path}: bad {what}: invalid JSON: {exc}") from exc
    doc = check_document(doc, schema, error, f"{path}: bad {what}")
    del doc["schema_version"]
    try:
        return build(doc)
    except RecalError as exc:
        raise error(f"{path}: bad {what}: {exc}") from exc


def check_document(doc: Any, schema: Rule, error: type[Exception], source: str) -> Any:
    """``doc`` as ``schema`` converts it: what a loader keeps, and what a save
    checks before it writes. A defect raises ``error`` naming ``source`` and
    the key path."""
    try:
        return _walk(schema, doc, "")
    except SchemaError as exc:
        where = exc.args[0][1:].encode("utf-8", "backslashreplace").decode("utf-8")  # a lone surrogate as its \u escape
        raise error(f"{source}: {where + ': ' if where else ''}{exc.args[1]}") from None


def _registry(entries: list[dict[str, str]]) -> dict[str, str]:
    """``{key: name}`` of the ``disciplines`` entries, in order; a key listed
    twice is refused, as a key named twice in one JSON object is."""
    registry = _json_object([(entry["key"], entry.get("name", entry["key"])) for entry in entries])
    if type(registry) is _RepeatedKey:
        raise ValueError(f"{json.dumps(registry.repeated)} is registered twice")
    return registry


KIND = enum(IndicatorKind)
CONFIG_SCHEMA = table(
    {"schema_version": VERSION},
    {
        "disciplines": array(table({"key": CELL}, {"name": STRING}), _registry),
        "domestic_language": LANGUAGE,
        "pub_window": WINDOW,
        "citation_window": WINDOW,
        "current_minimums": mapping(
            mapping(NUMBER, KIND),
            key=CELL,
            convert=lambda doc: {(key, kind): value for key, kinds in doc.items() for kind, value in kinds.items()},
        ),
        "recalibration": table({}, {
            "top_fraction": NUMBER,
            "t_years": mapping(NUMBER, KIND),
            "ym_source_method": enum(CountingMethod),
            "ym_decimals": replace(INTEGER, nullable=True),
            "rounding": enum(RoundingMode),
        }),
        "counted_publication_types": replace(array(enum(PubType), frozenset), nullable=True),
    },
    note="the --format option sets the output format",
)


def _config(doc: dict) -> PipelineConfig:
    base = default_config()
    knobs = doc.pop("recalibration", {})  # RecalibrationConfig fields, with t named t_years
    t = knobs.pop("t_years", base.recalibration.t)
    return replace(base, **doc, recalibration=replace(base.recalibration, t=t, **knobs))


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    return read_document(path, CONFIG_SCHEMA, ConfigError, "config", _config)


def save_pipeline_config(config: PipelineConfig, path: str | Path) -> None:
    """Write the config as a JSON document. One that ``load_pipeline_config``
    would refuse raises ``ConfigError`` naming the key path before the file
    is opened."""
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
    check_document(doc, CONFIG_SCHEMA, ConfigError, f"{path}: bad config")
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
