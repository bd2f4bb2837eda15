"""The two JSON documents, the pipeline config and the generator spec: their
schema tables, the README examples of both, and a fuzz over every leaf."""
from __future__ import annotations

import copy
import importlib
import json
import math
import re
from pathlib import Path

import pytest

from recal.cli import main
from recal.config import CONFIG_SCHEMA, ConfigError, PipelineConfig, Rule, load_pipeline_config
from recal.counting import IndicatorKind
from recal.synthgen import SPEC_SCHEMA, SynthError, SynthSpec, load_synth_spec, save_synth_spec

APV_TABLE = Path(__file__).parent / "data" / "section_apv.csv"
README = Path(__file__).parents[1] / "README.md"
README_CONFIG, README_SPEC = (
    json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def key_path(path: tuple) -> str:
    """``('disciplines', 0, 'key')`` as the loaders name it: ``disciplines[0].key``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def schema_paths(rule: Rule, prefix: str = "") -> set[str]:
    """Every key path a schema table defines; ``*`` stands for any key of an
    object with free keys, ``[]`` for any element of an array of objects."""
    if rule.fields is not None:
        return set().union(*(schema_paths(item, f"{prefix}.{name}") for name, item in rule.fields.items()))
    if rule.key is not None:
        return schema_paths(rule.item, f"{prefix}.*")
    if rule.item is not None and (rule.item.fields is not None or rule.item.key is not None):
        return schema_paths(rule.item, f"{prefix}[]")
    return {prefix[1:]}


def document_paths(rule: Rule, value: object, prefix: str = "") -> set[str]:
    """The key paths of a document, spelt as ``schema_paths`` spells them."""
    if rule.fields is not None:
        return set().union(*(document_paths(rule.fields[name], item, f"{prefix}.{name}")
                             for name, item in value.items()))
    if rule.key is not None:
        return set().union(*(document_paths(rule.item, item, f"{prefix}.*") for item in value.values()))
    if rule.item is not None and (rule.item.fields is not None or rule.item.key is not None):
        return set().union(*(document_paths(rule.item, item, f"{prefix}[]") for item in value))
    return {prefix[1:]}


@pytest.mark.parametrize("example, schema", [(README_CONFIG, CONFIG_SCHEMA), (README_SPEC, SPEC_SCHEMA)],
                         ids=["config", "spec"])
def test_readme_example_covers_exactly_the_schema_table(example, schema):
    assert document_paths(schema, example) == schema_paths(schema)


def test_readme_examples_load(tmp_path):
    config_path, spec_path = tmp_path / "config.json", tmp_path / "spec.json"
    config_path.write_text(json.dumps(README_CONFIG), encoding="utf-8")
    spec_path.write_text(json.dumps(README_SPEC), encoding="utf-8")
    config = load_pipeline_config(config_path)
    assert config.disciplines == {"geology": "Geology"}
    spec = load_synth_spec(spec_path)
    assert spec.seed == 1 and [p.discipline for p in spec.params] == ["geology"]
    assert run("recalibrate", "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", tmp_path / "r") == 0
    assert run("synth", "--spec", spec_path, "--out-dir", tmp_path / "s") == 0


def test_every_module_name_the_readme_names_resolves():
    # a deletion or rename in src/ that leaves the README naming the old name fails here
    names = sorted(set(re.findall(r"\brecal\.(\w+)\.(\w+)", README.read_text(encoding="utf-8"))))
    assert names
    assert [f"recal.{module}.{name}" for module, name in names
            if not hasattr(importlib.import_module(f"recal.{module}"), name)] == []


# --------------------------------------------------------------------------
# fuzz: every leaf of each README example, given a value of another type

def config_leaf(config: PipelineConfig, leaf: tuple, saved: Path) -> object:
    """The value a loaded config keeps for a leaf of ``README_CONFIG``, as
    the document spells it."""
    match leaf:
        case ("disciplines", i, "key"):
            return list(config.disciplines)[i]
        case ("disciplines", i, "name"):
            return list(config.disciplines.values())[i]
        case ("pub_window" | "citation_window" as name,):
            return [getattr(config, name).start, getattr(config, name).end]
        case ("current_minimums", discipline, kind):
            return config.current_minimums[discipline, IndicatorKind(kind)]
        case ("recalibration", "t_years", kind):
            return config.recalibration.t[IndicatorKind(kind)]
        case ("recalibration", "ym_source_method" | "rounding" as name):
            return getattr(config.recalibration, name).value
        case ("recalibration", name):
            return getattr(config.recalibration, name)
        case ("counted_publication_types",) if config.counted_publication_types is not None:
            return sorted(pub_type.value for pub_type in config.counted_publication_types)
        case (name,):
            return getattr(config, name)


def saved_spec_leaf(spec: SynthSpec, leaf: tuple, saved: Path) -> object:
    """The value a loaded spec keeps for a leaf, as ``save_synth_spec``
    writes it to ``saved``; a spec that it refuses raises."""
    save_synth_spec(spec, saved)
    return value_at(json.loads(saved.read_text(encoding="utf-8")), leaf)


SUBSTITUTES = (True, 1.5, "x", [], {}, math.nan, math.inf)
DOCUMENTS = {
    # example, load, the kept value of a leaf, command reading the file, the document's name in errors
    "config": (README_CONFIG, load_pipeline_config, config_leaf,
               ["recalibrate", "--apv-table", APV_TABLE, "--config"], "config"),
    "spec": (README_SPEC, load_synth_spec, saved_spec_leaf, ["synth", "--spec"], "generator spec"),
}


def leaves(doc: object, path: tuple = ()):
    """The key path of every value that is not an object or an array of
    objects."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, (*path, key))
    elif isinstance(doc, list) and doc and all(isinstance(item, dict) for item in doc):
        for i, value in enumerate(doc):
            yield from leaves(value, (*path, i))
    else:
        yield path


def value_at(doc: object, path: tuple) -> object:
    for key in path:
        doc = doc[key]
    return doc


def json_type(value: object) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_leaf_given_another_value_is_refused_by_key_path_or_loaded_as_given(tmp_path, capsys, name):
    example, load, kept, command, what = DOCUMENTS[name]
    path, saved, out_dir = tmp_path / "document.json", tmp_path / "saved.json", tmp_path / "out"
    failures = []
    for leaf in leaves(example):
        for substitute in SUBSTITUTES:
            doc = copy.deepcopy(example)
            value_at(doc, leaf[:-1])[leaf[-1]] = substitute
            path.write_text(json.dumps(doc), encoding="utf-8")
            case = f"{key_path(leaf)} = {json.dumps(substitute)}"
            try:
                loaded = kept(load(path), leaf, saved)
            except (ConfigError, SynthError) as exc:
                message = str(exc)
                code = run(*command, path, "--out-dir", out_dir)
                err = capsys.readouterr().err
                if code != 1 or err != f"error: {message}\n" or not message.startswith(f"{path}: bad {what}: "):
                    failures.append(f"{case}: exit {code}, {err!r}")
                elif json_type(substitute) != json_type(value_at(example, leaf)) \
                        and not message.startswith(f"{path}: bad {what}: {key_path(leaf)}"):
                    failures.append(f"{case}: refused without naming the key path: {message}")
                continue
            original = value_at(example, leaf)
            if isinstance(substitute, float) and not math.isfinite(substitute):
                failures.append(f"{case}: a non-finite number loaded")
            elif json.dumps(loaded) != json.dumps(substitute):
                failures.append(f"{case}: loaded as {json.dumps(loaded)}")
            elif original is not None and json_type(substitute) != json_type(original):
                failures.append(f"{case}: a {json_type(substitute)} loaded where the example has {json_type(original)}")
    assert not failures, "\n".join(failures)


# --------------------------------------------------------------------------
# repeated keys: JSON keeps only the last of two equal keys, the loaders refuse both

@pytest.mark.parametrize(
    "text, where",
    [
        ('{"schema_version": 1, "current_minimums": {"geology": {"publications": 30},'
         ' "geology": {"publications": 1}}}', "current_minimums.geology: repeated key"),
        ('{"schema_version": 1, "recalibration": {"top_fraction": 2, "top_fraction": 0.5}}',
         "recalibration.top_fraction: repeated key"),
        ('{"schema_version": 1, "schema_version": 1}', "schema_version: repeated key"),
        ('{"schema_version": 1, "disciplines": [{"key": "geology"}, {"key": "geology", "name": "Geology"}]}',
         'disciplines: "geology" is registered twice'),
    ],
    ids=["minimums", "top_fraction", "top_level", "discipline_key"],
)
def test_config_with_a_repeated_key_is_refused_naming_it(tmp_path, text, where):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as refused:
        load_pipeline_config(path)
    assert str(refused.value) == f"{path}: bad config: {where}"


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda text: text.replace('"geology": {', '"geology": {"pub_count": 99, ', 1),
         "disciplines.geology.pub_count: repeated key"),
        (lambda text: text.replace('"disciplines": {', '"disciplines": {"geology": {}, ', 1),
         "disciplines.geology: repeated key"),
        (lambda text: text.replace('"seed": 1', '"seed": 2, "seed": 1', 1), "seed: repeated key"),
        (lambda text: json.dumps({**json.loads(text), "disciplines": {}}), "no disciplines: a spec needs at least one"),
    ],
    ids=["param", "discipline", "seed", "no_disciplines"],
)
def test_spec_with_a_repeated_key_or_no_discipline_is_refused_at_load(tmp_path, capsys, edit, where):
    path = tmp_path / "spec.json"
    text = edit(json.dumps(README_SPEC))
    assert text != json.dumps(README_SPEC)
    path.write_text(text, encoding="utf-8")
    assert run("synth", "--spec", path, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {path}: bad generator spec: {where}\n"
    assert not (tmp_path / "out").exists()
