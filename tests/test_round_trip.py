"""Every writer/reader pair round trips or refuses.

Whatever a save function writes, its loader reads back equal; a value that
the loader would refuse or change is refused at save, naming its row or key
path, before the file is opened. The config has no writer: a document of
drawn values loads as the config of those values, or is refused naming the
key path. The corpus and the threshold table have their own properties in
``test_corpus.py`` and ``test_evaluation.py``.
"""
from __future__ import annotations

import json
import math
import re
import tempfile
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from recal.config import ConfigError, PipelineConfig, load_pipeline_config
from recal.corpus import PubType, YearWindow, read_cells
from recal.counting import CountingMethod, IndicatorKind
from recal.evaluation import (
    THRESHOLD_FIELDS, EvaluationError, ThresholdTable, load_threshold_table, minimum_cell, save_threshold_table,
)
from recal.recalibration import (
    APV_FIELDS, Cell, DisciplinePerformance, RecalibrationConfig, RecalibrationError, RoundingMode, read_apv_table,
    write_apv_table,
)
from recal.synthgen import (
    SYNTH_LIMITS, SynthDisciplineParams, SynthError, SynthSpec, default_spec, load_synth_spec, save_synth_spec,
)

#: Text cells and keys, ordinary and odd: padded, empty, upper-case, quoted, multi-line, lone surrogates.
TEXTS = st.one_of(
    st.sampled_from(["geology", "mining", "hu", "", " geology", "geology\t", "a,b", 'a"b', "a\nb", "a\rb", "\x85x",
                     "x　", "x\ud800", "\x00", "HU", "İ"]),
    st.text(st.characters(blacklist_categories=()), max_size=4),  # surrogates included
)


def _mostly(usual: st.SearchStrategy, odd: st.SearchStrategy, one_in: int) -> st.SearchStrategy:
    """A draw from ``usual``, and about one time in ``one_in`` from ``odd``, so
    that most values reach the loader."""
    return st.integers(1, one_in).flatmap(lambda n: odd if n == one_in else usual)


#: Text that every reader gives back as written, lowercase as a language must be, or one time in twenty ``TEXTS``.
TEXT = _mostly(st.text("abcdefghijklmnopqrstuvwxyz_é", min_size=1, max_size=8), TEXTS, 20)
#: A positive ``int`` or ``float`` that a JSON number or a table cell holds exactly.
POSITIVE = st.one_of(st.floats(min_value=0, exclude_min=True, allow_infinity=False), st.integers(1, 2**53))


def _not_kept(text: str) -> bool:
    """Whether the readers would refuse or change ``text``: they strip it and
    refuse it empty, and no UTF-8 file holds a lone surrogate."""
    return not text or text != text.strip() or _has_surrogate(text)


def _has_surrogate(text: str) -> bool:
    return re.search("[\ud800-\udfff]", text) is not None


def _number_not_kept(value: object) -> bool:
    """Whether a number leaf would not load back equal: it is not an ``int``
    or a ``float`` (a boolean is neither), or the float its text reads as
    is not finite or not equal to it, as for 2**53 + 1."""
    return type(value) not in (int, float) or not math.isfinite(number := float(str(value))) or number != value


#: Any year window: a pair of integers, in order.
WINDOWS = st.lists(st.integers(), min_size=2, max_size=2).map(sorted).map(lambda pair: YearWindow(*pair))


# --------------------------------------------------------------------------
# One entry per pair: values, the file name (the APV reader takes its format
# from the suffix), save, load, what loads back, whether the loader refuses or
# changes the value, and the pattern of a refusal's start

def _apv_pair(fmt: str) -> tuple:
    rows = st.dictionaries(
        st.tuples(TEXT, st.sampled_from(list(IndicatorKind)), st.sampled_from(list(CountingMethod))),
        st.builds(
            DisciplinePerformance,
            _mostly(POSITIVE, st.one_of(st.floats(), st.integers(), st.decimals(), st.sampled_from(
                [0.0, -1.5, 5e-324, 0.1 + 0.2, 1.7e308, True, False, Decimal("1.5"), 2**53 + 1])), 20),
            st.integers(0, 99), st.integers(0, 99),
        ),
        max_size=4,
    )

    def refused(performance: dict[Cell, DisciplinePerformance]) -> bool:
        return any(
            _not_kept(discipline) or _number_not_kept(p.apv) or p.apv <= 0
            for (discipline, _, _), p in performance.items()
        )

    return (
        rows, f"performance.{'csv' if fmt == 'dsv' else fmt}",
        lambda performance, path: write_apv_table(performance, path, fmt), read_apv_table,
        lambda performance: {cell: p.apv for cell, p in performance.items()},
        refused, r"row \d+ \(",
    )


#: The kinds a config may recalibrate, and the numbers ``RecalibrationConfig`` takes for ``t_years``: any positive
#: ``int`` or ``float`` that compares as finite, one time in twenty one past the floats, which save refuses.
T_KINDS = [kind for kind in IndicatorKind if kind is not IndicatorKind.H_INDEX]
T_YEARS = _mostly(POSITIVE, st.sampled_from([2**53 + 1, 10**400]), 20)


@st.composite
def _config_documents(draw) -> tuple[dict, PipelineConfig]:
    """A config document of drawn values, and the config of the same values."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    disciplines = {key: draw(TEXT) for key in keys}
    language, pub_window, citation_window = draw(TEXT), draw(WINDOWS), draw(WINDOWS)
    t = draw(st.dictionaries(st.sampled_from(T_KINDS), T_YEARS, min_size=1))
    minimums = {(key, kind): draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
                for key in keys for kind in t}
    top_fraction = draw(st.one_of(st.floats(min_value=0, max_value=1, exclude_min=True), st.just(1)))
    method, rounding = draw(st.sampled_from(CountingMethod)), draw(st.sampled_from(RoundingMode))
    decimals = draw(st.one_of(st.none(), st.integers(min_value=0)))
    types = draw(st.one_of(st.none(), st.frozensets(st.sampled_from(PubType))))
    document = {
        "schema_version": 1,
        "disciplines": [{"key": key, "name": name} for key, name in disciplines.items()],
        "domestic_language": language,
        "pub_window": [pub_window.start, pub_window.end],
        "citation_window": [citation_window.start, citation_window.end],
        "current_minimums": {key: {kind.value: minimums[key, kind] for kind in t} for key in keys},
        "recalibration": {"top_fraction": top_fraction, "t_years": {kind.value: years for kind, years in t.items()},
                          "ym_source_method": method.value, "ym_decimals": decimals, "rounding": rounding.value},
        "counted_publication_types": None if types is None else [pub_type.value for pub_type in types],
    }
    recalibration = RecalibrationConfig(t=t, top_fraction=top_fraction, ym_source_method=method, rounding=rounding,
                                        ym_decimals=decimals)
    return document, PipelineConfig(disciplines, language, pub_window, citation_window, minimums, recalibration, types)


def _config_refused(config) -> bool:
    language = config.domestic_language
    knobs = config.recalibration
    return (_not_kept(language) or language != language.lower() or any(map(_not_kept, config.disciplines))
            or any(map(_has_surrogate, config.disciplines.values()))
            or _number_not_kept(knobs.top_fraction) or any(map(_number_not_kept, knobs.t.values())))


def _target(low: float, high: float, integer: bool) -> st.SearchStrategy:
    """A value ``SynthDisciplineParams`` takes for a target in [low, high]:
    one of its field's type, or an integer for a float field; it refuses a
    float for an integer field, as 2.0, and a boolean anywhere."""
    whole = st.integers(math.ceil(low), math.floor(high))
    return whole if integer else st.one_of(whole, st.floats(low, high))


@st.composite
def _params(draw, discipline: str) -> SynthDisciplineParams:
    """Targets up to ``SYNTH_LIMITS``, the products included."""
    pubs = draw(_target(0, SYNTH_LIMITS["pub_count"], True))
    per_pub = max(pubs, 1)
    return SynthDisciplineParams(
        discipline,
        researcher_count=draw(_target(1, SYNTH_LIMITS["researcher_count"], True)),
        pub_count=pubs,
        multi_ratio_target=draw(_target(0, 100, False)),
        mean_coauthors_multi=draw(_target(2, min(SYNTH_LIMITS["mean_coauthors_multi"],
                                                 SYNTH_LIMITS["pub_count * mean_coauthors_multi"] // per_pub), False)),
        wos_article_ratio=draw(_target(0, 1, False)),
        citation_rate=draw(_target(0, min(SYNTH_LIMITS["citation_rate"],
                                          SYNTH_LIMITS["pub_count * citation_rate"] // per_pub), False)),
        if_mean=draw(_target(0, SYNTH_LIMITS["if_mean"], False)),
        domestic_language_ratio=draw(_target(0, 1, False)),
    )


@st.composite
def _specs(draw):
    disciplines = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    return SynthSpec(seed=draw(st.integers(0, 2**64 - 1)), params=tuple(draw(_params(d)) for d in disciplines),
                     pub_window=draw(WINDOWS), citation_window=draw(WINDOWS), domestic_language=draw(TEXT))


def _spec_refused(spec: SynthSpec) -> bool:
    language = spec.domestic_language
    return _not_kept(language) or language != language.lower() or any(_not_kept(p.discipline) for p in spec.params)


PAIRS = {
    "apv_dsv": _apv_pair("dsv"),
    "apv_jsonl": _apv_pair("jsonl"),
    "spec": (_specs(), "spec.json", save_synth_spec, load_synth_spec, lambda spec: spec, _spec_refused,
             r"{path}: bad generator spec: (disciplines\..*|domestic_language): "),
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_a_saved_value_loads_back_equal_or_is_refused_at_save(pair):
    values, name, save, load, loaded_as, refused, refusal = PAIRS[pair]
    outcomes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(value=values)
    def saved_and_loaded(value):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / name
            try:
                save(value, path)
            except (ConfigError, RecalibrationError, SynthError) as exc:
                assert refused(value), exc
                # a key path holds its key as written, a newline too
                assert re.match(refusal.format(path=re.escape(str(path))), str(exc), re.DOTALL), exc
                assert not path.exists()
                outcomes["refused"] += 1
                return
            assert not refused(value)
            assert load(path) == loaded_as(value)
            outcomes["loaded"] += 1

    saved_and_loaded()
    # most examples reach the loader, so its leaves are checked, not only the refusals of odd text
    assert outcomes["loaded"] >= outcomes["refused"], outcomes


def test_a_config_document_loads_as_its_values_or_is_refused_naming_the_key_path():
    outcomes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(drawn=_config_documents())
    def written_and_loaded(drawn):
        document, config = drawn
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "config.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            try:
                loaded = load_pipeline_config(path)
            except ConfigError as exc:
                assert _config_refused(config), exc
                # a key path holds its key as written, a newline too
                assert re.match(rf"{re.escape(str(path))}: bad config: (disciplines\[\d\]\.(key|name)|domestic_language"
                                r"|recalibration\.(top_fraction|t_years\.\w+)): ", str(exc), re.DOTALL), exc
                outcomes["refused"] += 1
                return
        assert not _config_refused(config)
        assert loaded == config
        outcomes["loaded"] += 1

    written_and_loaded()
    # most examples load, so every leaf is checked, not only the refusals of odd text
    assert outcomes["loaded"] >= outcomes["refused"], outcomes


def test_a_spec_refuses_a_discipline_listed_twice():
    base = default_spec()
    with pytest.raises(SynthError) as caught:
        replace(base, params=(*base.params, replace(base.params[0], researcher_count=1)))
    discipline = base.params[0].discipline
    assert str(caught.value) == f"{discipline}: listed twice; a spec has one set of targets per discipline"


# --------------------------------------------------------------------------
# A table writer refuses a row by its reader's own rule. Each row that the APV
# and threshold writers' refusal tests pin, written by hand and read, is
# refused in the words after the writer's "row <n> (<cell>): ", or read back
# as the cell and value that the writer names. A lone surrogate fits in no
# UTF-8 file and only a JSON escape holds one, so such a row is written as
# JSONL; the threshold table is read as JSONL through ``read_cells`` with its
# reader's row rule.

def _apv_refusal(fmt: str, discipline: str = "geology", apv: float = 1.5) -> tuple:
    """The writer's call and format, then the reader's fields, lead lines and
    rows as the writer would write them, and the reader."""
    cells = (("mining", 2.5), (discipline, apv))
    performance = {(d, IndicatorKind.PUBLICATIONS, CountingMethod.INTEGER): DisciplinePerformance(value, 8, 2)
                   for d, value in cells}
    return (lambda path: write_apv_table(performance, path, fmt), fmt, APV_FIELDS, [],
            [(d, "publications", "integer", repr(value)) for d, value in cells], read_apv_table)


def _read_thresholds(path: Path) -> dict:
    if path.suffix == ".jsonl":
        return read_cells(path, THRESHOLD_FIELDS, minimum_cell, "", EvaluationError)
    return load_threshold_table(path).minimums


def _threshold_refusal(discipline: str = "geology", minimum: float = 3.0, written: str = "3") -> tuple:
    minimums = {("mining", IndicatorKind.H_INDEX): 2.0, (discipline, IndicatorKind.PUBLICATIONS): minimum}
    return (lambda path: save_threshold_table(ThresholdTable("t", minimums), path), "dsv", THRESHOLD_FIELDS,
            [("label", "t")], [("mining", "h_index", "2"), (discipline, "publications", written)], _read_thresholds)


WRITER_REFUSALS = {
    **{f"apv_{fmt}_{name}": _apv_refusal(fmt, discipline=discipline) for fmt in ("dsv", "jsonl")
       for name, discipline in (("padded", " geology"), ("empty", ""), ("surrogate", "geo\ud800"))},
    **{f"apv_{fmt}_{name}": _apv_refusal(fmt, apv=apv) for fmt in ("dsv", "jsonl")
       for name, apv in (("zero", 0.0), ("negative", -1.5), ("nan", math.nan), ("inf", math.inf))},
    "thresholds_empty": _threshold_refusal(discipline=""),
    "thresholds_padded": _threshold_refusal(discipline=" geology"),
    "thresholds_surrogate": _threshold_refusal(discipline="geology\ud800"),
    "thresholds_rounds_to_zero": _threshold_refusal(minimum=1e-7, written="0"),
}


@pytest.mark.parametrize("case", sorted(WRITER_REFUSALS))
def test_a_row_a_table_writer_refuses_is_one_its_reader_refuses_or_reads_back_otherwise(tmp_path, case):
    write, fmt, fields, lead, rows, read = WRITER_REFUSALS[case]
    with pytest.raises((RecalibrationError, EvaluationError)) as caught:
        write(tmp_path / ("written.jsonl" if fmt == "jsonl" else "written.csv"))
    row, words = re.fullmatch(r"row (\d+) \(.*?\): (.*)", str(caught.value)).groups()

    path = tmp_path / "by_hand.csv"
    if fmt == "jsonl" or any(_has_surrogate(cell) for cells in rows for cell in cells):
        path = path.with_suffix(".jsonl")
        path.write_text("".join(json.dumps(dict(zip(fields, cells))) + "\n" for cells in rows), encoding="utf-8")
    else:
        path.write_text("".join(",".join(cells) + "\n" for cells in [*lead, fields, *rows]), encoding="utf-8")
    try:
        table = read(path)
    except (RecalibrationError, EvaluationError) as exc:
        assert str(exc) == f"{path}:{row}: {words}"
    else:
        cell, value = list(table.items())[int(row) - 1]
        named = ", ".join(repr(part) if type(part) is str else part.value for part in cell)
        assert words == f"reads back as ({named}) with {value!r}"
