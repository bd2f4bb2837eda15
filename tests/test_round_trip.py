"""Every writer/reader pair round trips or refuses.

Whatever a save function writes, its loader reads back equal; a value that
the loader would refuse or change is refused at save, naming its row or key
path, before the file is opened. The corpus and the threshold table have
their own properties in ``test_corpus.py`` and ``test_evaluation.py``.
"""
from __future__ import annotations

import math
import re
import tempfile
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from recal.config import ConfigError, default_config, load_pipeline_config, save_pipeline_config
from recal.corpus import PubType, YearWindow
from recal.counting import CountingMethod, IndicatorKind
from recal.recalibration import (
    DisciplinePerformance, RecalibrationConfig, RecalibrationError, RoundingMode, read_apv_table, write_apv_table,
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
    rows = st.lists(st.builds(
        DisciplinePerformance, TEXTS, st.sampled_from(list(IndicatorKind)), st.sampled_from(list(CountingMethod)),
        st.one_of(st.floats(), st.integers(), st.decimals(),
                  st.sampled_from([0.0, -1.5, 5e-324, 0.1 + 0.2, 1.7e308, True, False, Decimal("1.5"), 2**53 + 1])),
        st.integers(0, 99), st.integers(0, 99),
    ), max_size=4)

    def refused(performance: list[DisciplinePerformance]) -> bool:
        cells = [(p.discipline, p.kind, p.method) for p in performance]
        return len(set(cells)) < len(cells) or any(
            _not_kept(p.discipline) or _number_not_kept(p.apv) or p.apv <= 0 for p in performance
        )

    return (
        rows, f"performance.{'csv' if fmt == 'dsv' else fmt}",
        lambda performance, path: write_apv_table(performance, path, fmt), read_apv_table,
        lambda performance: {(p.discipline, p.kind, p.method): p.apv for p in performance},
        refused, r"row \d+ \(",
    )


#: The kinds a config may recalibrate, and any positive number that compares as finite, the ones past the floats and
#: the booleans included, as ``RecalibrationConfig`` takes for ``t_years``.
T_KINDS = [kind for kind in IndicatorKind if kind is not IndicatorKind.H_INDEX]
T_YEARS = st.one_of(st.floats(min_value=0, exclude_min=True, allow_infinity=False), st.integers(min_value=1),
                    st.sampled_from([True, 2**53 + 1, 10**400]))


@st.composite
def _configs(draw):
    base = default_config()
    keys = draw(st.lists(TEXTS, min_size=1, max_size=3, unique=True))
    minimums = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    recalibration = RecalibrationConfig(
        t=draw(st.dictionaries(st.sampled_from(T_KINDS), T_YEARS, min_size=1)),
        top_fraction=draw(st.one_of(st.floats(min_value=0, max_value=1, exclude_min=True), st.sampled_from([1, True]))),
        ym_source_method=draw(st.sampled_from(CountingMethod)),
        rounding=draw(st.sampled_from(RoundingMode)),
        ym_decimals=draw(st.one_of(st.none(), st.integers(min_value=0))),
    )
    return replace(
        base,
        disciplines={key: draw(TEXTS) for key in keys},
        domestic_language=draw(TEXTS),
        pub_window=draw(WINDOWS),
        citation_window=draw(WINDOWS),
        current_minimums={(key, kind): draw(minimums) for key in keys for kind in recalibration.t},
        recalibration=recalibration,
        counted_publication_types=draw(st.one_of(st.none(), st.frozensets(st.sampled_from(PubType)))),
    )


def _config_refused(config) -> bool:
    language = config.domestic_language
    knobs = config.recalibration
    return (_not_kept(language) or language != language.lower() or any(map(_not_kept, config.disciplines))
            or any(map(_has_surrogate, config.disciplines.values()))
            or _number_not_kept(knobs.top_fraction) or any(map(_number_not_kept, knobs.t.values())))


def _target(low: float, high: float, integer: bool) -> st.SearchStrategy:
    """A value ``SynthDisciplineParams`` takes for a target in [low, high]:
    one of its field's type, an integer for a float field too, or one time in
    ten a value that save refuses: a float for an integer field, as 2.0, or a
    boolean where one is in range."""
    whole = st.integers(math.ceil(low), math.floor(high))
    typed = whole if integer else st.one_of(whole, st.floats(low, high))
    refused = st.one_of(whole.map(float) if integer else st.nothing(),
                        *(st.just(value) for value in (False, True) if low <= value <= high))
    return st.integers(0, 9).flatmap(lambda n: typed if n or refused.is_empty else refused)


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
    disciplines = draw(st.lists(TEXTS, min_size=1, max_size=3, unique=True))
    return SynthSpec(seed=draw(st.integers(0, 2**64 - 1)), params=tuple(draw(_params(d)) for d in disciplines),
                     pub_window=draw(WINDOWS), citation_window=draw(WINDOWS), domestic_language=draw(TEXTS))


def _spec_refused(spec: SynthSpec) -> bool:
    language = spec.domestic_language
    targets = [(field.type, type(getattr(p, field.name))) for p in spec.params for field in fields(p)[1:]]
    return (_not_kept(language) or language != language.lower() or any(_not_kept(p.discipline) for p in spec.params)
            or any(kind is bool or declared == "int" and kind is not int for declared, kind in targets))


PAIRS = {
    "apv_dsv": _apv_pair("dsv"),
    "apv_jsonl": _apv_pair("jsonl"),
    "config": (_configs(), "config.json", save_pipeline_config, load_pipeline_config, lambda config: config,
               _config_refused, r"{path}: bad config: (disciplines\[\d\]\.(key|name)|domestic_language"
                                 r"|recalibration\.(top_fraction|t_years\.\w+)): "),
    "spec": (_specs(), "spec.json", save_synth_spec, load_synth_spec, lambda spec: spec, _spec_refused,
             r"{path}: bad generator spec: (disciplines\..*|domestic_language): "),
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_saved_value_loads_back_equal_or_is_refused_at_save(pair, data):
    values, name, save, load, loaded_as, refused, refusal = PAIRS[pair]
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        try:
            save(value, path)
        except (ConfigError, RecalibrationError, SynthError) as exc:
            assert refused(value), exc
            # a key path holds its key as written, a newline too
            assert re.match(refusal.format(path=re.escape(str(path))), str(exc), re.DOTALL), exc
            assert not path.exists()
            return
        assert not refused(value)
        assert load(path) == loaded_as(value)


def test_a_spec_refuses_a_discipline_listed_twice():
    base = default_spec()
    with pytest.raises(SynthError) as caught:
        replace(base, params=(*base.params, replace(base.params[0], researcher_count=1)))
    discipline = base.params[0].discipline
    assert str(caught.value) == f"{discipline}: listed twice; a spec has one set of targets per discipline"
