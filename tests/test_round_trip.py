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
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from recal.config import ConfigError, default_config, load_pipeline_config, save_pipeline_config
from recal.counting import CountingMethod, IndicatorKind
from recal.recalibration import DisciplinePerformance, RecalibrationError, read_apv_table, write_apv_table
from recal.synthgen import SynthError, SynthSpec, default_spec, load_synth_spec, save_synth_spec

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


# --------------------------------------------------------------------------
# One entry per pair: values, the file name (the APV reader takes its format
# from the suffix), save, load, what loads back, whether the loader refuses or
# changes the value, and the pattern of a refusal's start

def _apv_pair(fmt: str) -> tuple:
    rows = st.lists(st.builds(
        DisciplinePerformance, TEXTS, st.sampled_from(list(IndicatorKind)), st.sampled_from(list(CountingMethod)),
        st.one_of(st.floats(), st.sampled_from([0.0, -1.5, 5e-324, 0.1 + 0.2, 1.7e308])),
        st.integers(0, 99), st.integers(0, 99),
    ), max_size=4)

    def refused(performance: list[DisciplinePerformance]) -> bool:
        cells = [(p.discipline, p.kind, p.method) for p in performance]
        return len(set(cells)) < len(cells) or any(
            _not_kept(p.discipline) or not 0 < p.apv < math.inf for p in performance
        )

    return (
        rows, f"performance.{'csv' if fmt == 'dsv' else fmt}",
        lambda performance, path: write_apv_table(performance, path, fmt), read_apv_table,
        lambda performance: {(p.discipline, p.kind, p.method): p.apv for p in performance},
        refused, r"row \d+ \(",
    )


@st.composite
def _configs(draw):
    base = default_config()
    keys = draw(st.lists(TEXTS, min_size=1, max_size=3, unique=True))
    minimums = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    return replace(
        base,
        disciplines={key: draw(TEXTS) for key in keys},
        domestic_language=draw(TEXTS),
        current_minimums={(key, kind): draw(minimums) for key in keys for kind in base.recalibration.t},
    )


def _config_refused(config) -> bool:
    language = config.domestic_language
    return (_not_kept(language) or language != language.lower() or any(map(_not_kept, config.disciplines))
            or any(map(_has_surrogate, config.disciplines.values())))


@st.composite
def _specs(draw):
    base = default_spec()
    disciplines = draw(st.lists(TEXTS, min_size=1, max_size=3, unique=True))
    return replace(base, params=tuple(replace(base.params[0], discipline=d) for d in disciplines),
                   domestic_language=draw(TEXTS))


def _spec_refused(spec: SynthSpec) -> bool:
    language = spec.domestic_language
    return _not_kept(language) or language != language.lower() or any(_not_kept(p.discipline) for p in spec.params)


PAIRS = {
    "apv_dsv": _apv_pair("dsv"),
    "apv_jsonl": _apv_pair("jsonl"),
    "config": (_configs(), "config.json", save_pipeline_config, load_pipeline_config, lambda config: config,
               _config_refused, r"{path}: bad config: (disciplines\[\d\]\.(key|name)|domestic_language): "),
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
