from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from recal.corpus import YearWindow, corpus_stats, load_corpus, save_corpus
from recal.defaults import COAUTHORSHIP_PROFILE, DISCIPLINES
from recal.synthgen import (
    SYNTH_LIMITS,
    SynthDisciplineParams,
    SynthError,
    SynthSpec,
    default_spec,
    generate_corpus,
    load_synth_spec,
    save_synth_spec,
)

import reference_section as ref

PUB_WINDOW = YearWindow(2014, 2018)
CITATION_WINDOW = YearWindow(2014, 2019)


def one_discipline_spec(seed=1, **overrides) -> SynthSpec:
    params = dict(
        discipline="geology",
        researcher_count=20,
        pub_count=600,
        multi_ratio_target=92.98,
        mean_coauthors_multi=6.09,
        wos_article_ratio=0.3,
        citation_rate=1.7,
        if_mean=1.5,
        domestic_language_ratio=0.4,
    )
    params.update(overrides)
    return SynthSpec(
        seed=seed,
        params=(SynthDisciplineParams(**params),),
        pub_window=PUB_WINDOW,
        citation_window=CITATION_WINDOW,
    )


def test_zero_publications_still_yields_researchers():
    corpus = generate_corpus(one_discipline_spec(pub_count=0, researcher_count=7))
    assert len(corpus.researchers) == 7
    assert len(corpus.publications) == 0
    assert len(corpus.citations) == 0


def test_same_seed_same_corpus_and_bytes(tmp_path):
    spec = one_discipline_spec(seed=42, pub_count=200)
    first, second = generate_corpus(spec), generate_corpus(spec)
    assert dict(first.researchers) == dict(second.researchers)
    assert dict(first.publications) == dict(second.publications)
    assert first.citations == second.citations
    paths = []
    for tag, corpus in (("a", first), ("b", second)):
        trio = [tmp_path / f"{tag}_{n}.csv" for n in ("r", "p", "c")]
        save_corpus(corpus, *trio)
        paths.append(trio)
    for left, right in zip(*paths):
        assert left.read_bytes() == right.read_bytes()


def test_different_seeds_differ():
    a = generate_corpus(one_discipline_spec(seed=1, pub_count=200))
    b = generate_corpus(one_discipline_spec(seed=2, pub_count=200))
    assert dict(a.publications) != dict(b.publications)


def test_calibration_hits_targets_at_scale():
    spec = one_discipline_spec(
        seed=1,
        pub_count=3277,
        researcher_count=144,
        multi_ratio_target=67.10,
        mean_coauthors_multi=3.72,
    )
    row = corpus_stats(generate_corpus(spec), PUB_WINDOW, ["geology"])["geology"]
    assert row.multi_ratio == pytest.approx(67.10, rel=0.05)
    assert row.avg_coauthors_per_multi == pytest.approx(3.72, rel=0.05)


def test_generated_years_stay_in_windows():
    corpus = generate_corpus(one_discipline_spec(seed=5, pub_count=300))
    assert all(p.year in PUB_WINDOW for p in corpus.publications.values())
    assert all(c.citing_year in CITATION_WINDOW for c in corpus.citations)


def test_generated_citations_are_all_independent():
    corpus = generate_corpus(one_discipline_spec(seed=5, pub_count=300))
    for link in corpus.citations:
        pub = corpus.publications[link.cited_pub_id]
        assert not set(link.citing_author_ids) & set(pub.author_ids)


def test_impact_factor_only_on_wos_journal_articles():
    corpus = generate_corpus(one_discipline_spec(seed=5, pub_count=300))
    for pub in corpus.publications.values():
        if pub.impact_factor is not None:
            assert pub.pub_type.value == "journal_article"
            assert pub.wos_indexed


def test_infeasible_mean_rejected():
    with pytest.raises(SynthError):
        one_discipline_spec(mean_coauthors_multi=1.5)


@pytest.mark.parametrize("name", ["mean_coauthors_multi", "citation_rate", "if_mean"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_target_rejected(name, value):
    # NaN fails no `<` test: a NaN citation rate would give no Poisson draw
    with pytest.raises(SynthError) as caught:
        one_discipline_spec(**{name: value})
    assert str(caught.value) == f"geology: {name}: {value} is not a finite number"


@pytest.mark.parametrize("overrides, problem", [
    ({"researcher_count": 2.0}, "geology: researcher_count: 2.0 is not an integer"),
    ({"pub_count": 5.5}, "geology: pub_count: 5.5 is not an integer"),
    ({"pub_count": True}, "geology: pub_count: true is not an integer"),
    ({"if_mean": True}, "geology: if_mean: true is not a number"),
    ({"seed": 1.5}, "seed: 1.5 is not an integer"),
    ({"seed": True}, "seed: true is not an integer"),
])
def test_a_target_or_seed_of_the_wrong_type_is_refused_as_the_spec_schema_refuses_it(overrides, problem):
    # the generator's range() takes no float, and a boolean count or a float seed is no spec save writes
    with pytest.raises(SynthError) as caught:
        one_discipline_spec(**overrides)
    assert str(caught.value) == problem


@pytest.mark.parametrize("name, limit", SYNTH_LIMITS.items())
def test_a_target_past_its_limit_is_refused_naming_the_discipline_and_the_field(name, limit):
    # a total-work limit, "pub_count * <target>": the publication count at its own limit, and the target where
    # the product meets its limit; alone, a target is set to its limit
    *counts, target = name.split(" * ")
    at_limit = {count: SYNTH_LIMITS[count] for count in counts}
    value = limit // math.prod(at_limit.values())
    one_discipline_spec(**at_limit, **{target: value})
    with pytest.raises(SynthError) as caught:
        one_discipline_spec(**at_limit, **{target: value * 10})
    assert str(caught.value) == f"geology: {name} is {limit * 10}, above the limit of {limit}"


def test_the_limits_admit_the_shipped_spec_at_16x():
    for p in default_spec().params:
        replace(p, researcher_count=p.researcher_count * 16, pub_count=p.pub_count * 16)


def test_pubs_without_researchers_rejected():
    with pytest.raises(SynthError):
        one_discipline_spec(researcher_count=0)


def test_generated_corpus_round_trips(tmp_path):
    corpus = generate_corpus(one_discipline_spec(seed=3, pub_count=150))
    paths = [tmp_path / n for n in ("r.csv", "p.csv", "c.csv")]
    save_corpus(corpus, *paths)
    reloaded = load_corpus(*paths, disciplines=("geology",))
    assert dict(reloaded.publications) == dict(corpus.publications)


def test_default_spec_covers_all_disciplines():
    spec = default_spec()
    assert [p.discipline for p in spec.params] == list(DISCIPLINES)
    for p in spec.params:
        pubs, multi, mean = COAUTHORSHIP_PROFILE[p.discipline]
        assert p.pub_count == pubs
        assert p.mean_coauthors_multi == mean


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    for spec in (one_discipline_spec(seed=17), default_spec(3)):
        save_synth_spec(spec, path)
        assert load_synth_spec(path) == spec


def test_spec_file_rejects_unknown_schema(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"schema_version": 99}', encoding="utf-8")
    with pytest.raises(SynthError):
        load_synth_spec(path)


# --------------------------------------------------------------------------
# Golden bytes: the generator's RNG stream and the writers' bytes are pinned,
# so a change to either shows up here before it moves any downstream number.

GOLDEN_SHA256 = {
    ("seed1", "dsv"): "0fee69e0f6b6da52d6ce3e87610386fa8de732f80ab08ced87b2eb8c6e2a08c2",
    ("seed1", "jsonl"): "9196128c97959afd2ec6bec0da79648379ac5fc0aff70a52db8230b6953f86ed",
    ("seed2", "dsv"): "6e32e57d91cd5dc5e7915d151e09ba0b22b34a2f8b63902efed34b6a4702a492",
    ("seed2", "jsonl"): "45202cdc907704086b20e7ce022080a722a1ded3ba64a5786c69913f08a21249",
    ("tiny", "dsv"): "da498626d5350c1b88396250f99104176a156d3cc2842a3e31cca0431e1d8d44",
    ("tiny", "jsonl"): "3a800086081ec9cea85061a6f3268db2d843c790a574a2ff01bbdf5f8cb590f1",
    ("edge", "dsv"): "aba030f67fb161d0c074686b12ef165e608b61255b0ebafbfae99a02158a46d8",
    ("edge", "jsonl"): "80b496a134cab4c1bb4206ddacad9b5d4bf2172bab3d4028ae6c90be95efaae8",
}


def _tiny_spec() -> SynthSpec:
    # two researchers, six authors per multi-authored paper: most co-author
    # draws find every corpus researcher already on the byline
    return SynthSpec(
        seed=7,
        params=(SynthDisciplineParams("geology", 2, 300, 80.0, 6.0, 0.5, 1.5, 1.0, 0.5),),
        pub_window=PUB_WINDOW,
        citation_window=CITATION_WINDOW,
    )


def _edge_spec() -> SynthSpec:
    # every branch that returns without a draw: no impact factor or citation
    # to draw, author counts pinned at 2, no multi-authored publication, no
    # co-author left to pick, no publication; and ratios of 0 and 1
    return SynthSpec(
        seed=11,
        params=(
            SynthDisciplineParams("geology", 1, 40, 100.0, 2.0, 1.0, 0.0, 0.0, 1.0),
            SynthDisciplineParams("mining", 3, 40, 0.0, 2.0, 0.0, 1.5, 1.2, 0.0),
            SynthDisciplineParams("geography", 2, 0, 50.0, 3.0, 0.5, 1.0, 1.0, 0.5),
        ),
        pub_window=PUB_WINDOW,
        citation_window=CITATION_WINDOW,
    )


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("name", ["seed1", "seed2", "tiny", "edge"])
def test_synth_bytes_match_golden_digest(tmp_path, name, fmt):
    spec = {"seed1": default_spec(1), "seed2": default_spec(2), "tiny": _tiny_spec(), "edge": _edge_spec()}[name]
    suffix = "jsonl" if fmt == "jsonl" else "csv"
    paths = [tmp_path / f"{n}.{suffix}" for n in ("researchers", "publications", "citations")]
    save_corpus(generate_corpus(spec), *paths, fmt=fmt)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256[(name, fmt)]


class _CountingRandom(Random):
    """``Random`` that counts its ``.random()`` draws and refuses every other
    public method, so a draw through a derived helper fails the test."""

    made: list[_CountingRandom] = []  # every instance, in order

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0
        _CountingRandom.made.append(self)

    def __getattribute__(self, name):
        if not name.startswith("_") and name not in ("random", "seed", "draws"):
            raise AssertionError(f"the generator calls Random.{name}")
        return super().__getattribute__(name)

    def random(self):
        self.draws += 1
        return super().random()


def test_generator_draws_through_random_only(monkeypatch):
    _CountingRandom.made = []
    monkeypatch.setattr("recal.synthgen.Random", _CountingRandom)
    generate_corpus(default_spec(1))
    assert [rng.draws for rng in _CountingRandom.made] == [241_164]


class _LastDraw(Random):
    """``Random`` whose every draw is the largest ``random()`` returns."""

    def random(self):
        return 1 - 2**-53


def test_the_largest_draw_gives_each_year_and_pick_that_min_would_give(monkeypatch):
    # The largest draw on the CLI sweep's window (2014, 2**63), where int(r * span) rounds through a float of
    # the span. No citation or co-author is drawn: with every draw this large their loops would not end.
    monkeypatch.setattr("recal.synthgen.Random", _LastDraw)
    r, window = 1 - 2**-53, YearWindow(2014, 2**63)
    spec = replace(
        one_discipline_spec(researcher_count=7, pub_count=30, multi_ratio_target=0, citation_rate=0),
        pub_window=window,
    )
    corpus = generate_corpus(spec)

    def drawn(start):
        span = window.end - start + 1
        return start + min(span - 1, int(r * span))

    assert {p.year for p in corpus.publications.values()} == {drawn(window.start)}
    assert {x.last_degree_year for x in corpus.researchers.values()} == {drawn(window.start - 12)}
    assert len(corpus.publications) == 30
    assert all(set(p.author_ids) <= set(corpus.researchers) for p in corpus.publications.values())


#: The largest value ``random()`` returns. The generator draws a uniform index below a span as
#: ``int(random() * span)``, with no clamp: these two tests show that the index is always below the span.
LARGEST_DRAW = 1 - 2**-53


@settings(max_examples=500, deadline=None)
@given(span=st.integers(1, 2**80))
def test_the_largest_draw_times_a_span_is_below_the_span(span):
    assert int(LARGEST_DRAW * span) < span


def test_the_largest_draw_times_a_span_near_a_power_of_two_is_below_the_span():
    # near a power of two the float of a span is furthest above it, relative to the span
    spans = {span for power in range(75) for span in range(max(1, 2**power - 3000), 2**power + 3001)}
    assert [span for span in sorted(spans) if int(LARGEST_DRAW * span) >= span] == []
