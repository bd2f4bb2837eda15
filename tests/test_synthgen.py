from __future__ import annotations

import hashlib

import pytest

from recal.corpus import YearWindow, corpus_stats, load_corpus, save_corpus
from recal.defaults import COAUTHORSHIP_PROFILE, DISCIPLINES
from recal.synthgen import (
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
    row = corpus_stats(generate_corpus(spec), PUB_WINDOW).per_discipline["geology"]
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
    spec = one_discipline_spec(seed=17)
    path = tmp_path / "spec.json"
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


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("name", ["seed1", "seed2", "tiny"])
def test_synth_bytes_match_golden_digest(tmp_path, name, fmt):
    spec = {"seed1": default_spec(1), "seed2": default_spec(2), "tiny": _tiny_spec()}[name]
    suffix = "jsonl" if fmt == "jsonl" else "csv"
    paths = [tmp_path / f"{n}.{suffix}" for n in ("researchers", "publications", "citations")]
    save_corpus(generate_corpus(spec), *paths, fmt=fmt)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256[(name, fmt)]
