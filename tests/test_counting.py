from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import recal.counting
from recal.corpus import Corpus, PubType, YearWindow, independent_citations
from recal.counting import (
    CountingError,
    CountingMethod,
    CountingSettings,
    IndicatorKind,
    MissingDegreeYearError,
    h_index,
    indicator_matrix,
    indicator_value,
)

from conftest import (
    CITATION_WINDOW,
    PUB_WINDOW,
    citation,
    publication,
    random_corpus,
    researcher,
    small_corpus,
)

INTEGER = CountingMethod.INTEGER
FRACTIONAL = CountingMethod.FRACTIONAL
K = IndicatorKind


# --------------------------------------------------------------------------
# Oracles

def brute_force_values(corpus, kinds, method, pub_window, citation_window, settings):
    """Single pass over all records, crediting every author as it goes.

    Intentionally structured unlike the production path (which iterates each
    researcher's own publications) so the two can cross-check each other.
    """
    totals = {rid: {k: 0.0 for k in kinds if k is not K.H_INDEX} for rid in corpus.researchers}
    for pub in corpus.publications.values():
        if not (pub_window.start <= pub.year <= pub_window.end):
            continue
        independent = [
            link
            for link in corpus.citations
            if link.cited_pub_id == pub.pub_id
            and citation_window.start <= link.citing_year <= citation_window.end
            and not set(link.citing_author_ids) & set(pub.author_ids)
        ]
        for author in pub.author_ids:
            if author not in totals:
                continue
            credit = 1.0 if method is INTEGER else 1.0 / len(pub.author_ids)
            profile = corpus.researchers[author]
            counted = settings.counts_as_publication(pub)
            for kind in totals[author]:
                if kind is K.PUBLICATIONS and counted:
                    totals[author][kind] += credit
                elif kind is K.WOS_ARTICLES:
                    if pub.pub_type is PubType.JOURNAL_ARTICLE and pub.wos_indexed:
                        totals[author][kind] += credit
                elif kind is K.INDEPENDENT_CITATIONS:
                    totals[author][kind] += len(independent) * credit
                elif kind is K.WOS_INDEPENDENT_CITATIONS:
                    totals[author][kind] += (
                        sum(1 for link in independent if link.citing_wos_indexed) * credit
                    )
                elif kind is K.CUMULATIVE_IF:
                    if pub.pub_type is PubType.JOURNAL_ARTICLE and pub.impact_factor is not None:
                        totals[author][kind] += pub.impact_factor * credit
                elif kind is K.FIRST_AUTHOR_PUBLICATIONS and counted:
                    if pub.author_ids[0] == author:
                        totals[author][kind] += credit
                elif kind is K.FOREIGN_LANGUAGE_PUBLICATIONS and counted:
                    if pub.language != settings.domestic_language:
                        totals[author][kind] += credit
                elif kind is K.BOOKS_AND_MONOGRAPHS:
                    if pub.pub_type is PubType.BOOK:
                        totals[author][kind] += credit
                elif kind is K.PUBLICATIONS_SINCE_DEGREE and counted:
                    if profile.last_degree_year is not None and pub.year >= profile.last_degree_year:
                        totals[author][kind] += credit
                elif kind is K.WOS_ARTICLES_SINCE_DEGREE:
                    if (
                        profile.last_degree_year is not None
                        and pub.year >= profile.last_degree_year
                        and pub.pub_type is PubType.JOURNAL_ARTICLE
                        and pub.wos_indexed
                    ):
                        totals[author][kind] += credit
    return totals


def h_index_oracle(citation_counts):
    """Literal definition, checked exhaustively for every candidate h."""
    best = 0
    for h in range(len(citation_counts) + 1):
        if sum(1 for c in citation_counts if c >= h) >= h:
            best = h
    return best


# --------------------------------------------------------------------------
# Credit: what one publication adds to each co-author's publication count

def _credits(author_ids, researcher_ids, method):
    """Each listed researcher's publications value for one publication by ``author_ids``."""
    corpus = small_corpus([researcher(rid) for rid in researcher_ids], [publication("p1", author_ids)])
    vectors = indicator_matrix(corpus, [K.PUBLICATIONS], [method], PUB_WINDOW, CITATION_WINDOW)
    return {v.researcher_id: v.values[K.PUBLICATIONS] for v in vectors}


def test_credit_single_author_both_methods():
    for method in (INTEGER, FRACTIONAL):
        (credit,) = _credits(("r1",), ("r1",), method).values()
        assert credit == 1.0 and type(credit) is float


def test_credit_four_authors_fractional():
    authors = ("r1", "a", "b", "c")
    assert _credits(authors, ("r1", "b"), FRACTIONAL) == {"r1": 0.25, "b": 0.25}
    assert _credits(authors, ("r1", "b"), INTEGER) == {"r1": 1.0, "b": 1.0}


def test_credit_hyperauthorship_extreme():
    authors = tuple(f"a{i}" for i in range(5000))
    assert _credits(authors, ("a0",), FRACTIONAL)["a0"] == pytest.approx(0.0002)


@given(st.integers(min_value=1, max_value=400))
def test_credit_conservation(n_authors):
    authors = tuple(f"a{i}" for i in range(n_authors))
    assert abs(sum(_credits(authors, authors, FRACTIONAL).values()) - 1.0) <= 1e-12
    assert set(_credits(authors, authors, INTEGER).values()) == {1.0}


# --------------------------------------------------------------------------
# Indicator values

def _corpus_three_pubs():
    pubs = [
        publication("p1", ("r1",)),
        publication("p2", ("r1", "x1")),
        publication("p3", ("r1", "x1", "x2", "x3")),
    ]
    return small_corpus([researcher("r1")], pubs)


def test_publications_value_by_enumeration():
    corpus = _corpus_three_pubs()
    # brute force: credits 1, 1, 1 (integer) and 1, 1/2, 1/4 (fractional)
    assert indicator_value(corpus, "r1", K.PUBLICATIONS, INTEGER, PUB_WINDOW, CITATION_WINDOW) == 3.0
    assert indicator_value(
        corpus, "r1", K.PUBLICATIONS, FRACTIONAL, PUB_WINDOW, CITATION_WINDOW
    ) == pytest.approx(1.75)


def test_empty_window_gives_zero_for_every_kind():
    corpus = _corpus_three_pubs()
    window = YearWindow(1999, 2000)
    for kind in K:
        value = indicator_value(corpus, "r1", kind, INTEGER, window, window)
        assert value == 0.0
        # an empty publication sum stays the int 0 of sum(): evaluate prints "value": 0
        floats = (K.INDEPENDENT_CITATIONS, K.WOS_INDEPENDENT_CITATIONS, K.H_INDEX)
        assert type(value) is (float if kind in floats else int)


def test_citation_and_impact_kinds_two_author_pub():
    pub = publication("p1", ("r1", "x1"), wos=True, impact_factor=3.0)
    corpus = small_corpus(
        [researcher("r1")],
        [pub],
        [citation(f"c{i}", "p1", citing=(f"z{i}",)) for i in range(4)],
    )
    args = (PUB_WINDOW, CITATION_WINDOW)
    assert indicator_value(corpus, "r1", K.CUMULATIVE_IF, FRACTIONAL, *args) == pytest.approx(1.5)
    assert indicator_value(corpus, "r1", K.INDEPENDENT_CITATIONS, FRACTIONAL, *args) == pytest.approx(2.0)
    assert indicator_value(corpus, "r1", K.CUMULATIVE_IF, INTEGER, *args) == pytest.approx(3.0)
    assert indicator_value(corpus, "r1", K.INDEPENDENT_CITATIONS, INTEGER, *args) == 4.0


def test_filter_kinds():
    pubs = [
        publication("p1", ("r1", "x1"), language="en", wos=True),
        publication("p2", ("x1", "r1"), language="en"),
        publication("p3", ("r1",), pub_type=PubType.BOOK, language="hu"),
        publication("p4", ("r1",), year=2009),  # before the degree year
    ]
    corpus = small_corpus([researcher("r1", degree_year=2010)], pubs)
    window = YearWindow(2005, 2018)
    args = (window, CITATION_WINDOW)
    assert indicator_value(corpus, "r1", K.FIRST_AUTHOR_PUBLICATIONS, INTEGER, *args) == 3.0
    assert indicator_value(corpus, "r1", K.BOOKS_AND_MONOGRAPHS, INTEGER, *args) == 1.0
    assert indicator_value(corpus, "r1", K.FOREIGN_LANGUAGE_PUBLICATIONS, INTEGER, *args) == 2.0
    assert indicator_value(corpus, "r1", K.PUBLICATIONS_SINCE_DEGREE, INTEGER, *args) == 3.0
    assert indicator_value(corpus, "r1", K.WOS_ARTICLES, INTEGER, *args) == 1.0
    assert indicator_value(corpus, "r1", K.WOS_ARTICLES_SINCE_DEGREE, INTEGER, *args) == 1.0


def test_since_degree_requires_degree_year():
    corpus = small_corpus([researcher("r1", degree_year=None)], [publication("p1", ("r1",))])
    with pytest.raises(MissingDegreeYearError):
        indicator_value(corpus, "r1", K.PUBLICATIONS_SINCE_DEGREE, INTEGER, PUB_WINDOW, CITATION_WINDOW)


def test_wos_citations_filter():
    pub = publication("p1", ("r1",))
    corpus = small_corpus(
        [researcher("r1")],
        [pub],
        [
            citation("c1", "p1", citing=("z1",), wos=True),
            citation("c2", "p1", citing=("z2",), wos=False),
        ],
    )
    value = indicator_value(
        corpus, "r1", K.WOS_INDEPENDENT_CITATIONS, INTEGER, PUB_WINDOW, CITATION_WINDOW
    )
    assert value == 1.0


def test_domestic_language_configurable():
    corpus = small_corpus([researcher("r1")], [publication("p1", ("r1",), language="hu")])
    settings = CountingSettings(domestic_language="en")
    value = indicator_value(
        corpus, "r1", K.FOREIGN_LANGUAGE_PUBLICATIONS, INTEGER, PUB_WINDOW, CITATION_WINDOW, settings
    )
    assert value == 1.0


def test_publication_type_restriction():
    pubs = [
        publication("p1", ("r1",)),
        publication("p2", ("r1",), pub_type=PubType.OTHER),
    ]
    corpus = small_corpus([researcher("r1")], pubs)
    settings = CountingSettings(
        counted_publication_types=frozenset({PubType.JOURNAL_ARTICLE, PubType.BOOK})
    )
    value = indicator_value(
        corpus, "r1", K.PUBLICATIONS, INTEGER, PUB_WINDOW, CITATION_WINDOW, settings
    )
    assert value == 1.0


# --------------------------------------------------------------------------
# h-index

def test_h_index_no_publications():
    corpus = small_corpus([researcher("r1")], [])
    assert h_index(corpus, "r1", PUB_WINDOW, CITATION_WINDOW) == 0


def _corpus_with_citation_counts(counts):
    pubs = []
    citations = []
    serial = 0
    for i, count in enumerate(counts):
        pubs.append(publication(f"p{i}", ("r1",)))
        for _ in range(count):
            citations.append(citation(f"c{serial}", f"p{i}", citing=(f"z{serial}",)))
            serial += 1
    return small_corpus([researcher("r1")], pubs, citations)


@pytest.mark.parametrize("counts", [[10, 8, 5, 4, 3], [1, 1, 1], [0, 0], [3, 3, 3, 3]])
def test_h_index_matches_exhaustive_definition(counts):
    corpus = _corpus_with_citation_counts(counts)
    assert h_index(corpus, "r1", PUB_WINDOW, CITATION_WINDOW) == h_index_oracle(counts)


def test_h_index_expected_values():
    assert h_index_oracle([10, 8, 5, 4, 3]) == 4  # pinned by exhaustive check
    assert h_index(_corpus_with_citation_counts([10, 8, 5, 4, 3]), "r1", PUB_WINDOW, CITATION_WINDOW) == 4
    assert h_index(_corpus_with_citation_counts([1, 1, 1]), "r1", PUB_WINDOW, CITATION_WINDOW) == 1


def test_h_index_is_the_same_under_both_methods():
    corpus = _corpus_with_citation_counts([10, 8, 5, 4, 3])
    args = ("r1", K.H_INDEX)
    fractional = indicator_value(corpus, *args, FRACTIONAL, PUB_WINDOW, CITATION_WINDOW)
    assert fractional == indicator_value(corpus, *args, INTEGER, PUB_WINDOW, CITATION_WINDOW) == 4.0
    assert type(fractional) is float


@given(st.integers(min_value=0, max_value=300))
def test_h_index_bounds(seed):
    corpus = random_corpus(seed=seed)
    for rid in corpus.researchers:
        h = h_index(corpus, rid, PUB_WINDOW, CITATION_WINDOW)
        pubs = [p for p in corpus.publications_of.get(rid, ()) if p.year in PUB_WINDOW]
        assert h <= len(pubs)
        counts = [
            sum(
                1
                for link in corpus.citations_of.get(p.pub_id, ())
                if link.citing_year in CITATION_WINDOW
                and not set(link.citing_author_ids) & set(p.author_ids)
            )
            for p in pubs
        ]
        assert h <= max(counts, default=0)


# --------------------------------------------------------------------------
# Matrix and properties

def test_matrix_cardinality_and_order():
    corpus = small_corpus(
        [researcher("r2"), researcher("r1")],
        [publication("p1", ("r1",))],
    )
    vectors = indicator_matrix(
        corpus, [K.PUBLICATIONS], [INTEGER, FRACTIONAL], PUB_WINDOW, CITATION_WINDOW
    )
    assert [(v.researcher_id, v.method) for v in vectors] == [
        ("r1", INTEGER),
        ("r1", FRACTIONAL),
        ("r2", INTEGER),
        ("r2", FRACTIONAL),
    ]


def test_matrix_empty_corpus():
    corpus = small_corpus([], [])
    assert indicator_matrix(corpus, [K.PUBLICATIONS], [INTEGER], PUB_WINDOW, CITATION_WINDOW) == []


def test_matrix_h_index_in_every_vector():
    corpus = _corpus_with_citation_counts([3, 3, 1])
    vectors = indicator_matrix(
        corpus, [K.PUBLICATIONS, K.H_INDEX], [INTEGER, FRACTIONAL], PUB_WINDOW, CITATION_WINDOW
    )
    assert [v.values for v in vectors] == [
        {K.PUBLICATIONS: 3.0, K.H_INDEX: 2.0},
        {K.PUBLICATIONS: 3.0, K.H_INDEX: 2.0},
    ]
    (h_only,) = indicator_matrix(corpus, [K.H_INDEX], [FRACTIONAL], PUB_WINDOW, CITATION_WINDOW)
    assert h_only.values == {K.H_INDEX: 2.0}


def test_matrix_scans_each_publication_once(monkeypatch):
    corpus = _with_degree_years(random_corpus(seed=10))  # 6 researchers; r0 and r1 share 4 publications
    requested = ["r0", "r1"]
    scanned = []

    def spy(corpus_, pub, window):
        scanned.append(pub.pub_id)
        return independent_citations(corpus_, pub, window)

    monkeypatch.setattr(recal.counting, "independent_citations", spy)
    indicator_matrix(corpus, list(K), [INTEGER, FRACTIONAL], PUB_WINDOW, CITATION_WINDOW, researcher_ids=requested)
    expected = [
        pub.pub_id
        for pub in corpus.publications.values()
        if pub.year in PUB_WINDOW and set(requested) & set(pub.author_ids)
    ]
    assert any(set(requested) <= set(corpus.publications[pid].author_ids) for pid in expected)
    assert scanned == expected


def test_matrix_builds_no_author_index():
    corpus = _with_degree_years(random_corpus(seed=3))
    indicator_matrix(corpus, list(K), [INTEGER], PUB_WINDOW, CITATION_WINDOW, researcher_ids=["r0"])
    assert "publications_of" not in vars(corpus)


def test_matrix_error_names_researcher():
    corpus = small_corpus([researcher("r1", degree_year=None)], [publication("p1", ("r1",))])
    with pytest.raises(CountingError, match="r1"):
        indicator_matrix(corpus, [K.PUBLICATIONS_SINCE_DEGREE], [INTEGER], PUB_WINDOW, CITATION_WINDOW)


ORACLE_KINDS = [k for k in K if k is not K.H_INDEX and k not in (
    K.PUBLICATIONS_SINCE_DEGREE, K.WOS_ARTICLES_SINCE_DEGREE)]
DEGREE_KINDS = [K.PUBLICATIONS_SINCE_DEGREE, K.WOS_ARTICLES_SINCE_DEGREE]


def assert_matches_oracle(corpus, pub_window=PUB_WINDOW, citation_window=CITATION_WINDOW):
    settings = CountingSettings()
    for method in (INTEGER, FRACTIONAL):
        expected = brute_force_values(corpus, ORACLE_KINDS, method, pub_window, citation_window, settings)
        vectors = indicator_matrix(corpus, ORACLE_KINDS, [method], pub_window, citation_window, settings)
        for vector in vectors:
            for kind, value in vector.values.items():
                assert value == pytest.approx(expected[vector.researcher_id][kind], abs=1e-12), (
                    vector.researcher_id,
                    kind,
                    method,
                )


def test_matrix_matches_brute_force_oracle():
    for seed in range(30):
        assert_matches_oracle(random_corpus(seed=seed))


def test_since_degree_kinds_match_oracle_when_defined():
    settings = CountingSettings()
    corpus = small_corpus(
        [researcher("r1", degree_year=2016), researcher("r2", degree_year=2014)],
        [
            publication("p1", ("r1", "r2"), year=2015, wos=True),
            publication("p2", ("r2", "r1"), year=2017),
        ],
    )
    expected = brute_force_values(corpus, DEGREE_KINDS, INTEGER, PUB_WINDOW, CITATION_WINDOW, settings)
    for rid in ("r1", "r2"):
        for kind in DEGREE_KINDS:
            value = indicator_value(corpus, rid, kind, INTEGER, PUB_WINDOW, CITATION_WINDOW, settings)
            assert value == expected[rid][kind]


def _with_degree_years(corpus):
    """The corpus with a degree year for every researcher, so every kind is defined."""
    researchers = {
        rid: profile._replace(last_degree_year=profile.last_degree_year or 2015)
        for rid, profile in corpus.researchers.items()
    }
    return Corpus(researchers, corpus.publications, corpus.citations)


def _independent_citation_counts(corpus, rid):
    return [
        sum(
            1
            for link in corpus.citations
            if link.cited_pub_id == pub.pub_id
            and link.citing_year in CITATION_WINDOW
            and not set(link.citing_author_ids) & set(pub.author_ids)
        )
        for pub in corpus.publications.values()
        if rid in pub.author_ids and pub.year in PUB_WINDOW
    ]


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_one_researcher_matrix_matches_whole_corpus_and_oracle(seed):
    corpus = _with_degree_years(random_corpus(seed=seed))
    kinds = list(K)
    for method in (INTEGER, FRACTIONAL):
        whole = {
            v.researcher_id: v.values
            for v in indicator_matrix(corpus, kinds, [method], PUB_WINDOW, CITATION_WINDOW)
        }
        expected = brute_force_values(
            corpus, kinds, method, PUB_WINDOW, CITATION_WINDOW, CountingSettings()
        )
        for rid in corpus.researchers:
            (vector,) = indicator_matrix(
                corpus, kinds, [method], PUB_WINDOW, CITATION_WINDOW, researcher_ids=[rid]
            )
            assert [(k, v, type(v)) for k, v in vector.values.items()] == [
                (k, v, type(v)) for k, v in whole[rid].items()
            ]
            for kind, value in vector.values.items():
                if kind is K.H_INDEX:
                    assert value == h_index_oracle(_independent_citation_counts(corpus, rid))
                else:
                    assert value == expected[rid][kind], (rid, kind, method)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_fractional_never_exceeds_integer(seed):
    corpus = random_corpus(seed=seed)
    for rid in corpus.researchers:
        for kind in ORACLE_KINDS:
            frac = indicator_value(corpus, rid, kind, FRACTIONAL, PUB_WINDOW, CITATION_WINDOW)
            integral = indicator_value(corpus, rid, kind, INTEGER, PUB_WINDOW, CITATION_WINDOW)
            assert frac <= integral + 1e-12


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_integer_count_kinds_are_whole_numbers(seed):
    corpus = random_corpus(seed=seed)
    for rid in corpus.researchers:
        for kind in ORACLE_KINDS:
            if kind is K.CUMULATIVE_IF:
                continue
            value = indicator_value(corpus, rid, kind, INTEGER, PUB_WINDOW, CITATION_WINDOW)
            assert value == int(value)


def test_adding_a_publication_never_decreases_values():
    base_pubs = [publication("p1", ("r1", "x1"))]
    extra = publication("p9", ("r1",), language="en", wos=True, impact_factor=1.2)
    before = small_corpus([researcher("r1")], base_pubs)
    after = small_corpus([researcher("r1")], base_pubs + [extra])
    for method in (INTEGER, FRACTIONAL):
        for kind in ORACLE_KINDS:
            v_before = indicator_value(before, "r1", kind, method, PUB_WINDOW, CITATION_WINDOW)
            v_after = indicator_value(after, "r1", kind, method, PUB_WINDOW, CITATION_WINDOW)
            assert v_after >= v_before - 1e-12


def test_adding_a_citation_never_decreases_values():
    pub = publication("p1", ("r1",))
    before = small_corpus([researcher("r1")], [pub], [citation("c1", "p1", citing=("z1",))])
    after = small_corpus(
        [researcher("r1")], [pub],
        [citation("c1", "p1", citing=("z1",)), citation("c2", "p1", citing=("z2",))],
    )
    for method in (INTEGER, FRACTIONAL):
        for kind in (K.INDEPENDENT_CITATIONS, K.WOS_INDEPENDENT_CITATIONS):
            assert indicator_value(
                after, "r1", kind, method, PUB_WINDOW, CITATION_WINDOW
            ) >= indicator_value(before, "r1", kind, method, PUB_WINDOW, CITATION_WINDOW)


def test_window_additivity_for_count_kinds():
    for seed in range(12):
        corpus = random_corpus(seed=seed)
        whole = YearWindow(2014, 2018)
        left, right = YearWindow(2014, 2016), YearWindow(2017, 2018)
        for rid in corpus.researchers:
            for kind in (K.PUBLICATIONS, K.WOS_ARTICLES, K.FOREIGN_LANGUAGE_PUBLICATIONS):
                total = indicator_value(corpus, rid, kind, FRACTIONAL, whole, CITATION_WINDOW)
                split = indicator_value(
                    corpus, rid, kind, FRACTIONAL, left, CITATION_WINDOW
                ) + indicator_value(corpus, rid, kind, FRACTIONAL, right, CITATION_WINDOW)
                assert total == pytest.approx(split, abs=1e-12)

