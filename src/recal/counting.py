"""Per-researcher indicator values under integer and fractional counting.

Integer counting gives every author of a publication one full credit;
fractional counting splits one credit equally among its authors. Citation
indicators weight each publication's independent-citation count by the same
credit share, and the cumulative impact factor weights the journal's factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping, Sequence

from .corpus import Corpus, CorpusError, PublicationRecord, PubType, YearWindow, independent_citations


class CountingMethod(str, Enum):
    INTEGER = "integer"
    FRACTIONAL = "fractional"


class IndicatorKind(str, Enum):
    PUBLICATIONS = "publications"
    WOS_ARTICLES = "wos_articles"
    INDEPENDENT_CITATIONS = "independent_citations"
    CUMULATIVE_IF = "cumulative_if"
    FIRST_AUTHOR_PUBLICATIONS = "first_author_publications"
    PUBLICATIONS_SINCE_DEGREE = "publications_since_degree"
    BOOKS_AND_MONOGRAPHS = "books_and_monographs"
    FOREIGN_LANGUAGE_PUBLICATIONS = "foreign_language_publications"
    WOS_ARTICLES_SINCE_DEGREE = "wos_articles_since_degree"
    WOS_INDEPENDENT_CITATIONS = "wos_independent_citations"
    H_INDEX = "h_index"


#: Kinds recalibrated directly from top-quartile performance.
CORE_KINDS = (
    IndicatorKind.PUBLICATIONS,
    IndicatorKind.WOS_ARTICLES,
    IndicatorKind.INDEPENDENT_CITATIONS,
    IndicatorKind.CUMULATIVE_IF,
)

#: Kinds that need the researcher's last degree year.
SINCE_DEGREE_KINDS = frozenset({IndicatorKind.PUBLICATIONS_SINCE_DEGREE, IndicatorKind.WOS_ARTICLES_SINCE_DEGREE})

_CITATION_KINDS = frozenset({IndicatorKind.INDEPENDENT_CITATIONS, IndicatorKind.WOS_INDEPENDENT_CITATIONS})


class CountingError(CorpusError):
    pass


class MissingDegreeYearError(CountingError):
    def __init__(self, researcher_id: str, kind: IndicatorKind):
        super().__init__(
            f"researcher {researcher_id!r} has no last_degree_year but {kind.value} needs one"
        )


@dataclass(frozen=True)
class CountingSettings:
    """Corpus-independent knobs of the indicator filters.

    ``counted_publication_types`` restricts which publication types count for
    the plain publication-count kinds (None = all types, the default).
    """

    domestic_language: str = "hu"
    counted_publication_types: frozenset[PubType] | None = None

    def counts_as_publication(self, pub: PublicationRecord) -> bool:
        if self.counted_publication_types is None:
            return True
        return pub.pub_type in self.counted_publication_types


DEFAULT_SETTINGS = CountingSettings()


@dataclass(frozen=True)
class IndicatorVector:
    """All configured indicator values for one researcher under one method."""

    researcher_id: str
    method: CountingMethod
    values: Mapping[IndicatorKind, float]


def indicator_matrix(
    corpus: Corpus,
    kinds: Sequence[IndicatorKind],
    methods: Sequence[CountingMethod],
    pub_window: YearWindow,
    citation_window: YearWindow,
    settings: CountingSettings = DEFAULT_SETTINGS,
    researcher_ids: Sequence[str] | None = None,
) -> list[IndicatorVector]:
    """One vector per (researcher, method), in ``researcher_ids`` order
    (default: every researcher, by id), then in the given method order.

    Publications are selected by publication year in ``pub_window``; citation
    indicators and the h-index count independent citations whose citing year
    is in ``citation_window``. One walk over the corpus publications, in file
    order, scans each in-window publication that has a requested co-author
    for its independent citations once and adds what it is worth, under
    every method, to each of those co-authors: its amount times 1 (integer)
    or 1/n of its n authors (fractional). The h-index is a rank statistic
    over citation counts, not a credit sum, so every vector carries the same
    integer h whatever its method.
    """
    if researcher_ids is None:
        researcher_ids = sorted(corpus.researchers)
    summed = [kind for kind in dict.fromkeys(kinds) if kind is not IndicatorKind.H_INDEX]
    # one running sum per (method, summed kind), its slot; the slots are grouped by who gets
    # the kind's amount: every co-author, the first author, or a co-author with a degree by then
    groups: tuple[list, list, list] = ([], [], [])
    for slot, (method, kind) in enumerate(product(methods, summed)):
        group = 2 if kind in SINCE_DEGREE_KINDS else 1 if kind is IndicatorKind.FIRST_AUTHOR_PUBLICATIONS else 0
        groups[group].append((slot, kind, method is CountingMethod.FRACTIONAL))
    # per researcher: degree year, in-window citation counts and the sums by slot;
    # an empty publication sum stays the int 0 of sum(), printed as 0 by evaluate
    zero_sums = [0.0 if kind in _CITATION_KINDS else 0 for _ in methods for kind in summed]
    states: dict[str, tuple[int | None, list[int], list[float]]] = {}
    for researcher_id in researcher_ids:
        degree_year = corpus.researcher(researcher_id).last_degree_year
        for kind in summed:
            if kind in SINCE_DEGREE_KINDS and degree_year is None:
                raise MissingDegreeYearError(researcher_id, kind)
        states[researcher_id] = (degree_year, [], zero_sums.copy())

    for pub in corpus.publications.values():
        if states.keys().isdisjoint(pub.author_ids) or pub.year not in pub_window:
            continue
        links = independent_citations(corpus, pub, citation_window)
        cited, first_author = len(links), pub.first_author
        counted = settings.counts_as_publication(pub)
        article = pub.pub_type is PubType.JOURNAL_ARTICLE
        wos_article = article and pub.wos_indexed
        # what the publication adds to each kind before it is weighted by credit; None where it does not count
        amounts = {
            IndicatorKind.PUBLICATIONS: counted or None,
            IndicatorKind.WOS_ARTICLES: wos_article or None,
            IndicatorKind.INDEPENDENT_CITATIONS: cited,
            IndicatorKind.CUMULATIVE_IF: pub.impact_factor if article else None,
            IndicatorKind.FIRST_AUTHOR_PUBLICATIONS: counted or None,
            IndicatorKind.PUBLICATIONS_SINCE_DEGREE: counted or None,
            IndicatorKind.BOOKS_AND_MONOGRAPHS: pub.pub_type is PubType.BOOK or None,
            IndicatorKind.FOREIGN_LANGUAGE_PUBLICATIONS: (
                counted and pub.language != settings.domestic_language
            ) or None,
            IndicatorKind.WOS_ARTICLES_SINCE_DEGREE: wos_article or None,
            IndicatorKind.WOS_INDEPENDENT_CITATIONS: sum(1 for link in links if link.citing_wos_indexed),
        }
        share = 1.0 / pub.author_count
        to_every, to_first, to_since_degree = (
            [(slot, amounts[kind] * (share if fractional else 1.0)) for slot, kind, fractional in group
             if amounts[kind] is not None]
            for group in groups
        )
        for author in pub.author_ids:
            if (state := states.get(author)) is None:
                continue
            degree_year, citation_counts, sums = state
            citation_counts.append(cited)
            additions = to_every
            if author == first_author:
                additions = additions + to_first
            if degree_year is not None and pub.year >= degree_year:
                additions = additions + to_since_degree
            for slot, amount in additions:
                sums[slot] += amount

    vectors: list[IndicatorVector] = []
    for researcher_id in researcher_ids:
        _, citation_counts, sums = states[researcher_id]
        citation_counts.sort(reverse=True)
        h = float(sum(1 for rank, count in enumerate(citation_counts, start=1) if count >= rank))
        for m, method in enumerate(methods):
            values = {
                kind: h if kind is IndicatorKind.H_INDEX else sums[m * len(summed) + summed.index(kind)]
                for kind in kinds
            }
            vectors.append(IndicatorVector(researcher_id, method, values))
    return vectors


def indicator_value(
    corpus: Corpus,
    researcher_id: str,
    kind: IndicatorKind,
    method: CountingMethod,
    pub_window: YearWindow,
    citation_window: YearWindow,
    settings: CountingSettings = DEFAULT_SETTINGS,
) -> float:
    """One researcher's value of one indicator, as ``indicator_matrix``
    computes it; the h-index is the same under both methods."""
    (vector,) = indicator_matrix(
        corpus, [kind], [method], pub_window, citation_window, settings, [researcher_id]
    )
    return vector.values[kind]


def h_index(
    corpus: Corpus,
    researcher_id: str,
    pub_window: YearWindow,
    citation_window: YearWindow,
) -> int:
    """Largest h such that at least h in-window publications each received at
    least h independent citations inside the citation window."""
    value = indicator_value(
        corpus, researcher_id, IndicatorKind.H_INDEX, CountingMethod.INTEGER, pub_window, citation_window
    )
    return int(value)

