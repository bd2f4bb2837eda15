"""Per-researcher indicator values under integer and fractional counting.

Integer counting gives every author of a publication one full credit;
fractional counting splits one credit equally among its authors. Citation
indicators weight each publication's independent-citation count by the same
credit share, and the cumulative impact factor weights the journal's factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .corpus import (
    Corpus,
    CorpusError,
    PublicationRecord,
    PubType,
    YearWindow,
    independent_citations,
)


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
SINCE_DEGREE_KINDS = frozenset(
    {IndicatorKind.PUBLICATIONS_SINCE_DEGREE, IndicatorKind.WOS_ARTICLES_SINCE_DEGREE}
)

_CITATION_KINDS = frozenset(
    {IndicatorKind.INDEPENDENT_CITATIONS, IndicatorKind.WOS_INDEPENDENT_CITATIONS}
)


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


def publication_credit(
    pub: PublicationRecord, author_id: str, method: CountingMethod
) -> float:
    """Credit an author receives for one publication: 1 under integer
    counting, an equal share 1/n under fractional counting."""
    if author_id not in pub.author_ids:
        raise CountingError(f"author {author_id!r} is not on publication {pub.pub_id!r}")
    if method is CountingMethod.INTEGER:
        return 1.0
    return 1.0 / pub.author_count


def _amounts(
    pub: PublicationRecord,
    researcher_id: str,
    degree_year: int | None,
    settings: CountingSettings,
    cited: int,
    wos_cited: int,
) -> dict[IndicatorKind, float | None]:
    """What one in-window publication adds to each summed kind before it is
    weighted by the author's credit: True (one) for a counted publication,
    the impact factor, or a citation count; None where it does not count."""
    counted = settings.counts_as_publication(pub)
    article = pub.pub_type is PubType.JOURNAL_ARTICLE
    wos_article = article and pub.wos_indexed
    since_degree = degree_year is not None and pub.year >= degree_year
    return {
        IndicatorKind.PUBLICATIONS: counted or None,
        IndicatorKind.WOS_ARTICLES: wos_article or None,
        IndicatorKind.INDEPENDENT_CITATIONS: cited,
        IndicatorKind.CUMULATIVE_IF: pub.impact_factor if article else None,
        IndicatorKind.FIRST_AUTHOR_PUBLICATIONS: (counted and pub.first_author == researcher_id) or None,
        IndicatorKind.PUBLICATIONS_SINCE_DEGREE: (counted and since_degree) or None,
        IndicatorKind.BOOKS_AND_MONOGRAPHS: pub.pub_type is PubType.BOOK or None,
        IndicatorKind.FOREIGN_LANGUAGE_PUBLICATIONS: (
            counted and pub.language != settings.domestic_language
        ) or None,
        IndicatorKind.WOS_ARTICLES_SINCE_DEGREE: (wos_article and since_degree) or None,
        IndicatorKind.WOS_INDEPENDENT_CITATIONS: wos_cited,
    }


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
    is in ``citation_window``. One walk over each researcher's in-window
    publications, in corpus file order, sums every kind under every method.
    The h-index is only defined under integer counting and is silently
    dropped from fractional vectors.
    """
    if researcher_ids is None:
        researcher_ids = sorted(corpus.researchers)
    summed = [kind for kind in dict.fromkeys(kinds) if kind is not IndicatorKind.H_INDEX]
    vectors: list[IndicatorVector] = []
    for researcher_id in researcher_ids:
        degree_year = corpus.researcher(researcher_id).last_degree_year
        for kind in summed:
            if kind in SINCE_DEGREE_KINDS and degree_year is None:
                raise MissingDegreeYearError(researcher_id, kind)
        # an empty publication sum stays the int 0 of sum(), printed as 0 by evaluate
        totals = {
            method: {kind: 0.0 if kind in _CITATION_KINDS else 0 for kind in summed}
            for method in methods
        }
        citation_counts: list[int] = []
        for pub in corpus.publications_of.get(researcher_id, ()):
            if pub.year not in pub_window:
                continue
            links = independent_citations(corpus, pub, citation_window)
            citation_counts.append(len(links))
            wos_cited = sum(1 for link in links if link.citing_wos_indexed)
            amounts = _amounts(pub, researcher_id, degree_year, settings, len(links), wos_cited)
            for method in methods:
                credit = publication_credit(pub, researcher_id, method)
                sums = totals[method]
                for kind in summed:
                    if amounts[kind] is not None:
                        sums[kind] += amounts[kind] * credit
        citation_counts.sort(reverse=True)
        h = sum(1 for rank, count in enumerate(citation_counts, start=1) if count >= rank)
        for method in methods:
            values = {
                kind: float(h) if kind is IndicatorKind.H_INDEX else totals[method][kind]
                for kind in kinds
                if kind is not IndicatorKind.H_INDEX or method is CountingMethod.INTEGER
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
    computes it; asking for a fractional h-index is an error."""
    if kind is IndicatorKind.H_INDEX and method is not CountingMethod.INTEGER:
        raise CountingError("h_index is only defined under integer counting")
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

