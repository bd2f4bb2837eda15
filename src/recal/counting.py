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
from typing import Sequence

from .corpus import Corpus, CorpusError, PubType, YearWindow, independent_citations


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


#: Kinds that need the researcher's last degree year.
SINCE_DEGREE_KINDS = frozenset({IndicatorKind.PUBLICATIONS_SINCE_DEGREE, IndicatorKind.WOS_ARTICLES_SINCE_DEGREE})

_CITATION_KINDS = frozenset({IndicatorKind.INDEPENDENT_CITATIONS, IndicatorKind.WOS_INDEPENDENT_CITATIONS})

#: The summed kinds, in the order of a publication's amounts in ``indicator_matrix``.
_AMOUNT_ORDER = tuple(kind for kind in IndicatorKind if kind is not IndicatorKind.H_INDEX)


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


DEFAULT_SETTINGS = CountingSettings()


#: What ``indicator_matrix`` returns: each (researcher id, method)'s values, by kind.
ValueTable = dict[tuple[str, CountingMethod], dict[IndicatorKind, float]]


def indicator_matrix(
    corpus: Corpus,
    kinds: Sequence[IndicatorKind],
    methods: Sequence[CountingMethod],
    pub_window: YearWindow,
    citation_window: YearWindow,
    settings: CountingSettings = DEFAULT_SETTINGS,
    researcher_ids: Sequence[str] | None = None,
) -> ValueTable:
    """The value table: one row per (researcher, method), in ``researcher_ids``
    order (default: every researcher, by id), then in the given method order;
    each row holds the values of ``kinds``, in their order.

    Publications are selected by publication year in ``pub_window``; citation
    indicators and the h-index count independent citations whose citing year
    is in ``citation_window``. One walk over the corpus publications, in file
    order, scans each in-window publication that has a requested co-author
    for its independent citations once and adds what it is worth, under
    every method, to each of those co-authors: its amount times 1 (integer)
    or 1/n of its n authors (fractional). The h-index is a rank statistic
    over citation counts, not a credit sum, so every row holds the same
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
        groups[group].append((slot, _AMOUNT_ORDER.index(kind), method is CountingMethod.FRACTIONAL))
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

    wos_cited = IndicatorKind.WOS_INDEPENDENT_CITATIONS in summed
    domestic, counted_types = settings.domestic_language, settings.counted_publication_types
    start, end = pub_window.start, pub_window.end
    is_disjoint, state_of = states.keys().isdisjoint, states.get
    # the slots a co-author's credit goes to, by [is the first author][has a degree by then]
    every, first, since_degree = groups
    entries = ((every, every + since_degree), (every + first, every + first + since_degree))
    for pub in corpus.publications.values():
        year, author_ids = pub.year, pub.author_ids
        # the window test is YearWindow.__contains__, inlined
        if is_disjoint(author_ids) or not (isinstance(year, int) and start <= year <= end):
            continue
        links = independent_citations(corpus, pub, citation_window)
        cited, first_author, pub_type = len(links), author_ids[0], pub.pub_type
        counted = counted_types is None or pub_type in counted_types or None
        article = pub_type is PubType.JOURNAL_ARTICLE
        wos_article = article and pub.wos_indexed or None
        # what the publication adds to each summed kind, in IndicatorKind order (_AMOUNT_ORDER),
        # before it is weighted by credit; None where it does not count
        amounts = (
            counted, wos_article, cited, pub.impact_factor if article else None, counted, counted,
            pub_type is PubType.BOOK or None, counted and pub.language != domestic or None, wos_article,
            sum(1 for link in links if link.citing_wos_indexed) if wos_cited else None,
        )
        share = 1.0 / len(author_ids)
        for author in author_ids:
            if (state := state_of(author)) is None:
                continue
            degree_year, citation_counts, sums = state
            citation_counts.append(cited)
            has_degree = degree_year is not None and year >= degree_year
            for slot, position, fractional in entries[author == first_author][has_degree]:
                if (amount := amounts[position]) is not None:
                    sums[slot] += amount * (share if fractional else 1.0)

    table: ValueTable = {}
    for researcher_id in researcher_ids:
        # a researcher's working state goes as its rows are written; an id listed again already has them
        if (state := states.pop(researcher_id, None)) is None:
            continue
        _, citation_counts, sums = state
        citation_counts.sort(reverse=True)
        h = float(sum(1 for rank, count in enumerate(citation_counts, start=1) if count >= rank))
        for m, method in enumerate(methods):
            table[researcher_id, method] = {
                kind: h if kind is IndicatorKind.H_INDEX else sums[m * len(summed) + summed.index(kind)]
                for kind in kinds
            }
    return table


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
    table = indicator_matrix(corpus, [kind], [method], pub_window, citation_window, settings, [researcher_id])
    return table[researcher_id, method][kind]


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

