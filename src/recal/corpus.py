"""Corpus data model: researchers, publications, citations.

A corpus is loaded from three files (researchers, publications, citations),
either comma-delimited text with a header row or line-delimited JSON with the
same field names:

* researchers:  ``researcher_id,discipline,has_dsc,last_degree_year``
  (``last_degree_year`` may be empty)
* publications: ``pub_id,year,pub_type,language,wos_indexed,scopus_indexed,
  impact_factor,author_ids,discipline``
  (``impact_factor`` may be empty; ``author_ids`` is ``;``-separated in byline
  order; an empty ``discipline`` is inherited from the first author who is a
  corpus researcher)
* citations:    ``citation_id,cited_pub_id,citing_year,citing_author_ids,
  citing_wos_indexed``

Booleans are the literals ``true``/``false``. Author lists may contain ids of
people who are not corpus researchers (external co-authors); they carry credit
shares but no indicators are computed for them.

Each record is a named tuple whose fields are its file's columns in order,
so ``save_corpus`` hands the records to ``write_table``'s writer as rows. A
DSV cell holding ``,``, ``"``, CR or LF is quoted as ``csv.writer`` quotes it:
wrapped in ``"``, inner quotes doubled. ``write_table`` writes these lines for
every table the program writes. ``save_corpus`` refuses, with a
``CorpusError`` naming the record, a field not of the type its record class
declares, a non-finite float, and a text cell the reader would change, testing
each chunk on the columns it then writes. ``text_not_kept`` states the one
rule for text that loads back as written, and ``save_corpus``, the config and
the threshold- and APV-table writers all ask it: the text is not empty,
has no surrounding whitespace (every text cell is stripped on load) and holds
no lone surrogate (UTF-8 cannot encode one). Two rules belong to one column or
one format: a ``language`` must be lowercase, and a DSV id-list member may not
hold ``;``.

A loaded corpus is immutable and safe to share across threads.
"""
from __future__ import annotations

import csv
import gc
import json
import math
import os
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from operator import attrgetter, eq, is_, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO, get_args, get_origin, get_type_hints


class PubType(str, Enum):
    JOURNAL_ARTICLE = "journal_article"
    BOOK = "book"
    BOOK_CHAPTER = "book_chapter"
    CONFERENCE_PAPER = "conference_paper"
    MAP = "map"
    OTHER = "other"


@dataclass(frozen=True)
class YearWindow:
    """Inclusive year range, e.g. ``YearWindow(2014, 2018)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int:
            raise TypeError(f"year window bounds must be integers, got {self.start!r} and {self.end!r}")
        if self.start > self.end:
            raise ValueError(f"empty year window {self.start}-{self.end}")

    def __contains__(self, year: object) -> bool:
        return isinstance(year, int) and self.start <= year <= self.end


class ResearcherProfile(NamedTuple):
    researcher_id: str
    discipline: str
    has_dsc: bool = False
    last_degree_year: int | None = None


class PublicationRecord(NamedTuple):
    pub_id: str
    year: int
    pub_type: PubType
    language: str
    wos_indexed: bool
    scopus_indexed: bool
    impact_factor: float | None
    author_ids: tuple[str, ...]
    discipline: str


class CitationLink(NamedTuple):
    citation_id: str
    cited_pub_id: str
    citing_year: int
    citing_author_ids: tuple[str, ...]
    citing_wos_indexed: bool


@dataclass(frozen=True)
class Violation:
    """One validation failure, with enough context to find the record."""

    source: str
    row: int | None
    message: str

    def __str__(self) -> str:
        where = self.source if self.row is None else f"{self.source}:{self.row}"
        return f"{where}: {self.message}"


class RecalError(Exception):
    """The base of every refusal the package raises; the CLI exits 1 on one."""


class CorpusError(RecalError):
    pass


class CorpusValidationError(CorpusError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:5])
        more = f" (+{len(self.violations) - 5} more)" if len(self.violations) > 5 else ""
        super().__init__(f"{len(self.violations)} corpus violation(s): {head}{more}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a block or, as a decorator, a
    call, and restore the state it found, so pauses nest. Corpus records form
    no cycles; collector passes over a heap of them only cost time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class Corpus:
    researchers: Mapping[str, ResearcherProfile]
    publications: Mapping[str, PublicationRecord]
    citations: tuple[CitationLink, ...]

    @cached_property
    @collector_paused()
    def citations_of(self) -> Mapping[str, tuple[CitationLink, ...]]:
        """Citation links grouped by cited publication, in file order, keyed
        in the order each publication is first cited. Each group's list
        becomes its tuple in place, in the one dict returned, so no second
        copy of the grouping is held at its high-water mark."""
        grouped: dict[str, list[CitationLink] | tuple[CitationLink, ...]] = {}
        for link in self.citations:
            grouped.setdefault(link.cited_pub_id, []).append(link)
        for pid, links in grouped.items():  # a value replaced, not a key added: the walk stays valid
            grouped[pid] = tuple(links)
        return grouped

    @cached_property
    def publications_of(self) -> Mapping[str, tuple[PublicationRecord, ...]]:
        """Publications grouped by author id (corpus researchers and externals)."""
        grouped: dict[str, list[PublicationRecord]] = {}
        for pub in self.publications.values():
            for author in pub.author_ids:
                grouped.setdefault(author, []).append(pub)
        return {aid: tuple(pubs) for aid, pubs in grouped.items()}

    def researcher(self, researcher_id: str) -> ResearcherProfile:
        try:
            return self.researchers[researcher_id]
        except KeyError:
            raise CorpusError(f"unknown researcher id {researcher_id!r}") from None


@dataclass(frozen=True)
class DisciplineCoauthorship:
    """Co-authorship profile of one discipline over a window."""

    discipline: str
    pub_count: int
    multi_authored_count: int
    coauthor_total: int

    @property
    def multi_ratio(self) -> float:
        """Share of multi-authored publications, in percent."""
        if self.pub_count == 0:
            return 0.0
        return self.multi_authored_count / self.pub_count * 100.0

    @property
    def avg_coauthors_per_multi(self) -> float | None:
        """Mean author count of multi-authored publications; None if there are none."""
        if self.multi_authored_count == 0:
            return None
        return self.coauthor_total / self.multi_authored_count


# --------------------------------------------------------------------------
# Queries

def independent_citations(
    corpus: Corpus, pub: PublicationRecord, year_window: YearWindow
) -> list[CitationLink]:
    """Citations of ``pub`` inside ``year_window`` whose citing author set is
    disjoint from the publication's own author set (no self- or co-author
    citations)."""
    if corpus.publications.get(pub.pub_id) is not pub:
        raise CorpusError(f"publication {pub.pub_id!r} does not belong to this corpus")
    links = corpus.citations_of.get(pub.pub_id)
    if not links:
        return []
    # the window test is YearWindow.__contains__, inlined
    own, start, end = set(pub.author_ids), year_window.start, year_window.end
    return [
        link
        for link in links
        if isinstance(year := link.citing_year, int) and start <= year <= end
        and own.isdisjoint(link.citing_author_ids)
    ]


def corpus_stats(
    corpus: Corpus,
    year_window: YearWindow,
    disciplines: Sequence[str],
) -> dict[str, DisciplineCoauthorship]:
    """Per-discipline publication and co-authorship counts over a window,
    keyed by discipline, in the order of ``disciplines``.

    ``coauthor_total`` sums the author counts of multi-authored publications,
    so the derived average is authors per multi-authored publication.
    """
    counts = {d: [0, 0, 0] for d in disciplines}  # pubs, multi, coauthors
    for pub in corpus.publications.values():
        if pub.year not in year_window or pub.discipline not in counts:
            continue
        row = counts[pub.discipline]
        row[0] += 1
        if (count := len(pub.author_ids)) >= 2:
            row[1] += 1
            row[2] += count
    return {d: DisciplineCoauthorship(d, *counts[d]) for d in disciplines}


# --------------------------------------------------------------------------
# Validation

def _repeated(ids: Iterable, has_repeat: bool) -> Iterator[bool]:
    """Whether each of ``ids``, in order, equals an earlier one. The seen-set
    that tells is built only when ``has_repeat`` says that some id repeats;
    otherwise every answer is False."""
    def seen_before() -> Iterator[bool]:
        seen: set = set()
        for key in ids:
            yield key in seen
            seen.add(key)
    return seen_before() if has_repeat else repeat(False)


def _has_repeat(ids: list) -> bool:
    """Whether two of ``ids`` are equal, tested on ``ids`` itself, sorted in
    place, when every id is a ``str``; ids that do not sort take a set."""
    if set(map(type, ids)) != {str}:
        return len(set(ids)) != len(ids)
    ids.sort()
    return any(map(eq, ids, islice(ids, 1, None)))


def validate_corpus(
    researchers: Sequence[ResearcherProfile],
    publications: Sequence[PublicationRecord],
    citations: Sequence[CitationLink],
    disciplines: Iterable[str],
    researcher_index: Mapping[str, ResearcherProfile],
    publication_index: Mapping[str, PublicationRecord],
) -> list[Violation]:
    """Cross-record checks: unique ids, resolvable references, registered
    disciplines, duplicate-free author lists, a finite non-negative impact
    factor only on journal articles. The violations come file by file, in
    row order.

    ``researcher_index`` and ``publication_index`` are the id-to-record
    dicts of ``researchers`` and ``publications`` that the corpus keeps, so
    no second copy of what the corpus holds is made at its high-water mark:
    an id repeats in a file when its dict is shorter than its list, a cited
    id resolves when it is a key of ``publication_index``, and citation ids
    are tested on one sorted list of them. Only a file with a repeat gets a
    seen-set, to name the rows that repeat an earlier id."""
    registry = set(disciplines)
    violations: list[Violation] = []
    if not registry:
        violations.append(Violation("registry", None, "discipline registry is empty"))

    repeats = _repeated(map(attrgetter("researcher_id"), researchers), len(researcher_index) != len(researchers))
    for i, (r, repeats_an_id) in enumerate(zip(researchers, repeats), start=1):
        if repeats_an_id:
            violations.append(Violation("researchers", i, f"duplicate researcher_id {r.researcher_id!r}"))
        if r.discipline not in registry:
            violations.append(Violation("researchers", i, f"unknown discipline {r.discipline!r}"))

    repeats = _repeated(map(attrgetter("pub_id"), publications), len(publication_index) != len(publications))
    for i, (p, repeats_an_id) in enumerate(zip(publications, repeats), start=1):
        if repeats_an_id:
            violations.append(Violation("publications", i, f"duplicate pub_id {p.pub_id!r}"))
        if p.discipline not in registry:
            violations.append(Violation("publications", i, f"unknown discipline {p.discipline!r}"))
        if not p.author_ids:
            violations.append(Violation("publications", i, f"{p.pub_id!r} has an empty author list"))
        elif len(set(p.author_ids)) != len(p.author_ids):
            violations.append(Violation("publications", i, f"{p.pub_id!r} repeats an author id"))
        if p.impact_factor is not None:
            if p.pub_type is not PubType.JOURNAL_ARTICLE:
                violations.append(
                    Violation("publications", i, f"{p.pub_id!r} has impact_factor but is a {p.pub_type.value}")
                )
            elif not math.isfinite(p.impact_factor):
                violations.append(Violation("publications", i, f"{p.pub_id!r} has impact_factor {p.impact_factor}"))
            elif p.impact_factor < 0:
                violations.append(Violation("publications", i, f"{p.pub_id!r} has negative impact_factor"))

    citation_id = attrgetter("citation_id")
    repeats = _repeated(map(citation_id, citations), _has_repeat(list(map(citation_id, citations))))
    for i, (c, repeats_an_id) in enumerate(zip(citations, repeats), start=1):
        if repeats_an_id:
            violations.append(Violation("citations", i, f"duplicate citation_id {c.citation_id!r}"))
        if c.cited_pub_id not in publication_index:
            violations.append(
                Violation("citations", i, f"cited_pub_id {c.cited_pub_id!r} does not resolve to a publication")
            )
        if not c.citing_author_ids:
            violations.append(Violation("citations", i, f"{c.citation_id!r} has an empty citing author list"))
        elif len(set(c.citing_author_ids)) != len(c.citing_author_ids):
            violations.append(Violation("citations", i, f"{c.citation_id!r} repeats a citing author id"))

    return violations


def build_corpus(
    researchers: Sequence[ResearcherProfile],
    publications: Sequence[PublicationRecord],
    citations: Sequence[CitationLink],
    disciplines: Iterable[str],
) -> Corpus:
    """Validate the record sets and assemble an immutable corpus.

    The two id-to-record dicts that the corpus keeps are built first and
    ``validate_corpus`` tests the records on them, so the corpus's
    high-water mark holds no second copy of what it keeps: no set of its ids
    beside the dicts."""
    researcher_index = {r.researcher_id: r for r in researchers}
    publication_index = {p.pub_id: p for p in publications}
    violations = validate_corpus(researchers, publications, citations, disciplines, researcher_index,
                                 publication_index)
    if violations:
        raise CorpusValidationError(violations)
    return Corpus(researchers=researcher_index, publications=publication_index, citations=tuple(citations))


# --------------------------------------------------------------------------
# File ingestion

_DELIMITER = ","
_LIST_SEPARATOR = ";"
_JSON_SUFFIXES = (".jsonl", ".ndjson", ".json")
TABLE_SUFFIXES = {"dsv": ".csv", "jsonl": ".jsonl"}  # the suffix each table format's files are named with
_CHUNK_ROWS = 1024  # rows read or written, and converted, at a time; a file is never held whole
_scan_json = json.JSONDecoder().scan_once
_SURROGATE = re.compile(r"[\ud800-\udfff]")
LONE_SURROGATE = "holds a lone surrogate, which UTF-8 cannot encode"

# A converter turns one cell into a record field, or raises ValueError naming
# its column. A cell is DSV text or, in JSONL, the key's JSON value (None when
# the key is missing), so one converter serves both formats.


def has_lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate (U+D800-U+DFFF): JSON can
    escape one, but UTF-8 cannot encode one, so no file can hold it."""
    return not text.isascii() and _SURROGATE.search(text) is not None  # isascii() is O(1)


def _surrogate_error(column: str, text: str) -> ValueError:
    return ValueError(f"column {column!r}: {text!r} {LONE_SURROGATE}")


def _text(cell: object, column: str) -> str:  # what a number, boolean or type converter parses
    return "" if cell is None else (cell if isinstance(cell, str) else str(cell)).strip()


def required_text(cell: object, column: str) -> str:
    if text := _text(cell, column):
        return text
    raise ValueError(f"column {column!r} is empty")


def _string(cell: object, column: str) -> str:
    """A text column's cell, stripped: DSV text or a JSON string; a missing
    key or ``null`` is empty, and any other JSON value is refused."""
    if isinstance(cell, str):
        if has_lone_surrogate(cell):
            raise _surrogate_error(column, cell)
        return cell.strip()
    if cell is None:
        return ""
    raise ValueError(f"column {column!r}: {cell!r} is not a string")


def required_string(cell: object, column: str) -> str:
    if text := _string(cell, column):
        return text
    raise ValueError(f"column {column!r} is empty")


def text_not_kept(texts: list[str]) -> tuple[str, str] | None:
    """The first of ``texts`` that a reader would not give back as written,
    with the reason, or None: the readers strip every text cell and id, refuse
    an empty cell or drop an empty id, and cannot hold a lone surrogate. One
    pass tests all of ``texts``; only when it fails is each tested alone."""
    if all(texts) and list(map(str.strip, texts)) == texts and not has_lone_surrogate("\n".join(texts)):
        return None
    for text in texts:
        if not text:
            return text, "is empty, which no reader gives back"
        if text != text.strip():
            return text, "has surrounding whitespace, which the readers strip"
        if has_lone_surrogate(text):
            return text, LONE_SURROGATE


def _int(cell: object, column: str) -> int:
    if isinstance(cell, bool):
        raise ValueError(f"column {column!r}: expected an integer")
    if isinstance(cell, int):
        return cell
    text = required_text(cell, column)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"column {column!r}: {text!r} is not an integer") from None


def _opt_int(cell: object, column: str) -> int | None:
    return _int(cell, column) if _text(cell, column) else None


def _bool(cell: object, column: str) -> bool:
    if isinstance(cell, bool):
        return cell
    text = required_text(cell, column)
    if text not in ("true", "false"):
        raise ValueError(f"column {column!r}: {text!r} is not 'true'/'false'")
    return text == "true"


def finite_float(value: object) -> float:
    """``float(value)``, refusing NaN and the infinities with ``ValueError``."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _opt_float(cell: object, column: str) -> float | None:
    if isinstance(cell, bool):
        raise ValueError(f"column {column!r}: expected a number")
    if not isinstance(cell, (int, float)) and not (cell := _text(cell, column)):
        return None
    try:
        return finite_float(cell)
    except ValueError:
        raise ValueError(f"column {column!r}: {cell!r} is not a finite number") from None


def _id_list(cell: object, column: str, get=None) -> tuple[str, ...]:
    """Stripped ids with the empty ones dropped, from DSV text split on ``;``
    or from a JSON array, whose members must be strings. With ``get``, the
    ``get`` method of a load's id table, each id is ``get(id, id)``."""
    if not isinstance(cell, (list, str, type(None))):
        raise ValueError(f"column {column!r}: {cell!r} is not a string or an array")
    members = cell if isinstance(cell, list) else _text(cell, column).split(_LIST_SEPARATOR)
    try:
        ids = list(filter(None, map(str.strip, members)))
    except TypeError:  # str.strip of a member that is not a string
        bad = next(member for member in members if not isinstance(member, str))
        raise ValueError(f"column {column!r}: member {bad!r} is not a string") from None
    if bad := next(filter(has_lone_surrogate, ids), None):
        raise _surrogate_error(column, bad)
    return tuple(ids if get is None else map(get, ids, ids))


def _id(cell: object, column: str, get) -> str:
    """A ``required_string`` id as ``get(id, id)``, ``get`` being the ``get``
    method of a load's id table."""
    text = required_string(cell, column)
    return get(text, text)


_PUB_TYPES = {t.value: t for t in PubType}


def _pub_type(cell: object, column: str) -> PubType:
    text = required_text(cell, column)
    if text in _PUB_TYPES:
        return _PUB_TYPES[text]
    raise ValueError(f"column {column!r}: {text!r} is not one of [{', '.join(_PUB_TYPES)}]")


def _language(cell: object, column: str) -> str:
    return required_string(cell, column).lower()


# A column converter turns one column of a chunk at once into the values its
# cell converter would give. Where that cannot be shown for every cell it
# raises, and the chunk is converted cell by cell, so only the cell converters
# ever word a violation. A column whose cells repeat goes through
# ``_distinct``; the three bulk converters below serve the columns whose cells
# are mostly distinct.


def _distinct(convert):
    """A cell converter and a column converter that give equal values of
    ``convert`` as one object, across the chunks of a load and whichever way
    a chunk is read. The column converter runs ``convert`` once per distinct
    cell. ``convert`` must refuse every float, as ``-0.0 == 0.0``; a column
    of two cell types besides null is refused, as JSON ``true == 1``. Only a
    column of JSON booleans and nulls, objects already shared, is kept."""
    shared: dict = {}  # each value converted so far, to itself

    def convert_cell(cell: object, column_name: str):
        return shared.setdefault(value := convert(cell, column_name), value)

    def convert_column(column: Sequence, column_name: str) -> Sequence:
        if len(kinds := set(map(type, column)) - {type(None)}) > 1:
            raise ValueError
        value_of = {cell: convert_cell(cell, column_name) for cell in set(column)}
        if kinds <= {bool} and all(map(is_, value_of, value_of.values())):
            return column
        return list(map(value_of.__getitem__, column))
    return convert_cell, convert_column


def _strings(column: Sequence, column_name: str) -> list[str]:
    """Strings, stripped, none of them empty or holding a lone surrogate."""
    stripped = list(map(str.strip, column))  # TypeError for a cell that is not a string
    if not all(stripped) or has_lone_surrogate("".join(stripped)):
        raise ValueError
    return stripped


def _opt_floats(column: Sequence, column_name: str) -> Sequence[float | None]:
    """Finite JSON floats and nulls as they are, or number text with blank
    cells as None."""
    kinds = set(map(type, column))
    if kinds <= {float, type(None)}:
        if all(map(math.isfinite, filter(None, column))):  # filter drops None, and 0.0 is finite
            return column
    elif kinds == {str}:
        stripped = list(map(str.strip, column))
        distinct = dict.fromkeys(stripped)
        distinct.pop("", None)
        number_of = dict(zip(distinct, map(float, distinct)))
        if all(map(math.isfinite, number_of.values())):
            number_of[""] = None
            return list(map(number_of.__getitem__, stripped))
    raise ValueError


def _ids(column: Sequence, column_name: str, get) -> list[str]:
    """``_strings``, each as ``_id`` gives it."""
    stripped = _strings(column, column_name)
    return list(map(get, stripped, stripped))


def _id_lists(column: Sequence, column_name: str, get=None) -> list[tuple[str, ...]]:
    """DSV text split on ``;``, or JSON arrays of strings, when no id is
    empty or padded; with ``get``, each id as ``_id_list`` gives it."""
    kinds = set(map(type, column))
    if kinds == {str}:
        ids = " ".join(column).replace(_LIST_SEPARATOR, " ")
        lists = list(map(str.split, column, repeat(_LIST_SEPARATOR)))
    elif kinds == {list}:
        ids = " ".join(chain.from_iterable(column))  # TypeError for a member that is not a string
        lists = column
    else:
        raise ValueError
    # The ids, space-separated: an empty or space-padded id shows as two
    # spaces in a row or a space at either end. Every other blank that
    # str.strip() removes is not printable, nor is a lone surrogate.
    if not ids or "  " in ids or ids[0] == " " or ids[-1] == " " or not ids.isprintable():
        raise ValueError
    return list(map(tuple, lists if get is None else map(map, repeat(get), lists, lists)))


def _columns(ids: dict[str, str]) -> tuple[tuple, tuple, tuple]:
    """Each file's columns in record-field order, with a cell and a column
    converter each. ``ids`` is a load's id table, from the text of each
    researcher id, then each publication id, to that record's own object. An
    author id or a cited publication id is looked up in it, so it is the
    object of the record it names. Citation ids and citing author ids are
    not: they name no record."""
    get = ids.get
    return ((
        ("researcher_id", required_string, _strings), ("discipline", *_distinct(required_string)),
        ("has_dsc", *_distinct(_bool)), ("last_degree_year", *_distinct(_opt_int)),
    ), (
        ("pub_id", required_string, _strings), ("year", *_distinct(_int)),
        ("pub_type", *_distinct(_pub_type)), ("language", *_distinct(_language)),
        ("wos_indexed", *_distinct(_bool)), ("scopus_indexed", *_distinct(_bool)),
        ("impact_factor", _opt_float, _opt_floats),
        ("author_ids", partial(_id_list, get=get), partial(_id_lists, get=get)),
        ("discipline", *_distinct(required_string)),  # an empty one is inherited before the cell converter runs
    ), (
        ("citation_id", required_string, _strings), ("cited_pub_id", partial(_id, get=get), partial(_ids, get=get)),
        ("citing_year", *_distinct(_int)), ("citing_author_ids", _id_list, _id_lists),
        ("citing_wos_indexed", *_distinct(_bool)),
    ))


RESEARCHER_FIELDS, PUBLICATION_FIELDS, CITATION_FIELDS = (
    tuple(name for name, _, _ in columns) for columns in _columns({})
)
_CONVERSION_FAILURES = (ArithmeticError, LookupError, RecursionError, TypeError, ValueError)


def _json_cells(line: str, fields: Sequence[str]) -> tuple | None:
    """One JSONL line's cells in ``fields`` order, None for a blank line."""
    if not (line := line.strip()):
        return None
    try:
        record = json.loads(line)
    except (RecursionError, ValueError) as exc:  # bad JSON, nested too deep, or an integer too long to convert
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError("JSON line is not an object")
    return tuple(map(record.get, fields))  # a missing key is an empty cell


def _json_columns(lines: list[str], fields: Sequence[str]) -> list:
    """The columns of a chunk of JSONL lines that are all JSON objects;
    raises for any other chunk."""
    lines = list(map(str.strip, lines))
    # the scanner's StopIteration at a bad or blank line ends the map early
    records, ends = zip(*map(_scan_json, lines, repeat(0)))
    if ends != tuple(map(len, lines)) or set(map(type, records)) != {dict}:
        raise ValueError
    return [list(map(dict.get, records, repeat(field))) for field in fields]


def _dsv_columns(rows: list[list[str]], width: int, in_field_order) -> list:
    """The columns, in field order, of a chunk of DSV rows that all have
    ``width`` cells; raises for any other chunk."""
    if set(map(len, rows)) != {width}:
        raise ValueError
    return list(zip(*map(in_field_order, rows)))


def _dsv_row(cells: list[str], width: int, in_field_order) -> tuple | None:
    """One DSV row's cells in field order, None for a blank row."""
    if not "".join(cells).strip():
        return None
    if len(cells) != width:
        raise ValueError(f"expected {width} cells, found {len(cells)}")
    return in_field_order(cells)


def _chunks(rows: Iterable) -> Iterable[list]:
    """Lists of at most ``_CHUNK_ROWS`` items of ``rows``. When bytes that are
    not UTF-8 or a DSV cell too long to read stop the reading, the items read
    before them come first."""
    try:
        while True:
            chunk = []
            for item in islice(rows, _CHUNK_ROWS):
                chunk.append(item)
            if not chunk:
                return
            yield chunk
    except (UnicodeDecodeError, csv.Error):
        if chunk:
            yield chunk
        raise


def table_format(path: str | os.PathLike) -> str:
    """The format the readers read ``path`` in, from its suffix in any case:
    ``jsonl`` for .jsonl, .ndjson or .json, ``dsv`` for any other."""
    return "jsonl" if Path(path).suffix.lower() in _JSON_SUFFIXES else "dsv"


def misnamed_table(path: str | os.PathLike, fmt: str) -> str | None:
    """Why a ``fmt`` table written to ``path`` would not read back, or None."""
    if (read_as := table_format(path)) == fmt:
        return None
    return (f"{path}: the readers would read it as {read_as}, not {fmt}: "
            f"a {', '.join(_JSON_SUFFIXES)} suffix means jsonl, any other dsv")


def read_records(path: Path, fields: Sequence[str], source: str, violations: list[Violation],
                 from_columns, from_cells, lead=None) -> list:
    """The records of a DSV or line-delimited JSON file, read in chunks of at
    most ``_CHUNK_ROWS`` rows.

    A chunk is built whole by ``from_columns(rows, columns)``, with the
    chunk's row numbers and one column per field, in ``fields`` order; it must
    have converted every cell before it returns, and must refuse a chunk with a
    blank row, as a required text column does. When that raises, or a row of
    the chunk is not a record (bad JSON, a wrong cell count), the chunk is
    read again row by row: each row's cells become a record through
    ``from_cells(row, cells)``, and each ``ValueError`` on the way is a
    violation naming the row, so violations come in row order. Blank rows are
    skipped. Bytes that are not UTF-8 end the file with a violation naming
    it, and a DSV cell past the ``csv`` module's size limit (a quote left
    open) with one naming its row. With ``lead``, the line before a DSV
    header goes to ``lead(cells)`` (None if empty), and what it raises passes."""
    records: list = []
    first = 1
    is_json = table_format(path) == "jsonl"
    try:
        with path.open(encoding="utf-8", newline=None if is_json else "") as handle:
            if is_json:
                rows = handle
                columns_of = partial(_json_columns, fields=fields)
                cells_of = partial(_json_cells, fields=fields)
            else:
                rows = csv.reader(handle, delimiter=_DELIMITER)
                if lead:
                    lead(next(rows, None))
                header = next(rows, None)
                if header is None:
                    violations.append(Violation(source, None, "file is empty (missing header)"))
                    return records
                header = [cell.strip() for cell in header]
                missing = [f for f in fields if f not in header]
                if missing:
                    violations.append(Violation(source, None, f"header is missing column(s) {missing}"))
                    return records
                in_field_order = itemgetter(*map(header.index, fields))
                columns_of = partial(_dsv_columns, width=len(header), in_field_order=in_field_order)
                cells_of = partial(_dsv_row, width=len(header), in_field_order=in_field_order)

            for chunk in _chunks(rows):
                numbers = range(first, first + len(chunk))
                first += len(chunk)
                try:
                    records.extend(from_columns(numbers, columns_of(chunk)))
                except _CONVERSION_FAILURES:
                    for row, item in zip(numbers, chunk):
                        try:
                            if (cells := cells_of(item)) is not None:
                                records.append(from_cells(row, cells))
                        except ValueError as exc:
                            violations.append(Violation(source, row, str(exc)))
    except UnicodeDecodeError as exc:
        violations.append(Violation(str(path), None, f"not UTF-8 text: {exc}"))
    except csv.Error as exc:
        violations.append(Violation(source, first, f"unreadable from here on: {exc}"))
    return records


def read_cells(path: str | os.PathLike, fields: Sequence[str], cell_of, noun: str, error: type[Exception],
               lead=None) -> dict:
    """The ``{cell: value}`` table of a file that ``read_records`` reads, each
    row's pair given by ``cell_of(cells)`` or refused by its ``ValueError``. A
    cell may appear once: a repeat names the row that first held it and
    ``noun.format(*cell)``. The first problem in row order raises ``error``."""
    violations: list[Violation] = []
    records = read_records(Path(path), fields, str(path), violations,
                           lambda rows, columns: list(zip(rows, map(cell_of, zip(*columns)))),
                           lambda row, cells: (row, cell_of(cells)), lead)
    first: dict = {}
    for row, (cell, _) in records:
        if first.setdefault(cell, row) != row:
            violations.append(Violation(str(path), row, f"repeats row {first[cell]}, {noun.format(*cell)}"))
            break
    if violations:  # a file-wide problem has no row and comes after every row read
        raise error(str(min(violations, key=lambda v: v.row or math.inf)))
    return dict(pair for _, pair in records)


@collector_paused()
def scan_corpus(
    researcher_file: str | Path,
    publication_file: str | Path,
    citation_file: str | Path,
    disciplines: Iterable[str],
) -> tuple[Corpus | None, list[Violation]]:
    """Parse and validate the three corpus files, collecting every violation.

    Returns ``(corpus, [])`` on success or ``(None, violations)`` when
    anything is wrong. I/O problems (missing or unreadable files) raise
    ``OSError`` rather than being folded into the violation list.
    """
    violations: list[Violation] = []
    records: dict[type, list] = {}
    ids: dict[str, str] = {}  # the load's id table
    for path, source, columns, record_type in zip(
        (researcher_file, publication_file, citation_file), ("researchers", "publications", "citations"),
        _columns(ids), (ResearcherProfile, PublicationRecord, CitationLink),
    ):
        discipline_of = {r.researcher_id: r.discipline for r in records.get(ResearcherProfile, ())}

        def from_columns(rows, cells_by_field):
            # tuple.__new__ makes each record in C; the named tuple's own __new__ is a Python call
            return map(tuple.__new__, repeat(record_type), zip(*[
                convert_column(cells, name) for (name, _, convert_column), cells in zip(columns, cells_by_field)
            ]))

        def from_cells(row, cells):
            if record_type is PublicationRecord and not _text(cells[-1], "discipline"):
                # Inherit the first corpus researcher's discipline. This runs before the other cells
                # are converted, so a row with no owner reports that whatever else is wrong.
                owner = next((a for a in _id_list(cells[-2], "author_ids") if a in discipline_of), None)
                if owner is None:
                    raise ValueError("column 'discipline' is empty and no author is a corpus researcher")
                cells = (*cells[:-1], discipline_of[owner])
            values = []  # a loop, not a comprehension: one function object fewer per row
            for (name, convert, _), cell in zip(columns, cells):
                values.append(convert(cell, name))
            return record_type(*values)

        fields = [name for name, _, _ in columns]
        records[record_type] = read_records(Path(path), fields, source, violations, from_columns, from_cells)
        if record_type is not CitationLink:  # a researcher's or publication's id enters after its file is read
            ids.update(map(itemgetter(0, 0), records[record_type]))
    ids.clear()  # the records hold the ids; the table goes before the corpus is built

    try:
        corpus = build_corpus(*records.values(), disciplines)
    except CorpusValidationError as exc:
        violations.extend(exc.violations)
    return (None, violations) if violations else (corpus, [])


def load_corpus(
    researcher_file: str | Path,
    publication_file: str | Path,
    citation_file: str | Path,
    disciplines: Iterable[str],
) -> Corpus:
    """Load and validate a corpus; raises ``CorpusValidationError`` listing
    every violation if the files are not clean."""
    corpus, violations = scan_corpus(researcher_file, publication_file, citation_file, disciplines)
    if corpus is None:
        raise CorpusValidationError(violations)
    return corpus


# --------------------------------------------------------------------------
# Serialization

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_NONE = type(None)


class _Column(NamedTuple):
    """One column of a chunk of rows with its cells' types, taken once for
    both the writable test and the conversion; a column of tuples also holds
    its members, chained, and their types."""
    cells: Sequence
    kinds: set
    members: Sequence
    member_kinds: set


def _typed_columns(chunk: list[Sequence]) -> list[_Column]:
    """The columns of a chunk of rows, which is transposed once."""
    columns = []
    for cells in zip(*chunk):
        members = list(chain.from_iterable(cells)) if (kinds := set(map(type, cells))) == {tuple} else ()
        columns.append(_Column(cells, kinds, members, set(map(type, members))))
    return columns


def _column_texts(column: _Column, field: str, null: str, texts, id_lists) -> Iterable[str]:
    """One column of a chunk as a format writes it: ``texts`` writes a column
    of text (an enum that is also a ``str`` included), ``null`` is None,
    booleans are ``true``/``false``, numbers their ``repr`` and ``id_lists``
    writes a column of tuples of text. Any other column is refused, naming
    it. ``True == 1`` and ``0.0 == False``, so no table of texts is looked up
    with a number."""
    cells, kinds = column.cells, column.kinds
    if all(issubclass(kind, str) for kind in kinds):
        return texts(cells)
    if kinds <= {bool, _NONE}:
        return map({None: null, True: "true", False: "false"}.__getitem__, cells)
    if kinds <= {int, _NONE}:  # a column of years repeats: one repr per distinct integer
        distinct = set(cells)
        text_of = dict(zip(distinct, map(repr, distinct)))
        text_of[None] = null
        return map(text_of.__getitem__, cells)
    if kinds <= {float, _NONE} and all(map(math.isfinite, filter(None, cells))):  # -0.0 == 0.0: a repr each
        return map({None: null}.get, cells, map(repr, cells))
    if kinds == {tuple} and all(issubclass(kind, str) for kind in column.member_kinds):
        return id_lists(column)
    raise ValueError(f"column {field!r} is not a column of text, of booleans, of integers or of finite floats"
                     f" (each may hold None) or of tuples of text")


def _json_id_lists(column: _Column) -> Iterable[str]:
    """JSON arrays of text, without a call per id when no tuple is empty and
    no id needs escaping, which one ``encode_basestring`` call shows."""
    joined = "".join(column.members)
    if all(column.cells) and encode_basestring(joined) == '"' + joined + '"':
        return [f'["{ids}"]' for ids in map('", "'.join, column.cells)]
    return map("[%s]".__mod__, map(", ".join, map(partial(map, encode_basestring), column.cells)))


_dsv_column = partial(
    _column_texts, null="", texts=iter, id_lists=lambda column: map(_LIST_SEPARATOR.join, column.cells),
)
_json_column = partial(_column_texts, null="null", texts=partial(map, encode_basestring), id_lists=_json_id_lists)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _dsv_line(cells: Sequence[str]) -> str:
    line = _DELIMITER.join(cells)
    # one test per line: extra delimiters, a quote or a line break
    if line.count(_DELIMITER) >= len(cells) or '"' in line or "\n" in line or "\r" in line:
        line = _DELIMITER.join(map(_quoted, cells))
    return line + "\n"


def _dsv_text(rows: list[Sequence], columns: list[_Column] | None, fields: Sequence[str]) -> str:
    """The DSV lines of a chunk of rows, whose typed columns are given or
    None. A chunk of text is joined as it is, and any other chunk is
    converted a column at a time first. ``_dsv_line``'s test is made once
    over the chunk, and only a chunk with a cell to quote is written row by
    row."""
    try:
        text = "\n".join(map(_DELIMITER.join, rows)) + "\n"
        # a delimiter or LF in a cell makes one more than the rows and fields do
        split = text.count(_DELIMITER) != len(rows) * (len(fields) - 1) or text.count("\n") != len(rows)
    except TypeError:  # a cell that is not text; the converted cells are tested joined, which costs less
        texts = [list(_dsv_column(column, field)) for column, field in zip(columns or _typed_columns(rows), fields)]
        cells = "".join(chain.from_iterable(texts))
        split = _DELIMITER in cells or "\n" in cells
        rows = list(zip(*texts))
        text = "\n".join(map(_DELIMITER.join, rows)) + "\n"
    if split or '"' in text or "\r" in text:
        return "".join(map(_dsv_line, rows))
    return text


def _json_text(rows: list[Sequence], columns: list[_Column] | None, fields: Sequence[str],
               leads: Sequence[str]) -> str:
    """The JSONL lines of a chunk of rows, whose typed columns are given or
    None: one join of each field's lead (``{"pub_id": ``, ``, "year": ``,
    ...) interleaved with its column's texts, then ``}\n``. A text column
    that one ``encode_basestring`` call over its cells joined leaves
    unescaped goes in as it is, its quotes put in the leads around it."""
    parts, quote = [], ""  # quote closes a text column that went in as it is
    for lead, column, field in zip(leads, columns or _typed_columns(rows), fields):
        as_is = all(issubclass(kind, str) for kind in column.kinds) and \
            encode_basestring(joined := "".join(column.cells)) == '"' + joined + '"'
        parts += repeat(quote + lead + '"' * as_is), column.cells if as_is else _json_column(column, field)
        quote = '"' * as_is
    parts.append(repeat(quote + "}\n"))
    return "".join(chain.from_iterable(zip(*parts)))


def _write_rows(out: str | os.PathLike | TextIO, fields: Sequence[str], rows: Iterable[Sequence], fmt: str,
                columns_of=lambda chunk: None) -> None:
    """``write_table``, with ``columns_of`` giving each chunk's typed columns
    or None, as ``save_corpus`` tests each chunk before it is written."""
    if fmt == "jsonl":
        head = ""
        leads = [("{" if i == 0 else ", ") + encode_basestring(field) + ": " for i, field in enumerate(fields)]
        text_of = partial(_json_text, fields=fields, leads=leads)
    else:
        head, text_of = _dsv_line(fields), partial(_dsv_text, fields=fields)
    rows = iter(rows)
    first = 1
    is_path = isinstance(out, (str, os.PathLike))
    with Path(out).open("w", encoding="utf-8", newline="") if is_path else nullcontext(out) as handle:
        handle.write(head)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(fields)}:  # zip(*chunk) would cut every row to the shortest
                row, cells = next((row, cells) for row, cells in enumerate(chunk, first) if len(cells) != len(fields))
                raise ValueError(f"row {row}: expected {len(fields)} cells, found {len(cells)}")
            handle.write(text_of(chunk, columns_of(chunk)))
            first += len(chunk)


def write_table(
    out: str | os.PathLike | TextIO, fields: Sequence[str], rows: Iterable[Sequence], fmt: str = "dsv"
) -> None:
    """Write a table to a file path or an open text stream, one line per row.

    The rows are taken ``_CHUNK_ROWS`` at a time, and a chunk is converted a
    column at a time unless every cell is text. ``fields`` names at least one
    column, each once, and each row must have one cell per field, or
    ``ValueError`` names the row. A column of a chunk holds text (an enum that
    is also a ``str`` included), booleans, integers or finite floats (each
    may hold None), or tuples of text; any other column is a ``ValueError``
    naming it.

    In ``dsv`` the first line holds ``fields``. None is empty, booleans are
    ``true``/``false``, numbers their ``repr``, tuples are ``;``-joined and
    text is itself; a cell holding ``,``, ``"``, CR or LF is quoted as
    ``csv.writer`` quotes it (wrapped in ``"``, inner quotes doubled; by hand,
    because Python 3.11's ``csv.writer`` leaves a CR unquoted, which its own
    reader then splits). In ``jsonl`` each row becomes the line
    ``json.dumps(dict(zip(fields, row)), ensure_ascii=False)`` writes, with
    non-ASCII text kept as UTF-8.
    """
    _write_rows(out, fields, rows, fmt)


def _unwritable(columns: Sequence[_Column], hints: Mapping[str, object], dsv: bool) -> str | None:
    """Why a cell of ``columns`` would not load back as written, worded for
    a one-record column, or None. ``hints`` holds the type hint of each
    column's record field, in field order. A cell must be of the type its
    field declares, exactly, so neither ``1`` for a ``bool`` nor ``True`` for
    an ``int`` passes, a float must be finite, and a text cell must be one the
    reader keeps as it is."""
    listed: list = []  # the id-list members, for their text tests
    for (name, hint), column in zip(hints.items(), columns):
        cells, kinds = column.cells, column.kinds
        if get_origin(hint) is tuple:
            typed = kinds == {tuple} and column.member_kinds <= {get_args(hint)[0]}
            listed += column.members
        else:
            typed = kinds <= set(get_args(hint) or (hint,))  # a union with None, or a class
        if not typed:
            return f"{name} {cells[0]!r} is not {hint.__name__ if isinstance(hint, type) else hint}"
        if float in kinds and not all(map(math.isfinite, filter(None, cells))):  # the reader refuses it
            return f"{name} {cells[0]!r} is not a finite number"
    texts = [*chain.from_iterable(column.cells for column, hint in zip(columns, hints.values()) if hint is str),
             *listed]
    if found := text_not_kept(texts):
        return f"{found[0]!r} {found[1]}"
    if dsv and _LIST_SEPARATOR in "\n".join(listed):
        bad = next(text for text in listed if _LIST_SEPARATOR in text)
        return f"{bad!r} holds {_LIST_SEPARATOR!r}, on which the DSV reader splits an id list"
    languages = list(chain.from_iterable(column.cells for column, name in zip(columns, hints) if name == "language"))
    if (joined := "\n".join(languages)) != joined.lower():
        bad = next(text for text in languages if text != text.lower())
        return f"{bad!r} is not lowercase, and the corpus readers lowercase every language"
    return None


def _writable_columns(chunk: list[tuple], source: str, hints: Mapping[str, object], dsv: bool) -> list[_Column]:
    """The typed columns of a chunk of records that loads back as written; a
    failing chunk is searched record by record, and the first record that
    would not raises ``CorpusError`` naming it."""
    columns = _typed_columns(chunk)
    if _unwritable(columns, hints, dsv) is not None:
        for record in chunk:
            if reason := _unwritable(_typed_columns([record]), hints, dsv):
                raise CorpusError(f"{source} {record[0]!r}: {reason}")
    return columns


def save_corpus(
    corpus: Corpus,
    researcher_file: str | Path,
    publication_file: str | Path,
    citation_file: str | Path,
    fmt: str = "dsv",
) -> None:
    """Write the three corpus files in ``dsv`` or ``jsonl`` format, streaming
    one record per line; each record is a row in column order. Loading them
    yields a record-wise identical corpus. A field not of the type its record
    class declares, a float that is not finite, or a text cell that would not
    load back as written, raises ``CorpusError`` naming the record.

    Each chunk of records is tested as it is written, to a temporary sibling
    of its file, and the three are moved into place only after the last
    citation is written. So on a refusal or any other error no file is left
    behind, and existing files are replaced only once all three are
    written. A file that the readers would read in the other format, by its
    suffix, raises ``CorpusError`` naming it before any file is opened."""
    if fmt not in TABLE_SUFFIXES:
        raise ValueError(f"unknown corpus format {fmt!r}")
    targets = [Path(path) for path in (researcher_file, publication_file, citation_file)]
    for target in targets:
        if reason := misnamed_table(target, fmt):
            raise CorpusError(reason)
    written: list[Path] = []
    try:
        for target, source, record_type, records in zip(
            targets, ("researcher", "publication", "citation"), (ResearcherProfile, PublicationRecord, CitationLink),
            (corpus.researchers.values(), corpus.publications.values(), corpus.citations),
        ):
            hints = get_type_hints(record_type)
            temporary = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
            with temporary.open("x", encoding="utf-8", newline="") as handle:
                written.append(temporary)
                _write_rows(handle, tuple(hints), records, fmt,
                            partial(_writable_columns, source=source, hints=hints, dsv=fmt == "dsv"))
        for temporary, target in zip(written, targets):
            os.replace(temporary, target)
    except BaseException:
        for temporary in written:
            temporary.unlink(missing_ok=True)
        raise
