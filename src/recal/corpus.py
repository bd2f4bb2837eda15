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
so ``save_corpus`` hands the records to ``write_table`` as rows. A DSV cell
holding ``,``, ``"``, CR or LF is quoted as ``csv.writer`` quotes it: wrapped
in ``"``, inner quotes doubled. ``write_table`` writes these lines for every
table the program writes. ``save_corpus`` refuses, with a ``CorpusError``
naming the record, a field not of the type its record class declares, and a
text cell the reader would change: an empty or whitespace-padded one (every
text cell is stripped on load), a ``language`` with upper-case letters (it is
lowercased on load) or, in DSV, an id-list member holding ``;``. A text cell
holding a lone surrogate is refused by the writer and the reader alike: JSON
can escape one, but UTF-8 cannot encode one.

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
from operator import is_, itemgetter
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

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


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

    @property
    def first_author(self) -> str:
        return self.author_ids[0]

    @property
    def author_count(self) -> int:
        return len(self.author_ids)


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


class CorpusError(Exception):
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
        """Citation links grouped by cited publication, in file order."""
        grouped: dict[str, list[CitationLink]] = {}
        for link in self.citations:
            grouped.setdefault(link.cited_pub_id, []).append(link)
        return {pid: tuple(links) for pid, links in grouped.items()}

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


@dataclass(frozen=True)
class CoauthorshipStats:
    window: YearWindow
    per_discipline: Mapping[str, DisciplineCoauthorship]


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
    own = set(pub.author_ids)
    return [
        link
        for link in corpus.citations_of.get(pub.pub_id, ())
        if link.citing_year in year_window and own.isdisjoint(link.citing_author_ids)
    ]


def corpus_stats(
    corpus: Corpus,
    year_window: YearWindow,
    disciplines: Sequence[str],
) -> CoauthorshipStats:
    """Per-discipline publication and co-authorship counts over a window,
    one row per discipline in ``disciplines``, in that order.

    ``coauthor_total`` sums the author counts of multi-authored publications,
    so the derived average is authors per multi-authored publication.
    """
    counts = {d: [0, 0, 0] for d in disciplines}  # pubs, multi, coauthors
    for pub in corpus.publications.values():
        if pub.year not in year_window or pub.discipline not in counts:
            continue
        row = counts[pub.discipline]
        row[0] += 1
        if pub.author_count >= 2:
            row[1] += 1
            row[2] += pub.author_count
    return CoauthorshipStats(
        window=year_window,
        per_discipline={
            d: DisciplineCoauthorship(d, *counts[d]) for d in disciplines
        },
    )


# --------------------------------------------------------------------------
# Validation

def validate_corpus(
    researchers: Sequence[ResearcherProfile],
    publications: Sequence[PublicationRecord],
    citations: Sequence[CitationLink],
    disciplines: Iterable[str],
) -> list[Violation]:
    """Cross-record checks: unique ids, resolvable references, registered
    disciplines, duplicate-free author lists, a finite non-negative impact
    factor only on journal articles."""
    registry = set(disciplines)
    violations: list[Violation] = []
    if not registry:
        violations.append(Violation("registry", None, "discipline registry is empty"))

    researcher_ids: set[str] = set()
    for i, r in enumerate(researchers, start=1):
        if r.researcher_id in researcher_ids:
            violations.append(Violation("researchers", i, f"duplicate researcher_id {r.researcher_id!r}"))
        researcher_ids.add(r.researcher_id)
        if r.discipline not in registry:
            violations.append(Violation("researchers", i, f"unknown discipline {r.discipline!r}"))

    pub_ids: set[str] = set()
    for i, p in enumerate(publications, start=1):
        if p.pub_id in pub_ids:
            violations.append(Violation("publications", i, f"duplicate pub_id {p.pub_id!r}"))
        pub_ids.add(p.pub_id)
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

    citation_ids: set[str] = set()
    for i, c in enumerate(citations, start=1):
        if c.citation_id in citation_ids:
            violations.append(Violation("citations", i, f"duplicate citation_id {c.citation_id!r}"))
        citation_ids.add(c.citation_id)
        if c.cited_pub_id not in pub_ids:
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
    """Validate the record sets and assemble an immutable corpus."""
    violations = validate_corpus(researchers, publications, citations, disciplines)
    if violations:
        raise CorpusValidationError(violations)
    return Corpus(
        researchers={r.researcher_id: r for r in researchers},
        publications={p.pub_id: p for p in publications},
        citations=tuple(citations),
    )


# --------------------------------------------------------------------------
# File ingestion

_DELIMITER = ","
_LIST_SEPARATOR = ";"
_JSON_SUFFIXES = {".jsonl", ".ndjson", ".json"}
_CHUNK_ROWS = 1024  # rows read or written, and converted, at a time; a file is never held whole
_scan_json = json.JSONDecoder().scan_once
_SURROGATE = re.compile(r"[\ud800-\udfff]")

# A converter turns one cell into a record field, or raises ValueError naming
# its column. A cell is DSV text or, in JSONL, the key's JSON value (None when
# the key is missing), so one converter serves both formats.


def has_lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate (U+D800-U+DFFF): JSON can
    escape one, but UTF-8 cannot encode one, so no file can hold it."""
    return not text.isascii() and _SURROGATE.search(text) is not None  # isascii() is O(1)


def _surrogate_error(column: str, text: str) -> ValueError:
    return ValueError(f"column {column!r}: {text!r} holds a lone surrogate, which UTF-8 cannot encode")


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


def _id_list(cell: object, column: str) -> tuple[str, ...]:
    """Stripped ids with the empty ones dropped, from DSV text split on ``;``
    or from a JSON array, whose members must be strings."""
    members = cell if isinstance(cell, list) else _text(cell, column).split(_LIST_SEPARATOR)
    try:
        ids = tuple(filter(None, map(str.strip, members)))
    except TypeError:  # str.strip of a member that is not a string
        bad = next(member for member in members if not isinstance(member, str))
        raise ValueError(f"column {column!r}: member {bad!r} is not a string") from None
    if bad := next(filter(has_lone_surrogate, ids), None):
        raise _surrogate_error(column, bad)
    return ids


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
    """The column converter that runs the cell converter ``convert`` once per
    distinct cell. ``convert`` must refuse every float, as ``-0.0 == 0.0``; a
    column of two cell types besides null is refused, as JSON ``true == 1``."""
    def convert_column(column: Sequence, column_name: str) -> Sequence:
        if len(set(map(type, column)) - {type(None)}) > 1:
            raise ValueError
        value_of = {cell: convert(cell, column_name) for cell in set(column)}
        if all(map(is_, value_of, value_of.values())):  # JSON cells that are already the values
            return column
        return list(map(value_of.__getitem__, column))
    return convert_column


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


def _id_lists(column: Sequence, column_name: str) -> list[tuple[str, ...]]:
    """DSV text split on ``;``, or JSON arrays of strings, when no id is
    empty or padded."""
    kinds = set(map(type, column))
    if kinds == {str}:
        ids = "\n".join(column).replace(_LIST_SEPARATOR, "\n")
        lists = map(str.split, column, repeat(_LIST_SEPARATOR))
    elif kinds == {list}:
        ids = "\n".join(chain.from_iterable(column))  # TypeError for a member that is not a string
        lists = column
    else:
        raise ValueError
    # The ids, one or more lines each: no line may be empty, and the only
    # blanks allowed are the line breaks, all inside ids. Every blank that
    # str.strip() removes is a space, a line break or not printable.
    if not ids or "\n\n" in ids or ids[0] == "\n" or ids[-1] == "\n" or " " in ids \
            or not ids.replace("\n", "").isprintable():  # nor a lone surrogate, which is not printable
        raise ValueError
    return list(map(tuple, lists))


#: Each file's columns in record-field order, with a cell and a column
#: converter each.
RESEARCHER_COLUMNS = (
    ("researcher_id", required_string, _strings), ("discipline", required_string, _distinct(required_string)),
    ("has_dsc", _bool, _distinct(_bool)), ("last_degree_year", _opt_int, _distinct(_opt_int)),
)
PUBLICATION_COLUMNS = (
    ("pub_id", required_string, _strings), ("year", _int, _distinct(_int)),
    ("pub_type", _pub_type, _distinct(_pub_type)), ("language", _language, _distinct(_language)),
    ("wos_indexed", _bool, _distinct(_bool)), ("scopus_indexed", _bool, _distinct(_bool)),
    ("impact_factor", _opt_float, _opt_floats), ("author_ids", _id_list, _id_lists),
    ("discipline", _string, _distinct(required_string)),  # an empty one, to inherit, is left to the cell converters
)
CITATION_COLUMNS = (
    ("citation_id", required_string, _strings), ("cited_pub_id", required_string, _strings),
    ("citing_year", _int, _distinct(_int)), ("citing_author_ids", _id_list, _id_lists),
    ("citing_wos_indexed", _bool, _distinct(_bool)),
)
RESEARCHER_FIELDS, PUBLICATION_FIELDS, CITATION_FIELDS = (
    tuple(column[0] for column in columns) for columns in (RESEARCHER_COLUMNS, PUBLICATION_COLUMNS, CITATION_COLUMNS)
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
    ``width`` cells and none of them blank; raises for any other chunk."""
    if set(map(len, rows)) != {width} or not all(map(str.strip, map("".join, rows))):
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


def read_records(path: Path, fields: Sequence[str], source: str, violations: list[Violation],
                 from_columns, from_cells) -> list:
    """The records of a DSV or line-delimited JSON file, read in chunks of at
    most ``_CHUNK_ROWS`` rows.

    A chunk is built whole by ``from_columns(rows, columns)``, with the
    chunk's row numbers and one column per field, in ``fields`` order; it must
    have converted every cell before it returns. When that raises, or a row of
    the chunk is not a record (bad JSON, a wrong cell count), the chunk is
    read again row by row: each row's cells become a record through
    ``from_cells(row, cells)``, and each ``ValueError`` on the way is a
    violation naming the row, so violations come in row order. Blank rows are
    skipped. Bytes that are not UTF-8 end the file with a violation naming
    it, and a DSV cell past the ``csv`` module's size limit (a quote left
    open) with one naming its row."""
    records: list = []
    first = 1
    is_json = path.suffix.lower() in _JSON_SUFFIXES
    try:
        with path.open(encoding="utf-8", newline=None if is_json else "") as handle:
            if is_json:
                rows = handle
                columns_of = partial(_json_columns, fields=fields)
                cells_of = partial(_json_cells, fields=fields)
            else:
                rows = csv.reader(handle, delimiter=_DELIMITER)
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
    for path, source, columns, record_type in (
        (researcher_file, "researchers", RESEARCHER_COLUMNS, ResearcherProfile),
        (publication_file, "publications", PUBLICATION_COLUMNS, PublicationRecord),
        (citation_file, "citations", CITATION_COLUMNS, CitationLink),
    ):
        discipline_of = {r.researcher_id: r.discipline for r in records.get(ResearcherProfile, ())}

        def from_columns(rows, cells_by_field):
            return map(record_type, *[
                convert_column(cells, name) for (name, _, convert_column), cells in zip(columns, cells_by_field)
            ])

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


def _column_texts(column: Sequence, field: str, null: str, texts, id_lists) -> Iterable[str]:
    """One column of a chunk as a format writes it: ``texts`` writes a column
    of text (an enum that is also a ``str`` included), ``null`` is None,
    booleans are ``true``/``false``, numbers their ``repr`` and ``id_lists``
    writes a column of tuples of text. Any other column is refused, naming
    it. ``True == 1`` and ``0.0 == False``, so no table of texts is looked up
    with a number."""
    kinds = set(map(type, column))
    if all(issubclass(kind, str) for kind in kinds):
        return texts(column)
    if kinds <= {bool, _NONE}:
        return map({None: null, True: "true", False: "false"}.__getitem__, column)
    if kinds <= {int, _NONE} or kinds <= {float, _NONE} and all(map(math.isfinite, filter(None, column))):
        return map({None: null}.get, column, map(repr, column))
    if kinds == {tuple} and all(issubclass(kind, str) for kind in set(map(type, chain.from_iterable(column)))):
        return id_lists(column)
    raise ValueError(f"column {field!r} is not a column of text, of booleans, of integers or of finite floats"
                     f" (each may hold None) or of tuples of text")


_dsv_column = partial(_column_texts, null="", texts=iter, id_lists=partial(map, _LIST_SEPARATOR.join))
_json_column = partial(
    _column_texts, null="null", texts=partial(map, encode_basestring),
    id_lists=lambda column: map("[%s]".__mod__, map(", ".join, map(partial(map, encode_basestring), column))),
)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _dsv_line(cells: Sequence[str]) -> str:
    line = _DELIMITER.join(cells)
    # one test per line: extra delimiters, a quote or a line break
    if line.count(_DELIMITER) >= len(cells) or '"' in line or "\n" in line or "\r" in line:
        line = _DELIMITER.join(map(_quoted, cells))
    return line + "\n"


def _dsv_text(chunk: list[Sequence], fields: Sequence[str]) -> str:
    """The DSV lines of a chunk of rows. A chunk of text is joined as it is,
    and any other chunk is converted a column at a time first. ``_dsv_line``'s
    test is made once over the chunk, and only a chunk with a cell to quote is
    written row by row."""
    try:
        text = "\n".join(map(_DELIMITER.join, chunk)) + "\n"
    except TypeError:  # a cell that is not text
        return _dsv_text(list(zip(*map(_dsv_column, zip(*chunk), fields))), fields)
    if text.count(_DELIMITER) == len(chunk) * (len(fields) - 1) and text.count("\n") == len(chunk) \
            and '"' not in text and "\r" not in text:
        return text
    return "".join(map(_dsv_line, chunk))


def _json_text(chunk: list[Sequence], fields: Sequence[str], line: str) -> str:
    """The JSONL lines of a chunk of rows, converted a column at a time and
    put into ``line``, a ``%`` template with one ``%s`` per field."""
    return "".join(map(line.__mod__, zip(*map(_json_column, zip(*chunk), fields))))


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
    if fmt == "jsonl":
        head = ""
        line = "{" + ", ".join(encode_basestring(field).replace("%", "%%") + ": %s" for field in fields) + "}\n"
        text_of = partial(_json_text, fields=fields, line=line)
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
            handle.write(text_of(chunk))
            first += len(chunk)


def _unwritable(columns: Sequence[Sequence], hints: Mapping[str, object], dsv: bool) -> str | None:
    """Why a cell of ``columns`` would not load back as written, worded for
    a one-record column, or None. ``hints`` holds the type hint of each
    column's record field, in field order. A cell must be of the type its
    field declares, exactly, so neither ``1`` for a ``bool`` nor ``True`` for
    an ``int`` passes, and a text cell must be one the reader keeps as it
    is."""
    for (name, hint), column in zip(hints.items(), columns):
        kinds = set(map(type, column))
        if get_origin(hint) is tuple:
            typed = kinds == {tuple} and set(map(type, chain.from_iterable(column))) <= {get_args(hint)[0]}
        else:
            typed = kinds <= set(get_args(hint) or (hint,))  # a union with None, or a class
        if not typed:
            return f"{name} {column[0]!r} is not {hint.__name__ if isinstance(hint, type) else hint}"
    listed = list(chain.from_iterable(chain.from_iterable(
        column for column, hint in zip(columns, hints.values()) if get_origin(hint) is tuple
    )))
    texts = [*chain.from_iterable(column for column, hint in zip(columns, hints.values()) if hint is str), *listed]
    languages = list(chain.from_iterable(column for column, name in zip(columns, hints) if name == "language"))
    split = dsv and _LIST_SEPARATOR in "\n".join(listed)
    lowered = "\n".join(languages)
    if all(texts) and list(map(str.strip, texts)) == texts and not split and lowered == lowered.lower() \
            and not has_lone_surrogate("\n".join(texts)):
        return None
    bad = next(chain(
        (text for text in texts if not text or text != text.strip() or has_lone_surrogate(text)),
        (text for text in listed if split and _LIST_SEPARATOR in text),
        (text for text in languages if text != text.lower()),
    ), None)
    return None if bad is None else (
        f"{bad!r} would not load back as written: the reader strips every text cell, lowercases the language and"
        f" splits DSV id lists on {_LIST_SEPARATOR!r}, and the files are UTF-8, which holds no lone surrogate"
    )


def _check_writable(corpus: Corpus, dsv: bool) -> None:
    """Refuse a cell that would not load back as written, naming its record.
    Each chunk of records is transposed once and tested a column at a time,
    and only a failing chunk is searched record by record, so no test holds
    more than a chunk's text."""
    for source, record_type, records in (
        ("researcher", ResearcherProfile, corpus.researchers.values()),
        ("publication", PublicationRecord, corpus.publications.values()),
        ("citation", CitationLink, corpus.citations),
    ):
        records, hints = iter(records), get_type_hints(record_type)
        while chunk := list(islice(records, _CHUNK_ROWS)):
            if _unwritable(list(zip(*chunk)), hints, dsv) is None:
                continue
            for record in chunk:
                if reason := _unwritable(list(zip(record)), hints, dsv):
                    raise CorpusError(f"{source} {record[0]!r}: {reason}")


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
    class declares, or a text cell that would not load back as written,
    raises ``CorpusError`` naming the record before any file is opened."""
    if fmt not in ("dsv", "jsonl"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    _check_writable(corpus, fmt == "dsv")
    for path, fields, records in (
        (researcher_file, RESEARCHER_FIELDS, corpus.researchers.values()),
        (publication_file, PUBLICATION_FIELDS, corpus.publications.values()),
        (citation_file, CITATION_FIELDS, corpus.citations),
    ):
        write_table(path, fields, records, fmt)
