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

A DSV cell holding ``,``, ``"``, CR or LF is quoted as ``csv.writer`` quotes
it: wrapped in ``"``, inner quotes doubled. ``write_table`` writes these lines
for every table the program writes. ``save_corpus`` refuses, with a
``CorpusError`` naming the record, a text cell the reader would change: an
empty or whitespace-padded one (every text cell is stripped on load), a
``language`` with upper-case letters (it is lowercased on load) or, in DSV, an
id-list member holding ``;``.

A loaded corpus is immutable and safe to share across threads.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO


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
        if self.start > self.end:
            raise ValueError(f"empty year window {self.start}-{self.end}")

    def __contains__(self, year: object) -> bool:
        return isinstance(year, int) and self.start <= year <= self.end

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


@dataclass(frozen=True, slots=True)
class ResearcherProfile:
    researcher_id: str
    discipline: str
    has_dsc: bool = False
    last_degree_year: int | None = None


@dataclass(frozen=True, slots=True)
class PublicationRecord:
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


@dataclass(frozen=True, slots=True)
class CitationLink:
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


@dataclass(frozen=True)
class Corpus:
    researchers: Mapping[str, ResearcherProfile]
    publications: Mapping[str, PublicationRecord]
    citations: tuple[CitationLink, ...]

    @cached_property
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
    disciplines: Sequence[str] | None = None,
) -> CoauthorshipStats:
    """Per-discipline publication and co-authorship counts over a window.

    ``coauthor_total`` sums the author counts of multi-authored publications,
    so the derived average is authors per multi-authored publication. When
    ``disciplines`` is omitted, every discipline seen on a researcher or a
    publication gets a row, in first-seen order.
    """
    if disciplines is None:
        seen: dict[str, None] = {}
        for r in corpus.researchers.values():
            seen.setdefault(r.discipline)
        for p in corpus.publications.values():
            seen.setdefault(p.discipline)
        disciplines = list(seen)

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

RESEARCHER_FIELDS = ("researcher_id", "discipline", "has_dsc", "last_degree_year")
PUBLICATION_FIELDS = (
    "pub_id", "year", "pub_type", "language", "wos_indexed",
    "scopus_indexed", "impact_factor", "author_ids", "discipline",
)
CITATION_FIELDS = (
    "citation_id", "cited_pub_id", "citing_year", "citing_author_ids", "citing_wos_indexed",
)

_DELIMITER = ","
_LIST_SEPARATOR = ";"
_JSON_SUFFIXES = {".jsonl", ".ndjson", ".json"}


class _RowError(ValueError):
    """Parse failure for one cell; carries the column name."""

    def __init__(self, column: str, message: str):
        self.column = column
        super().__init__(message)


def _cell_str(record: Mapping[str, object], column: str) -> str:
    value = record.get(column)
    if value is None:
        return ""
    return value if isinstance(value, str) else str(value)


def _cell_required(record: Mapping[str, object], column: str) -> str:
    text = _cell_str(record, column).strip()
    if not text:
        raise _RowError(column, f"column {column!r} is empty")
    return text


def _cell_int(record: Mapping[str, object], column: str) -> int:
    value = record.get(column)
    if isinstance(value, bool):
        raise _RowError(column, f"column {column!r}: expected an integer")
    if isinstance(value, int):
        return value
    text = _cell_required(record, column)
    try:
        return int(text)
    except ValueError:
        raise _RowError(column, f"column {column!r}: {text!r} is not an integer") from None


def _cell_opt_int(record: Mapping[str, object], column: str) -> int | None:
    if not _cell_str(record, column).strip() and not isinstance(record.get(column), int):
        return None
    return _cell_int(record, column)


def _cell_bool(record: Mapping[str, object], column: str) -> bool:
    value = record.get(column)
    if isinstance(value, bool):
        return value
    text = _cell_required(record, column)
    if text == "true":
        return True
    if text == "false":
        return False
    raise _RowError(column, f"column {column!r}: {text!r} is not 'true'/'false'")


def finite_float(value: object) -> float:
    """``float(value)``, refusing NaN and the infinities with ``ValueError``."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _cell_opt_float(record: Mapping[str, object], column: str) -> float | None:
    value = record.get(column)
    if isinstance(value, bool):
        raise _RowError(column, f"column {column!r}: expected a number")
    if not isinstance(value, (int, float)):
        value = _cell_str(record, column).strip()
        if not value:
            return None
    try:
        return finite_float(value)
    except ValueError:
        raise _RowError(column, f"column {column!r}: {value!r} is not a finite number") from None


def _cell_id_list(record: Mapping[str, object], column: str) -> tuple[str, ...]:
    value = record.get(column)
    if isinstance(value, (list, tuple)):
        return tuple(str(item) for item in value)
    text = _cell_str(record, column).strip()
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(_LIST_SEPARATOR) if part.strip())


def _iter_records(path: Path, fields: Sequence[str], source: str, violations: list[Violation]):
    """Yield (row_number, record_dict) from a DSV or line-delimited JSON file.
    Bytes that are not UTF-8 end the file with a violation naming it."""
    try:
        if path.suffix.lower() in _JSON_SUFFIXES:
            with path.open(encoding="utf-8") as handle:
                for row, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        violations.append(Violation(source, row, f"invalid JSON: {exc}"))
                        continue
                    if not isinstance(record, dict):
                        violations.append(Violation(source, row, "JSON line is not an object"))
                        continue
                    yield row, record
            return

        with path.open(encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle, delimiter=_DELIMITER)
            header = next(reader, None)
            if header is None:
                violations.append(Violation(source, None, "file is empty (missing header)"))
                return
            header = [cell.strip() for cell in header]
            missing = [f for f in fields if f not in header]
            if missing:
                violations.append(Violation(source, None, f"header is missing column(s) {missing}"))
                return
            index = {name: header.index(name) for name in fields}
            for row, cells in enumerate(reader, start=1):
                if not "".join(cells).strip():
                    continue
                if len(cells) != len(header):
                    violations.append(
                        Violation(source, row, f"expected {len(header)} cells, found {len(cells)}")
                    )
                    continue
                yield row, {name: cells[index[name]] for name in fields}
    except UnicodeDecodeError as exc:
        violations.append(Violation(str(path), None, f"not UTF-8 text: {exc}"))


def _parse_enum(record: Mapping[str, object], column: str, enum_type):
    text = _cell_required(record, column)
    try:
        return enum_type(text)
    except ValueError:
        allowed = ", ".join(member.value for member in enum_type)
        raise _RowError(column, f"column {column!r}: {text!r} is not one of [{allowed}]") from None


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
    researchers: list[ResearcherProfile] = []
    publications: list[PublicationRecord] = []
    citations: list[CitationLink] = []

    for row, record in _iter_records(Path(researcher_file), RESEARCHER_FIELDS, "researchers", violations):
        try:
            researchers.append(
                ResearcherProfile(
                    researcher_id=_cell_required(record, "researcher_id"),
                    discipline=_cell_required(record, "discipline"),
                    has_dsc=_cell_bool(record, "has_dsc"),
                    last_degree_year=_cell_opt_int(record, "last_degree_year"),
                )
            )
        except _RowError as exc:
            violations.append(Violation("researchers", row, str(exc)))

    profile_by_id = {r.researcher_id: r for r in researchers}
    for row, record in _iter_records(Path(publication_file), PUBLICATION_FIELDS, "publications", violations):
        try:
            authors = _cell_id_list(record, "author_ids")
            discipline = _cell_str(record, "discipline").strip()
            if not discipline:
                # Inherit the committee of the first author who is a corpus researcher.
                owner = next((a for a in authors if a in profile_by_id), None)
                if owner is None:
                    raise _RowError("discipline", "column 'discipline' is empty and no author is a corpus researcher")
                discipline = profile_by_id[owner].discipline
            publications.append(
                PublicationRecord(
                    pub_id=_cell_required(record, "pub_id"),
                    year=_cell_int(record, "year"),
                    pub_type=_parse_enum(record, "pub_type", PubType),
                    language=_cell_required(record, "language").lower(),
                    wos_indexed=_cell_bool(record, "wos_indexed"),
                    scopus_indexed=_cell_bool(record, "scopus_indexed"),
                    impact_factor=_cell_opt_float(record, "impact_factor"),
                    author_ids=authors,
                    discipline=discipline,
                )
            )
        except _RowError as exc:
            violations.append(Violation("publications", row, str(exc)))

    for row, record in _iter_records(Path(citation_file), CITATION_FIELDS, "citations", violations):
        try:
            citations.append(
                CitationLink(
                    citation_id=_cell_required(record, "citation_id"),
                    cited_pub_id=_cell_required(record, "cited_pub_id"),
                    citing_year=_cell_int(record, "citing_year"),
                    citing_author_ids=_cell_id_list(record, "citing_author_ids"),
                    citing_wos_indexed=_cell_bool(record, "citing_wos_indexed"),
                )
            )
        except _RowError as exc:
            violations.append(Violation("citations", row, str(exc)))

    try:
        corpus = build_corpus(researchers, publications, citations, disciplines)
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
_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def _dsv_cell(value: object) -> str:
    """The DSV text of one corpus value: None is empty, booleans are
    ``true``/``false`` and id lists are ``;``-joined."""
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return _LIST_SEPARATOR.join(value) if isinstance(value, tuple) else str(value)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _dsv_line(cells: Sequence[str]) -> str:
    line = _DELIMITER.join(cells)
    # one test per line: extra delimiters, a quote or a line break
    if line.count(_DELIMITER) >= len(cells) or '"' in line or "\n" in line or "\r" in line:
        line = _DELIMITER.join(map(_quoted, cells))
    return line + "\n"


def write_table(
    out: str | os.PathLike | TextIO, fields: Sequence[str], rows: Iterable[Sequence], fmt: str = "dsv"
) -> None:
    """Write a table to a file path or an open text stream, one line per row,
    streaming the rows in bounded batches.

    In ``dsv`` the first line holds ``fields`` and each row is a sequence of
    text cells; a cell holding ``,``, ``"``, CR or LF is quoted as
    ``csv.writer`` quotes it (wrapped in ``"``, inner quotes doubled; by hand,
    because Python 3.11's ``csv.writer`` leaves a CR unquoted, which its own
    reader then splits). In ``jsonl`` each row becomes one object mapping
    ``fields`` to its values, with non-ASCII text kept as UTF-8.
    """
    if fmt == "jsonl":
        lines = (_encode_json(dict(zip(fields, row))) + "\n" for row in rows)
    else:
        lines = map(_dsv_line, chain((fields,), rows))
    is_path = isinstance(out, (str, os.PathLike))
    with Path(out).open("w", encoding="utf-8", newline="") if is_path else nullcontext(out) as handle:
        while chunk := "".join(islice(lines, 1024)):  # fewer write calls, never a whole file's text
            handle.write(chunk)


def _check_writable(corpus: Corpus, dsv: bool) -> None:
    """Refuse a text cell that would not load back as written, naming its
    record. Each file's text is tested as one column first; only a failing
    file is searched record by record."""
    for source, records, texts, members, lowered in (
        ("researcher", corpus.researchers.values(), attrgetter("researcher_id", "discipline"),
         lambda r: (), lambda r: ()),
        ("publication", corpus.publications.values(), attrgetter("pub_id", "language", "discipline"),
         attrgetter("author_ids"), lambda p: (p.language,)),
        ("citation", corpus.citations, attrgetter("citation_id", "cited_pub_id"),
         attrgetter("citing_author_ids"), lambda c: ()),
    ):
        listed = list(chain.from_iterable(map(members, records)))
        column = list(chain(chain.from_iterable(map(texts, records)), listed))
        split = dsv and _LIST_SEPARATOR in "\n".join(listed)
        lower = "\n".join(chain.from_iterable(map(lowered, records)))
        if all(column) and list(map(str.strip, column)) == column and not split and lower == lower.lower():
            continue
        for record in records:
            bad = [text for text in texts(record) + members(record) if not text or text != text.strip()]
            bad += [text for text in members(record) if split and _LIST_SEPARATOR in text]
            bad += [text for text in lowered(record) if text != text.lower()]
            if bad:
                raise CorpusError(
                    f"{source} {texts(record)[0]!r}: {bad[0]!r} would not load back as written: the reader"
                    f" strips every text cell, lowercases the language and splits DSV id lists on"
                    f" {_LIST_SEPARATOR!r}"
                )


def save_corpus(
    corpus: Corpus,
    researcher_file: str | Path,
    publication_file: str | Path,
    citation_file: str | Path,
    fmt: str = "dsv",
) -> None:
    """Write the three corpus files in ``dsv`` or ``jsonl`` format, streaming
    one record per line. Loading them yields a record-wise identical corpus;
    a text cell that would not load back as written raises ``CorpusError``
    before any file is opened."""
    if fmt not in ("dsv", "jsonl"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    dsv = fmt == "dsv"
    _check_writable(corpus, dsv)
    for path, fields, records in (
        (researcher_file, RESEARCHER_FIELDS, (
            (r.researcher_id, r.discipline, r.has_dsc, r.last_degree_year)
            for r in corpus.researchers.values()
        )),
        (publication_file, PUBLICATION_FIELDS, (
            (p.pub_id, p.year, p.pub_type.value, p.language, p.wos_indexed, p.scopus_indexed,
             p.impact_factor, p.author_ids, p.discipline)
            for p in corpus.publications.values()
        )),
        (citation_file, CITATION_FIELDS, (
            (c.citation_id, c.cited_pub_id, c.citing_year, c.citing_author_ids, c.citing_wos_indexed)
            for c in corpus.citations
        )),
    ):
        write_table(path, fields, (tuple(map(_dsv_cell, r)) for r in records) if dsv else records, fmt)
