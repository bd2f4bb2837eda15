from __future__ import annotations

import io
import json
import math
import re
import sys
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from recal.corpus import (
    CITATION_FIELDS,
    PUBLICATION_FIELDS,
    RESEARCHER_FIELDS,
    CitationLink,
    Corpus,
    CorpusError,
    CorpusValidationError,
    DisciplineCoauthorship,
    TABLE_SUFFIXES,
    PublicationRecord,
    PubType,
    ResearcherProfile,
    Violation,
    YearWindow,
    _CHUNK_ROWS,
    _CONVERSION_FAILURES,
    _columns,
    _dsv_line,
    _json_cells,
    _json_columns,
    build_corpus,
    corpus_stats,
    independent_citations,
    load_corpus,
    save_corpus,
    scan_corpus,
    table_format,
    write_table,
)
from recal.config import default_config
from recal.counting import IndicatorKind
from recal.synthgen import default_spec, generate_corpus

from conftest import (
    CITATION_WINDOW,
    PUB_WINDOW,
    citation,
    publication,
    random_corpus,
    researcher,
    small_corpus,
    write_corpus_files,
)

DISCIPLINES = ("geology", "mining", "social_geography")
PUBLICATION_HEADER = (
    "pub_id,year,pub_type,language,wos_indexed,scopus_indexed,impact_factor,author_ids,discipline\n"
)


# --------------------------------------------------------------------------
# Loading and validation

def test_load_clean_files(clean_corpus_files):
    corpus = load_corpus(
        clean_corpus_files["researchers.csv"],
        clean_corpus_files["publications.csv"],
        clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    assert len(corpus.researchers) == 2
    assert len(corpus.publications) == 3
    assert len(corpus.citations) == 1
    assert corpus.publications["p1"].impact_factor == 2.5
    assert corpus.publications["p1"].author_ids == ("r1", "ext_a")
    assert corpus.researchers["r2"].last_degree_year is None


def test_unknown_discipline_names_the_row(clean_corpus_files, tmp_path):
    files = write_corpus_files(
        tmp_path,
        {
            "publications.csv": (
                "pub_id,year,pub_type,language,wos_indexed,scopus_indexed,impact_factor,author_ids,discipline\n"
                "p1,2015,journal_article,en,true,true,,r1,geology\n"
                "p2,2015,journal_article,en,true,true,,r1,astrology\n"
            )
        },
    )
    corpus, violations = scan_corpus(
        clean_corpus_files["researchers.csv"],
        files["publications.csv"],
        clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    assert corpus is None
    messages = [str(v) for v in violations]
    assert any("publications:2" in m and "astrology" in m for m in messages)


def test_dangling_citation_reference(clean_corpus_files, tmp_path):
    files = write_corpus_files(
        tmp_path,
        {
            "citations.csv": (
                "citation_id,cited_pub_id,citing_year,citing_author_ids,citing_wos_indexed\n"
                "c1,nope,2018,ext_b,true\n"
            )
        },
    )
    with pytest.raises(CorpusValidationError) as err:
        load_corpus(
            clean_corpus_files["researchers.csv"],
            clean_corpus_files["publications.csv"],
            files["citations.csv"],
            DISCIPLINES,
        )
    assert any("nope" in str(v) for v in err.value.violations)


def test_duplicate_ids_and_empty_authors_rejected(clean_corpus_files, tmp_path):
    files = write_corpus_files(
        tmp_path,
        {
            "publications.csv": (
                "pub_id,year,pub_type,language,wos_indexed,scopus_indexed,impact_factor,author_ids,discipline\n"
                "p1,2015,journal_article,en,true,true,,r1,geology\n"
                "p1,2016,book,hu,false,false,,,geology\n"
            )
        },
    )
    _, violations = scan_corpus(
        clean_corpus_files["researchers.csv"],
        files["publications.csv"],
        clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    messages = " | ".join(str(v) for v in violations)
    assert "duplicate pub_id" in messages
    assert "empty author list" in messages


def test_parse_error_reports_row_and_column(clean_corpus_files, tmp_path):
    files = write_corpus_files(
        tmp_path,
        {
            "researchers.csv": (
                "researcher_id,discipline,has_dsc,last_degree_year\n"
                "r1,geology,yes,2009\n"
            )
        },
    )
    _, violations = scan_corpus(
        files["researchers.csv"],
        clean_corpus_files["publications.csv"],
        clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    assert any("researchers:1" in str(v) and "has_dsc" in str(v) for v in violations)


@pytest.mark.parametrize(
    "name, text",
    [
        ("publications.csv", "p1,2015,journal_article,en,true,true,nan,r1,geology\n"),
        ("publications.csv", "p1,2015,journal_article,en,true,true,-inf,r1,geology\n"),
        ("publications.jsonl", '{"impact_factor": NaN}\n'),
        ("publications.jsonl", '{"impact_factor": 1e999}\n'),
    ],
)
def test_non_finite_impact_factor_names_the_row(clean_corpus_files, tmp_path, name, text):
    if name.endswith(".csv"):
        text = PUBLICATION_HEADER + text
    else:  # every other field of the clean first publication row
        record = json.loads(text)
        record.update(pub_id="p1", year=2015, pub_type="journal_article", language="en",
                      wos_indexed=True, scopus_indexed=True, author_ids=["r1"], discipline="geology")
        text = json.dumps(record) + "\n"
    files = write_corpus_files(tmp_path / "bad", {name: text})
    corpus, violations = scan_corpus(
        clean_corpus_files["researchers.csv"],
        files[name],
        clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    assert corpus is None
    assert any(
        str(v).startswith("publications:1:") and "impact_factor" in str(v) and "finite" in str(v)
        for v in violations
    )


@pytest.mark.parametrize("impact_factor, message", [
    (-1.0, "negative impact_factor"),
    (float("nan"), "impact_factor nan"),
    (float("inf"), "impact_factor inf"),
])
def test_build_corpus_rejects_negative_or_non_finite_impact_factor(impact_factor, message):
    with pytest.raises(CorpusValidationError, match=f"publications:1: 'p1' has {message}"):
        build_corpus([researcher("r1")], [publication("p1", ("r1",), impact_factor=impact_factor)], [],
                     ["geology"])


def validate_oracle(researchers, publications, citations, disciplines) -> list[Violation]:
    """The cross-record checks walked as ``validate_corpus`` once walked them:
    one set of ids per file, built beside the records, row by row."""
    registry = set(disciplines)
    violations: list[Violation] = []
    if not registry:
        violations.append(Violation("registry", None, "discipline registry is empty"))
    researcher_ids: set = set()
    for i, r in enumerate(researchers, start=1):
        if r.researcher_id in researcher_ids:
            violations.append(Violation("researchers", i, f"duplicate researcher_id {r.researcher_id!r}"))
        researcher_ids.add(r.researcher_id)
        if r.discipline not in registry:
            violations.append(Violation("researchers", i, f"unknown discipline {r.discipline!r}"))
    pub_ids: set = set()
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
                    Violation("publications", i, f"{p.pub_id!r} has impact_factor but is a {p.pub_type.value}"))
            elif not math.isfinite(p.impact_factor):
                violations.append(Violation("publications", i, f"{p.pub_id!r} has impact_factor {p.impact_factor}"))
            elif p.impact_factor < 0:
                violations.append(Violation("publications", i, f"{p.pub_id!r} has negative impact_factor"))
    citation_ids: set = set()
    for i, c in enumerate(citations, start=1):
        if c.citation_id in citation_ids:
            violations.append(Violation("citations", i, f"duplicate citation_id {c.citation_id!r}"))
        citation_ids.add(c.citation_id)
        if c.cited_pub_id not in pub_ids:
            violations.append(
                Violation("citations", i, f"cited_pub_id {c.cited_pub_id!r} does not resolve to a publication"))
        if not c.citing_author_ids:
            violations.append(Violation("citations", i, f"{c.citation_id!r} has an empty citing author list"))
        elif len(set(c.citing_author_ids)) != len(c.citing_author_ids):
            violations.append(Violation("citations", i, f"{c.citation_id!r} repeats a citing author id"))
    return violations


#: Ids drawn from a few values, so that ids repeat within a file and across files (a publication id equal to a
#: researcher id); an example's ids are all ``str``, or also ints, a float equal to one and the one NaN.
_ID_POOLS = (("a", "b", "c", "d"), ("a", "b", 1, 1.0, 2, math.nan))


@st.composite
def record_sets(draw):
    """Researchers, publications and citations in a shuffled row order, and a discipline registry, with any of
    validation's faults or none."""
    ids = st.sampled_from(draw(st.sampled_from(_ID_POOLS)))
    id_lists = st.lists(ids, max_size=3).map(tuple)  # empty or with a repeat at times
    disciplines = st.sampled_from(("geology", "mining", "nope"))
    researchers = draw(st.lists(st.builds(ResearcherProfile, ids, disciplines), max_size=4))
    publications = draw(st.lists(st.builds(
        PublicationRecord, ids, st.just(2015), st.sampled_from(PubType), st.just("hu"), st.booleans(), st.booleans(),
        st.none() | st.floats(min_value=-2, max_value=9) | st.sampled_from((math.nan, math.inf)),
        id_lists, disciplines,
    ), max_size=4))
    citations = draw(st.lists(st.builds(CitationLink, ids, ids, st.just(2016), id_lists, st.booleans()), max_size=5))
    registry = draw(st.sets(st.sampled_from(("geology", "mining")), max_size=2))
    return [draw(st.permutations(records)) for records in (researchers, publications, citations)], sorted(registry)


@settings(max_examples=400, deadline=None)
@given(drawn=record_sets())
@example(drawn=([[researcher("a")], [publication("a", ("a",))], [citation("c", "a"), citation("c", "b")]],
                ["geology"]))  # a publication id that is a researcher id; a repeated and an unresolved citation
def test_build_corpus_refuses_what_the_validation_oracle_refuses_in_its_order(drawn):
    (researchers, publications, citations), disciplines = drawn
    expected = validate_oracle(researchers, publications, citations, disciplines)
    if expected:
        with pytest.raises(CorpusValidationError) as caught:
            build_corpus(researchers, publications, citations, disciplines)
        assert caught.value.violations == expected
        return
    corpus = build_corpus(researchers, publications, citations, disciplines)
    assert list(corpus.researchers.items()) == [(r.researcher_id, r) for r in researchers]
    assert list(corpus.publications.items()) == [(p.pub_id, p) for p in publications]
    assert corpus.citations == tuple(citations)


def test_impact_factor_only_on_journal_articles(clean_corpus_files, tmp_path):
    files = write_corpus_files(
        tmp_path,
        {
            "publications.csv": (
                "pub_id,year,pub_type,language,wos_indexed,scopus_indexed,impact_factor,author_ids,discipline\n"
                "p1,2015,book,en,false,false,1.5,r1,geology\n"
            )
        },
    )
    _, violations = scan_corpus(
        clean_corpus_files["researchers.csv"],
        files["publications.csv"],
        clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    assert any("impact_factor" in str(v) for v in violations)


def test_missing_publication_discipline_inherited_from_first_corpus_author(
    clean_corpus_files, tmp_path
):
    files = write_corpus_files(
        tmp_path,
        {
            "publications.csv": (
                "pub_id,year,pub_type,language,wos_indexed,scopus_indexed,impact_factor,author_ids,discipline\n"
                "p1,2015,journal_article,en,true,true,,ext_a;r2;r1,\n"
            ),
            "no_citations.csv": (
                "citation_id,cited_pub_id,citing_year,citing_author_ids,citing_wos_indexed\n"
            ),
        },
    )
    corpus = load_corpus(
        clean_corpus_files["researchers.csv"],
        files["publications.csv"],
        files["no_citations.csv"],
        DISCIPLINES,
    )
    # ext_a is not a corpus researcher; r2 (mining) is the first who is.
    assert corpus.publications["p1"].discipline == "mining"


def test_jsonl_equivalent_format(tmp_path):
    files = write_corpus_files(
        tmp_path,
        {
            "researchers.jsonl": (
                '{"researcher_id": "r1", "discipline": "geology", "has_dsc": true, "last_degree_year": 2009}\n'
                '{"researcher_id": "r2", "discipline": "mining", "has_dsc": false, "last_degree_year": null}\n'
            ),
            "publications.jsonl": (
                '{"pub_id": "p1", "year": 2015, "pub_type": "journal_article", "language": "en",'
                ' "wos_indexed": true, "scopus_indexed": true, "impact_factor": 2.5,'
                ' "author_ids": ["r1", "ext_a"], "discipline": "geology"}\n'
            ),
            "citations.jsonl": (
                '{"citation_id": "c1", "cited_pub_id": "p1", "citing_year": 2018,'
                ' "citing_author_ids": ["ext_b", "ext_c"], "citing_wos_indexed": true}\n'
            ),
        },
    )
    corpus = load_corpus(
        files["researchers.jsonl"], files["publications.jsonl"], files["citations.jsonl"], DISCIPLINES
    )
    assert corpus.publications["p1"].author_ids == ("r1", "ext_a")
    assert corpus.researchers["r1"].has_dsc is True


_JSONL_PUBLICATION = (
    '{{"pub_id": "p1", "year": 2015, "pub_type": "book", "language": "hu", "wos_indexed": false,'
    ' "scopus_indexed": false, "author_ids": {}, "discipline": "geology"}}\n'
)
_JSONL_CITATION = (
    '{{"citation_id": "c1", "cited_pub_id": "p1", "citing_year": 2018, "citing_author_ids": {},'
    ' "citing_wos_indexed": true}}\n'
)


@pytest.mark.parametrize(
    "authors, citing, expected",
    [
        ('["r1", null]', '["ext_b"]', [
            "publications:1: column 'author_ids': member None is not a string",
            "citations:1: cited_pub_id 'p1' does not resolve to a publication",
        ]),
        ('["r1", true]', '["ext_b"]', [
            "publications:1: column 'author_ids': member True is not a string",
            "citations:1: cited_pub_id 'p1' does not resolve to a publication",
        ]),
        ('["r1", ["x"]]', '["ext_b"]', [
            "publications:1: column 'author_ids': member ['x'] is not a string",
            "citations:1: cited_pub_id 'p1' does not resolve to a publication",
        ]),
        ('["r1"]', '["ext_b", 7]', ["citations:1: column 'citing_author_ids': member 7 is not a string"]),
        ('["r1", " r1"]', '["ext_b"]', ["publications:1: 'p1' repeats an author id"]),
        ('["r1"]', '["ext_b", "ext_b "]', ["citations:1: 'c1' repeats a citing author id"]),
        ('[" r1 ", "", "  "]', '["ext_b", " "]', [("r1",), ("ext_b",)]),
        ('"r1; ext_a"', '"ext_b;ext_c;"', [("r1", "ext_a"), ("ext_b", "ext_c")]),  # split as DSV text is
    ],
    ids=["null", "boolean", "nested", "citing_number", "padded_repeat", "padded_citing_repeat", "stripped",
         "string"],
)
def test_jsonl_id_lists_follow_the_dsv_rules(clean_corpus_files, tmp_path, authors, citing, expected):
    files = write_corpus_files(tmp_path / "json", {
        "publications.jsonl": _JSONL_PUBLICATION.format(authors),
        "citations.jsonl": _JSONL_CITATION.format(citing),
    })
    paths = [clean_corpus_files["researchers.csv"], files["publications.jsonl"], files["citations.jsonl"]]
    corpus, violations = scan_corpus(*paths, DISCIPLINES)
    if corpus is None:
        assert [str(v) for v in violations] == expected
        return
    assert [corpus.publications["p1"].author_ids, corpus.citations[0].citing_author_ids] == expected
    save_corpus(corpus, *_corpus_paths(tmp_path, "jsonl"), fmt="jsonl")  # writable as loaded


def test_jsonl_integer_too_long_to_convert_is_a_violation(clean_corpus_files, tmp_path):
    files = write_corpus_files(tmp_path, {"publications.jsonl": '{"pub_id": "p1", "year": ' + "1" * 5000 + "}\n"})
    _, violations = scan_corpus(
        clean_corpus_files["researchers.csv"], files["publications.jsonl"], clean_corpus_files["citations.csv"],
        DISCIPLINES,
    )
    assert str(violations[0]).startswith("publications:1: invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
def test_round_trip(tmp_path, fmt):
    original = random_corpus(seed=7)
    suffix = "csv" if fmt == "dsv" else "jsonl"
    paths = [tmp_path / f"{name}.{suffix}" for name in ("researchers", "publications", "citations")]
    save_corpus(original, *paths, fmt=fmt)
    reloaded = load_corpus(*paths, disciplines=("geology", "mining"))
    assert dict(reloaded.researchers) == dict(original.researchers)
    assert dict(reloaded.publications) == dict(original.publications)
    assert reloaded.citations == original.citations


def _corpus_paths(directory: Path, fmt: str) -> list[Path]:
    suffix = "csv" if fmt == "dsv" else "jsonl"
    return [directory / f"{name}.{suffix}" for name in ("researchers", "publications", "citations")]


def test_dsv_quotes_cells_like_csv_writer(tmp_path):
    original = small_corpus(
        [researcher("a,b")],
        [publication('say "hi"', ("a,b", "x\ry", "l\nm"))],
        [citation("c,1", 'say "hi"', citing=("z,z",))],
    )
    paths = _corpus_paths(tmp_path, "dsv")
    save_corpus(original, *paths)
    assert paths[0].read_text(encoding="utf-8").splitlines()[1] == '"a,b",geology,false,2010'
    reloaded = load_corpus(*paths, disciplines=DISCIPLINES)
    assert dict(reloaded.researchers) == dict(original.researchers)
    assert dict(reloaded.publications) == dict(original.publications)
    assert reloaded.citations == original.citations


_PADDED, _EMPTY, _SURROGATE = (
    "has surrounding whitespace, which the readers strip", "is empty, which no reader gives back",
    "holds a lone surrogate, which UTF-8 cannot encode",
)


@pytest.mark.parametrize(
    "fmt, corpus_parts, message",
    [
        ("dsv", ([researcher("r1")], [publication("p1", ("r1", "a;b"))]),
         "publication 'p1': 'a;b' holds ';', on which the DSV reader splits an id list"),
        ("dsv", ([researcher(" r1")], []), f"researcher ' r1': ' r1' {_PADDED}"),
        ("jsonl", ([researcher("r1")], [publication("p1\t", ("r1",))]), f"publication 'p1\\t': 'p1\\t' {_PADDED}"),
        ("jsonl", ([researcher("r1")], [publication("p1", ("r1",))], [citation("c1", "p1", citing=("",))]),
         f"citation 'c1': '' {_EMPTY}"),
        ("jsonl", ([researcher("r1")], [publication("p1", ("r1",), language="EN")]),
         "publication 'p1': 'EN' is not lowercase, and the corpus readers lowercase every language"),
        ("dsv", ([researcher(chr(0xD800))], []), f"researcher '\\ud800': '\\ud800' {_SURROGATE}"),
        ("jsonl", ([researcher("r1")], [publication("p1", ("r1", "a" + chr(0xDFFF)))]),
         f"publication 'p1': 'a\\udfff' {_SURROGATE}"),
    ],
)
def test_save_refuses_ids_the_reader_would_change(tmp_path, fmt, corpus_parts, message):
    paths = _corpus_paths(tmp_path, fmt)
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        save_corpus(small_corpus(*corpus_parts), *paths, fmt=fmt)
    assert not any(path.exists() for path in paths)


_P1 = publication("p1", ("r1",))


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("researchers, publications, message", [
    ([researcher("r1", degree_year=2010.0)], [], "researcher 'r1': last_degree_year 2010.0 is not int | None"),
    ([researcher("r1")._replace(has_dsc=1)], [], "researcher 'r1': has_dsc 1 is not bool"),
    ([researcher("r1")], [_P1._replace(year="2015")], "publication 'p1': year '2015' is not int"),
    ([researcher("r1")], [_P1._replace(year=True)], "publication 'p1': year True is not int"),
    ([researcher("r1")], [_P1._replace(author_ids=["r1"])],
     "publication 'p1': author_ids ['r1'] is not tuple[str, ...]"),
    ([researcher("r1")], [_P1._replace(pub_type="book")], "publication 'p1': pub_type 'book' is not PubType"),
    ([researcher("r1")], [_P1._replace(author_ids=("r1", 2))],
     "publication 'p1': author_ids ('r1', 2) is not tuple[str, ...]"),
    ([researcher("r1")], [_P1._replace(impact_factor=2)], "publication 'p1': impact_factor 2 is not float | None"),
    # a later chunk, and a record past the first in its chunk
    ([researcher(f"r{i}") for i in range(1025)] + [researcher("r1025")._replace(has_dsc=1)], [],
     "researcher 'r1025': has_dsc 1 is not bool"),
])
def test_save_refuses_a_field_not_of_its_declared_type(tmp_path, fmt, researchers, publications, message):
    paths = _corpus_paths(tmp_path, fmt)
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        save_corpus(small_corpus(researchers, publications), *paths, fmt=fmt)
    assert not any(path.exists() for path in paths)


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("impact_factor", [math.nan, math.inf, -math.inf])
def test_save_refuses_a_non_finite_impact_factor_the_reader_would_refuse(tmp_path, fmt, impact_factor):
    # built directly: build_corpus refuses it, but Corpus is a public class
    publications = [_P1, _P1._replace(pub_id="p2", impact_factor=impact_factor)]
    corpus = Corpus({"r1": researcher("r1")}, {p.pub_id: p for p in publications}, ())
    paths = _corpus_paths(tmp_path, fmt)
    message = f"publication 'p2': impact_factor {impact_factor!r} is not a finite number"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        save_corpus(corpus, *paths, fmt=fmt)
    assert not any(path.exists() for path in paths)


def _listing(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _citations_past_a_chunk(last: CitationLink) -> Corpus:
    """A clean corpus but for ``last``, its final citation: the researcher
    and publication files and a whole chunk of citations come before it."""
    links = [citation(f"c{i}", "p1", citing=(f"ext_{i}",)) for i in range(_CHUNK_ROWS + 5)]
    return small_corpus([researcher("r1")], [_P1], [*links, last])


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
def test_save_refused_in_the_citation_file_leaves_the_directory_as_it_was(tmp_path, fmt):
    paths = _corpus_paths(tmp_path, fmt)
    for path in paths[::2]:  # a researcher and a citation file from an earlier save
        path.write_bytes(f"earlier {path.name}\n".encode())
    (tmp_path / "notes.txt").write_bytes(b"not a corpus file\n")
    before = _listing(tmp_path)
    message = f"citation 'c-last': ' x' {_PADDED}"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        save_corpus(_citations_past_a_chunk(citation("c-last", "p1", citing=(" x",))), *paths, fmt=fmt)
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
def test_save_failing_with_an_os_error_leaves_the_directory_as_it_was(tmp_path, fmt):
    paths = _corpus_paths(tmp_path, fmt)
    paths[0].write_bytes(b"earlier researchers\n")
    before = _listing(tmp_path)
    with pytest.raises(FileNotFoundError):
        save_corpus(random_corpus(seed=7), paths[0], paths[1], tmp_path / "missing" / paths[2].name, fmt=fmt)
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("name, fmt", [
    ("a.jsonl", "jsonl"), ("a.NDJSON", "jsonl"), ("a.Json", "jsonl"), ("a.csv", "dsv"), ("a.tsv", "dsv"), ("a", "dsv"),
    ("a.jsonl.csv", "dsv"), ("a.csv.json", "jsonl"), (".jsonl", "dsv"),
])
def test_the_readers_take_a_table_format_from_its_suffix(name, fmt):
    assert table_format(name) == fmt


def test_each_format_names_its_files_with_a_suffix_read_in_that_format():
    assert {fmt: table_format(f"table{suffix}") for fmt, suffix in TABLE_SUFFIXES.items()} == {
        "dsv": "dsv", "jsonl": "jsonl"}


@pytest.mark.parametrize("name, fmt, read_as", [
    ("publications.json", "dsv", "jsonl"), ("publications.NDJSON", "dsv", "jsonl"),
    ("publications.csv", "jsonl", "dsv"), ("publications", "jsonl", "dsv"),
])
def test_save_refuses_a_file_the_readers_would_read_in_the_other_format(tmp_path, name, fmt, read_as):
    paths = _corpus_paths(tmp_path, fmt)
    paths[1] = tmp_path / name
    with pytest.raises(CorpusError) as caught:
        save_corpus(random_corpus(seed=7), *paths, fmt=fmt)
    assert str(caught.value) == (f"{paths[1]}: the readers would read it as {read_as}, not {fmt}: "
                                 "a .jsonl, .ndjson, .json suffix means jsonl, any other dsv")
    assert not any(tmp_path.iterdir())


def test_save_refuses_an_unknown_format_before_any_file_is_opened(tmp_path):
    with pytest.raises(ValueError) as caught:
        save_corpus(random_corpus(seed=7), *_corpus_paths(tmp_path, "dsv"), fmt="xml")
    assert str(caught.value) == "unknown corpus format 'xml'"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt, names", [("dsv", ("r", "p.txt", "c.CSV")), ("jsonl", ("r.ndjson", "p.JSON", "c.jsonl"))])
def test_save_takes_any_name_the_readers_read_in_its_format(tmp_path, fmt, names):
    paths = [tmp_path / name for name in names]
    original = random_corpus(seed=7)
    save_corpus(original, *paths, fmt=fmt)
    reloaded = load_corpus(*paths, disciplines=("geology", "mining"))
    assert dict(reloaded.publications) == dict(original.publications)
    assert reloaded.citations == original.citations


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
def test_save_replaces_earlier_files(tmp_path, fmt):
    paths = _corpus_paths(tmp_path, fmt)
    for path in paths:
        path.write_bytes(b"earlier\n" * 10_000)
    original = random_corpus(seed=7)
    save_corpus(original, *paths, fmt=fmt)
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    reloaded = load_corpus(*paths, disciplines=("geology", "mining"))
    assert dict(reloaded.researchers) == dict(original.researchers)
    assert dict(reloaded.publications) == dict(original.publications)
    assert reloaded.citations == original.citations


@pytest.mark.parametrize("odd", ['a"b', "a\\b", "a\x01b", "a\nb", "\x1f", "\x7f\u2028"])
def test_jsonl_id_lists_write_what_json_dumps_writes(odd):
    """One id that needs escaping, or none, among ids that do not, and an
    empty tuple, each in a chunk of its own."""
    fields = ("a", "ids")
    plain = [(f"r{i}", (f"x{i}", f"y{i}")) for i in range(_CHUNK_ROWS)]
    rows = [*plain, *plain[:-1], ("odd", ("x", odd, "y")), *plain[:-1], ("empty", ()), ("one", ("z",))]
    stream = io.StringIO()
    write_table(stream, fields, rows, "jsonl")
    lines = stream.getvalue().split("\n")
    assert lines == [json.dumps(dict(zip(fields, row)), ensure_ascii=False) for row in rows] + [""]


@pytest.mark.parametrize("odd", ['a"b', "a\\b", "a\x01b", "a\nb", "é "])
def test_jsonl_text_columns_write_what_json_dumps_writes(odd):
    """A text column with one cell that needs escaping, or none, between
    columns of publication types, each in a chunk of its own."""
    fields = ("type", "text", "last")
    plain = [(PubType.BOOK, f"x{i}", PubType.MAP) for i in range(_CHUNK_ROWS)]
    rows = [*plain, *plain[:-1], (PubType.OTHER, odd, PubType.MAP)]
    stream = io.StringIO()
    write_table(stream, fields, rows, "jsonl")
    lines = stream.getvalue().split("\n")
    assert lines == [json.dumps(dict(zip(fields, row)), ensure_ascii=False) for row in rows] + [""]


def test_save_writes_jsonl_id_lists_as_json_dumps_does(tmp_path):
    corpus = _citations_past_a_chunk(citation("c-last", "p1", citing=('say "hi"', "back\\slash", "tab\tin")))
    paths = _corpus_paths(tmp_path, "jsonl")
    save_corpus(corpus, *paths, fmt="jsonl")
    lines = paths[2].read_text(encoding="utf-8").split("\n")
    assert lines == [
        json.dumps(dict(zip(CITATION_FIELDS, link)), ensure_ascii=False) for link in corpus.citations
    ] + [""]


_ID_TEXT = st.text(st.one_of(st.sampled_from(',";\r\n \t\x85\u2028\x00'), st.characters()), max_size=5)


@st.composite
def corpora_with_arbitrary_ids(draw):
    researcher_ids = draw(st.lists(_ID_TEXT, min_size=1, max_size=3, unique=True))
    author = st.one_of(st.sampled_from(researcher_ids), _ID_TEXT)
    pub_ids = draw(st.lists(_ID_TEXT, max_size=3, unique=True))
    publications = [
        publication(pid, draw(st.lists(author, min_size=1, max_size=4, unique=True)),
                    language=draw(st.sampled_from(["hu", "en", "EN", "Hu", "\u0130"])))
        for pid in pub_ids
    ]
    citing = st.lists(_ID_TEXT, min_size=1, max_size=3, unique=True)
    citations = [
        citation(cid, draw(st.sampled_from(pub_ids)), citing=draw(citing))
        for cid in (draw(st.lists(_ID_TEXT, max_size=3, unique=True)) if pub_ids else ())
    ]
    return build_corpus([researcher(rid) for rid in researcher_ids], publications, citations, ["geology"])


def _reads_back_changed(corpus, fmt: str) -> bool:
    """Oracle: the reader strips every text cell, lowercases the language, and
    DSV splits id lists on ';'; a lone surrogate cannot be written as UTF-8."""
    if any(p.language != p.language.lower() for p in corpus.publications.values()):
        return True
    texts, members = [], []
    for r in corpus.researchers.values():
        texts.append(r.researcher_id)
    for p in corpus.publications.values():
        texts.append(p.pub_id)
        members.extend(p.author_ids)
    for c in corpus.citations:
        texts.append(c.citation_id)
        members.extend(c.citing_author_ids)
    return any(t != t.strip() or not t or re.search(r"[\ud800-\udfff]", t) for t in texts + members) or (
        fmt == "dsv" and any(";" in m for m in members)
    )


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@settings(max_examples=150, deadline=None)
@given(corpus=corpora_with_arbitrary_ids())
@example(corpus=small_corpus([researcher("r1")], [publication("p1", ("r1",), language="EN")]))
def test_save_load_round_trip_for_arbitrary_ids(fmt, corpus):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _corpus_paths(Path(tmp), fmt)
        try:
            save_corpus(corpus, *paths, fmt=fmt)
        except CorpusError:
            assert _reads_back_changed(corpus, fmt)
            assert not any(path.exists() for path in paths)
            return
        assert not _reads_back_changed(corpus, fmt)
        reloaded = load_corpus(*paths, disciplines=["geology"])
    assert dict(reloaded.researchers) == dict(corpus.researchers)
    assert dict(reloaded.publications) == dict(corpus.publications)
    assert reloaded.citations == corpus.citations


# --------------------------------------------------------------------------
# Records and the chunked reader

def test_record_fields_are_the_file_columns_in_order():
    assert ResearcherProfile._fields == RESEARCHER_FIELDS
    assert PublicationRecord._fields == PUBLICATION_FIELDS
    assert CitationLink._fields == CITATION_FIELDS


@pytest.mark.parametrize("record, field", [
    (publication("p1", ("r1",)), "year"),
    (citation("c1", "p1"), "citing_year"),
    (researcher("r1"), "discipline"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)


#: Cells a DSV or JSONL reader can hand a converter, ordinary and odd.
_CELLS = st.one_of(
    st.sampled_from([
        "", " ", "true", "false", " true", "True", "0", "1", "2015", " 2015 ", "1_000", "\u0662\u0660",
        "abc", "2015.5", "2.5", "-0.0", "0.0", "nan", "inf", "1e999", "r1", " r1", "r1;r2", "r1; r2", "r1;;r2",
        ";r1", "r1;", "r1 ", "r1 ;r2", "r1\nr2", "r1 r2", "r1\u3000", "r1\x85;r2", "r1\u200b", "book", " book", "journal_article",
        "EN", "en", "geology",
    ]),
    st.sampled_from([None, True, False, 0, 1, 2015, 0.0, -0.0, 2.5, math.nan, math.inf, 10**400]),
    st.lists(st.sampled_from(["r1", "r2", " r1", "r1 ", "r1 r2", "", "r1;r2", "r1\nr2", "r1\xa0", None, 1]), max_size=3),
    st.just({"id": "r1"}),
)
# the converters of one load, whose id table already holds "r1"
RESEARCHER_COLUMNS, PUBLICATION_COLUMNS, CITATION_COLUMNS = _columns({"r1": "r1"})
_ALL_COLUMNS = RESEARCHER_COLUMNS + PUBLICATION_COLUMNS + CITATION_COLUMNS


def test_every_blank_that_strip_removes_is_a_space_or_not_printable():
    # what the id-list column converter relies on to find padded ids
    assert [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c.isprintable()] == [" "]


@settings(max_examples=400, deadline=None)
@given(column=st.sampled_from(_ALL_COLUMNS), cells=st.lists(_CELLS, min_size=1, max_size=6), homogeneous=st.booleans())
# JSON true == 1 and 0 == false: one value per distinct cell must not merge them
@example(column=RESEARCHER_COLUMNS[2], cells=[True, 1], homogeneous=False)
@example(column=RESEARCHER_COLUMNS[2], cells=[1, True], homogeneous=False)
@example(column=PUBLICATION_COLUMNS[1], cells=[0, False], homogeneous=False)
@example(column=RESEARCHER_COLUMNS[3], cells=[None, 2009, None], homogeneous=False)  # null beside integers
def test_column_converters_agree_with_cell_converters(column, cells, homogeneous):
    name, convert, convert_column = column
    if homogeneous:  # the usual case: one kind of cell per column
        cells = [cell for cell in cells if type(cell) is type(cells[0])]
    try:
        values = convert_column(tuple(cells), name)
    except _CONVERSION_FAILURES:
        return  # the chunk goes cell by cell
    assert list(map(repr, values)) == [repr(convert(cell, name)) for cell in cells]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.sampled_from([
    '{"a": 1}', ' {"b": "x"} ', "{}", "[1]", "null", '"a"', "", "  ", '{"a": [{}', "{}]}", "{}, {}", '{"a": 1} x',
    '{"a": NaN}', '{"a": 1e999}', '{"a": 1, "a": 2}', "\ufeff{}", '{"a": ' + "1" * 5000 + "}",
    '{"a": ' + "[" * 100_000 + "}",
]), min_size=1, max_size=5))
def test_json_chunk_reads_as_its_lines_do(lines):
    try:
        columns = _json_columns(lines, ("a", "b"))
    except _CONVERSION_FAILURES:
        return  # the chunk goes line by line
    assert list(zip(*columns)) == [_json_cells(line, ("a", "b")) for line in lines]


# --------------------------------------------------------------------------
# The table writer


def _dsv_cell(value: object) -> str:
    """The DSV text of one cell: None is empty, booleans are ``true``/``false``,
    tuples are ``;``-joined, text (an enum that is also a ``str`` included) is
    itself and a number is ``str`` of it."""
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return ";".join(value) if isinstance(value, tuple) else str(value)


def _table_oracle(fields, rows, fmt: str) -> str:
    """What ``write_table`` writes, one row and one cell at a time."""
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(fields, row)), ensure_ascii=False) + "\n" for row in rows)
    return _dsv_line(fields) + "".join(_dsv_line(tuple(map(_dsv_cell, row))) for row in rows)


_TABLE_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n%{\u00e9\u2028'), st.characters(blacklist_categories=("Cs",))),
                      max_size=4)
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
#: One strategy per kind of column ``write_table`` takes.
_TABLE_CELLS = [
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.integers()),
    st.one_of(st.none(), _FINITE_FLOATS, st.sampled_from([-0.0, 1e16, 5e-324])),
    _FINITE_FLOATS,
    _TABLE_TEXT,
    st.sampled_from(IndicatorKind),
    st.one_of(_TABLE_TEXT, st.sampled_from(IndicatorKind)),
    st.lists(_TABLE_TEXT, max_size=3).map(tuple),
]


@st.composite
def tables(draw):
    """Fields holding ``%`` and the like, and 0, 1 or 1023-1025 rows: copies
    of one row with a few others, any of them with cells to quote, placed
    about the writer's 1024-row chunk boundary."""
    fields = draw(st.lists(st.text(st.sampled_from('ab%{",\u00e9'), min_size=1, max_size=3),
                           min_size=1, max_size=4, unique=True))
    row = st.tuples(*[draw(st.sampled_from(_TABLE_CELLS)) for _ in fields])
    rows = [draw(row)] * draw(st.sampled_from([0, 1, 1023, 1024, 1025]))
    for other in draw(st.lists(row, max_size=3)) if rows else ():
        rows[draw(st.sampled_from([0, *range(1022, len(rows))]))] = other
    return fields, rows


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@settings(max_examples=150, deadline=None)
@given(table=tables())
@example(table=(["f"], [(1.5,), (None,), (-0.0,), (5e-324,)]))
# a cell whose only character to quote is a CR or an LF, on either side of the chunk boundary
@example(table=(["a%s", "b"], [(True, "w")] * 1023 + [(False, "x\ry"), (None, "z")]))
@example(table=(["a%s", "b"], [(True, "w")] * 1024 + [(False, "x\ny")]))
def test_write_table_writes_what_the_row_oracle_writes(tmp_path_factory, fmt, table):
    fields, rows = table
    path = tmp_path_factory.mktemp("table") / "table"
    write_table(path, fields, rows, fmt)
    stream = io.StringIO()
    write_table(stream, fields, iter(rows), fmt)
    lines = _table_oracle(fields, rows, fmt).split("\n")  # line by line: a diff of two whole texts is slow
    assert path.read_bytes().decode("utf-8").split("\n") == lines
    assert stream.getvalue().split("\n") == lines


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("column", [
    [True, 1],  # True == 1, and a boolean is no integer
    ["a", 1],
    ["a", None],
    [1.5, 2],
    [math.nan],  # DSV would write nan, which its reader refuses
    [None, math.inf],
    [-math.inf],
    [("a", 1, None, 2.5), ("b",)],  # JSON could write it, but no reader takes it back
    [("a",), ["b"]],
    [Decimal("1.5")],
    [b"a"],
])
def test_write_table_refuses_a_column_of_any_other_kind(fmt, column):
    rows = [("x", cell) for cell in column]
    for written in (rows, [("x", "y")] * 1024 + rows):  # in the first chunk or a later one
        with pytest.raises(ValueError, match="^column 'b' is not a column of text, "):
            write_table(io.StringIO(), ("a", "b"), written, fmt)


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("rows, message", [
    ([("a", "b"), ("c",)], "row 2: expected 2 cells, found 1"),
    ([("a", "b", "c")], "row 1: expected 2 cells, found 3"),
    ([("a", "b")] * 1024 + [()], "row 1025: expected 2 cells, found 0"),
])
def test_write_table_refuses_a_row_not_as_wide_as_its_header(fmt, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_table(io.StringIO(), ("x", "y"), rows, fmt)


# --------------------------------------------------------------------------
# Independent citations

def test_coauthor_citation_excluded():
    pub = publication("p1", ("r1", "ext_a"))
    corpus = small_corpus(
        [researcher("r1")],
        [pub],
        [
            citation("c1", "p1", citing=("ext_a", "stranger")),  # shares ext_a
            citation("c2", "p1", citing=("r1",)),  # self-citation
            citation("c3", "p1", citing=("stranger",)),
        ],
    )
    links = independent_citations(corpus, pub, CITATION_WINDOW)
    assert [link.citation_id for link in links] == ["c3"]


def test_window_filters_citing_years():
    pub = publication("p1", ("r1",))
    corpus = small_corpus(
        [researcher("r1")],
        [pub],
        [
            citation("c1", "p1", year=2013),
            citation("c2", "p1", year=2015),
            citation("c3", "p1", year=2020),
        ],
    )
    links = independent_citations(corpus, pub, YearWindow(2014, 2019))
    assert [link.citation_id for link in links] == ["c2"]


@pytest.mark.parametrize("other", [publication("p1", ("r1",)), publication("p2", ("r1",))], ids=["equal", "absent"])
def test_independent_citations_refuse_a_publication_that_is_not_the_corpus_record(other):
    corpus = small_corpus([researcher("r1")], [publication("p1", ("r1",))], [citation("c1", "p1")])
    with pytest.raises(CorpusError) as caught:
        independent_citations(corpus, other, CITATION_WINDOW)
    assert str(caught.value) == f"publication {other.pub_id!r} does not belong to this corpus"


@pytest.mark.parametrize("start, end, message", [
    (2014.0, 2018, "year window bounds must be integers, got 2014.0 and 2018"),
    (2014, "2018", "year window bounds must be integers, got 2014 and '2018'"),
    (True, 2018, "year window bounds must be integers, got True and 2018"),
])
def test_a_year_window_refuses_bounds_that_are_not_integers(start, end, message):
    with pytest.raises(TypeError) as caught:
        YearWindow(start, end)
    assert str(caught.value) == message


@given(seed=st.integers(min_value=0, max_value=300), order=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_the_citation_index_holds_each_publications_links_as_a_tuple_in_file_order(seed, order):
    corpus = random_corpus(seed=seed)
    citations = list(corpus.citations)
    order.shuffle(citations)  # the groups interleave in file order
    corpus = Corpus(corpus.researchers, corpus.publications, tuple(citations))
    first_cited = list(dict.fromkeys(link.cited_pub_id for link in citations))
    assert list(corpus.citations_of) == first_cited
    for pid, links in corpus.citations_of.items():
        assert type(links) is tuple
        assert links == tuple(link for link in citations if link.cited_pub_id == pid)


def test_independent_subset_and_exclusion_reason():
    corpus = random_corpus(seed=3)
    for pub in corpus.publications.values():
        links = independent_citations(corpus, pub, CITATION_WINDOW)
        all_links = corpus.citations_of.get(pub.pub_id, ())
        assert set(links) <= set(all_links)
        for link in all_links:
            if link.citing_year in CITATION_WINDOW and link not in links:
                assert set(link.citing_author_ids) & set(pub.author_ids)


# --------------------------------------------------------------------------
# Co-authorship statistics

def test_stats_hand_enumeration():
    # author counts 1, 2, 2, 5 -> 3 multi-authored of 4; mean (2+2+5)/3 = 3.0
    pubs = [
        publication("p1", ("r1",)),
        publication("p2", ("r1", "x1")),
        publication("p3", ("r1", "x2")),
        publication("p4", ("r1", "x1", "x2", "x3", "x4")),
    ]
    corpus = small_corpus([researcher("r1")], pubs)
    row = corpus_stats(corpus, PUB_WINDOW, ["geology"])["geology"]
    assert row.pub_count == 4
    assert row.multi_authored_count == 3
    assert row.multi_ratio == pytest.approx(75.0)
    assert row.avg_coauthors_per_multi == pytest.approx(3.0)


def test_stats_all_single_authored():
    corpus = small_corpus([researcher("r1")], [publication("p1", ("r1",))])
    row = corpus_stats(corpus, PUB_WINDOW, ["geology"])["geology"]
    assert row.multi_ratio == 0.0
    assert row.avg_coauthors_per_multi is None


def test_stats_published_section_row():
    row = DisciplineCoauthorship(
        discipline="social_geography",
        pub_count=3277,
        multi_authored_count=2199,
        coauthor_total=8173,
    )
    assert round(row.multi_ratio, 2) == 67.10
    assert round(row.avg_coauthors_per_multi, 2) == 3.72


def test_stats_additive_over_partitions():
    corpus = random_corpus(seed=11)
    pubs = list(corpus.publications.values())
    researchers = list(corpus.researchers.values())
    left = small_corpus(researchers, pubs[::2], disciplines=("geology", "mining"))
    right = small_corpus(researchers, pubs[1::2], disciplines=("geology", "mining"))
    whole = corpus_stats(corpus, PUB_WINDOW, ["geology", "mining"])
    parts_l = corpus_stats(left, PUB_WINDOW, ["geology", "mining"])
    parts_r = corpus_stats(right, PUB_WINDOW, ["geology", "mining"])
    for d in ("geology", "mining"):
        assert whole[d].pub_count == parts_l[d].pub_count + parts_r[d].pub_count
        assert (
            whole[d].multi_authored_count
            == parts_l[d].multi_authored_count + parts_r[d].multi_authored_count
        )
        assert whole[d].coauthor_total == parts_l[d].coauthor_total + parts_r[d].coauthor_total


@given(st.integers(min_value=0, max_value=200))
def test_stats_ranges_hold(seed):
    corpus = random_corpus(seed=seed)
    for row in corpus_stats(corpus, PUB_WINDOW, ["geology", "mining"]).values():
        assert 0.0 <= row.multi_ratio <= 100.0
        if row.avg_coauthors_per_multi is not None:
            assert row.avg_coauthors_per_multi >= 2.0


# --------------------------------------------------------------------------
# One object per researcher and publication id across a load

@pytest.fixture(scope="module", params=["dsv", "jsonl"])
def fmt(request):
    return request.param


@pytest.fixture(scope="module")
def synth_load(fmt, tmp_path_factory):
    """The seed-1 synth corpus saved in a format and loaded back, with its
    first publication's discipline left empty, so the first chunk of the
    publication file is read row by row and the others a column at a time."""
    generated = generate_corpus(default_spec(1))
    first = next(iter(generated.publications.values()))
    assert first.author_ids[0] in generated.researchers
    assert len(generated.publications) > 2 * _CHUNK_ROWS
    paths = _corpus_paths(tmp_path_factory.mktemp(fmt), fmt)
    save_corpus(generated, *paths, fmt=fmt)
    lines = paths[1].read_text(encoding="utf-8").splitlines(keepends=True)
    if fmt == "dsv":  # after the header; the discipline is the last column
        lines[1] = lines[1].rstrip("\n").rsplit(",", 1)[0] + ",\n"
    else:
        lines[0] = json.dumps({**json.loads(lines[0]), "discipline": ""}, ensure_ascii=False) + "\n"
    paths[1].write_text("".join(lines), encoding="utf-8")
    loaded = load_corpus(*paths, default_config().disciplines)
    inherited = loaded.publications[first.pub_id]
    assert inherited.discipline == loaded.researchers[first.author_ids[0]].discipline  # the row-by-row path ran
    return loaded


def test_loaded_author_and_cited_ids_are_the_named_records_own_ids(synth_load):
    researchers, publications = synth_load.researchers, synth_load.publications
    shared = 0
    for pub in publications.values():
        for author in pub.author_ids:
            if author in researchers:
                assert author is researchers[author].researcher_id
                shared += 1
    assert shared > len(publications)  # most publications have more than one corpus author
    for link in synth_load.citations:
        assert link.cited_pub_id is publications[link.cited_pub_id].pub_id
    assert synth_load.citations


@pytest.mark.parametrize("divisor", [30, 1, None], ids=["one chunk", "many chunks", "a chunk row by row"])
def test_a_loaded_repeated_column_holds_one_object_per_distinct_value(tmp_path, fmt, divisor, synth_load):
    if divisor is None:
        loaded = synth_load
    else:
        spec = default_spec(1)
        spec = replace(spec, params=tuple(
            replace(p, researcher_count=-(-p.researcher_count // divisor), pub_count=p.pub_count // divisor)
            for p in spec.params
        ))
        generated = generate_corpus(spec)
        rows = max(len(generated.publications), len(generated.citations))
        assert rows <= _CHUNK_ROWS if divisor > 1 else rows > 10 * _CHUNK_ROWS
        paths = _corpus_paths(tmp_path, fmt)
        save_corpus(generated, *paths, fmt=fmt)
        loaded = load_corpus(*paths, default_config().disciplines)
    for records, names in (
        (loaded.researchers.values(), ("discipline", "last_degree_year")),
        (loaded.publications.values(), ("discipline", "year", "language")),
        (loaded.citations, ("citing_year",)),
    ):
        for name in names:
            cells = [getattr(record, name) for record in records]
            assert len(set(map(id, cells))) == len(set(cells)) < len(cells), name


def test_loaded_records_are_of_their_record_class_exactly(synth_load):
    # tuple equality ignores the class, so the round-trip tests cannot tell
    assert {type(record) for record in synth_load.researchers.values()} == {ResearcherProfile}
    assert {type(record) for record in synth_load.publications.values()} == {PublicationRecord}
    assert {type(record) for record in synth_load.citations} == {CitationLink}
