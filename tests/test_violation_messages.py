"""Byte-for-byte violation messages of the corpus, APV and threshold readers.

Each case replaces one input file and pins ``str()`` of every violation (or
the one ``RecalibrationError`` of an APV table, or ``EvaluationError`` of a
threshold table), in order. The expected texts
were recorded from the readers as they stood before the column tables
replaced the per-cell helpers, except the cases of a JSON value other than a
string in a text column (``*_as_id``, ``*_as_discipline``, ``*_as_language``,
``*_as_cited``) or other than an array or a string in an id-list column
(``*_as_authors``, ``*_as_citing``), which were written when those columns
began refusing one, and the rows around the reader's 1024-row chunk boundary,
a JSON ``1`` under a ``true``, the non-positive APVs and the lone surrogates,
which were written with the checks that refuse them, and the threshold
tables, written when their reader came to share the APV reader's rules. A
change to any of them is a change to what users read on stderr and should be
made on purpose.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from recal.cli import main
from recal.corpus import scan_corpus
from recal.evaluation import EvaluationError, load_threshold_table
from recal.recalibration import RecalibrationError, read_apv_table

from conftest import write_corpus_files

DISCIPLINES = ("geology", "mining", "social_geography")
HEADERS = {
    "researchers": "researcher_id,discipline,has_dsc,last_degree_year\n",
    "publications": "pub_id,year,pub_type,language,wos_indexed,scopus_indexed,impact_factor,author_ids,discipline\n",
    "citations": "citation_id,cited_pub_id,citing_year,citing_author_ids,citing_wos_indexed\n",
    "apv": "discipline,kind,method,apv\n",
}
#: One valid JSON record per file, as key -> JSON literal text.
JSON_RECORDS = {
    "researchers": {"researcher_id": '"r1"', "discipline": '"geology"', "has_dsc": "true",
                    "last_degree_year": "2009"},
    "publications": {"pub_id": '"p1"', "year": "2015", "pub_type": '"journal_article"', "language": '"en"',
                     "wos_indexed": "true", "scopus_indexed": "true", "impact_factor": "2.5",
                     "author_ids": '["r1", "ext_a"]', "discipline": '"geology"'},
    "citations": {"citation_id": '"c1"', "cited_pub_id": '"p1"', "citing_year": "2018",
                  "citing_author_ids": '["ext_b", "ext_c"]', "citing_wos_indexed": "true"},
    "apv": {"discipline": '"geology"', "kind": '"publications"', "method": '"integer"', "apv": '"1.5"'},
}
BIG = "1" + "0" * 400  # overflows a float
DEEP_JSON = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


def dsv(file: str, *rows: str) -> tuple[str, str]:
    return f"{file}.csv", HEADERS[file] + "".join(row + "\n" for row in rows)


def jsonl(file: str, **literals: str | None) -> tuple[str, str]:
    """One JSON line: the file's valid record with some values replaced by
    JSON literal text, or dropped where the literal is None."""
    record = {**JSON_RECORDS[file], **literals}
    return f"{file}.jsonl", "{" + ", ".join(f'"{k}": {v}' for k, v in record.items() if v is not None) + "}\n"


CORPUS_CASES = {
    # researchers, DSV
    "r_bad_bool": (dsv("researchers", "r1,geology,yes,2009"), [
        "researchers:1: column 'has_dsc': 'yes' is not 'true'/'false'",
    ]),
    "r_empty_id": (dsv("researchers", ",geology,true,2009", "r2,mining,false,"), [
        "researchers:1: column 'researcher_id' is empty",
    ]),
    "r_empty_bool": (dsv("researchers", "r1,geology,,2009", "r2,mining,false,"), [
        "researchers:1: column 'has_dsc' is empty",
    ]),
    "r_bad_year": (dsv("researchers", "r1,geology,true,abc", "r2,mining,false, "), [
        "researchers:1: column 'last_degree_year': 'abc' is not an integer",
    ]),
    "r_blank_discipline": (dsv("researchers", "r1, ,true,2009", "r2,mining,false,"), [
        "researchers:1: column 'discipline' is empty",
    ]),
    "r_short_row": (dsv("researchers", "r1,geology,true", "r2,mining,false,"), [
        "researchers:1: expected 4 cells, found 3",
    ]),
    "r_missing_column": (("researchers.csv", "researcher_id,discipline,has_dsc\nr1,geology,true\n"), [
        "researchers: header is missing column(s) ['last_degree_year']",
    ]),
    "r_empty_file": (("researchers.csv", ""), [
        "researchers: file is empty (missing header)",
    ]),
    "r_duplicate_and_unknown": (dsv("researchers", "r1,geology,true,2009", "r1,geo,false,"), [
        "researchers:2: duplicate researcher_id 'r1'",
        "researchers:2: unknown discipline 'geo'",
    ]),
    # publications, DSV
    "p_empty_year": (dsv("publications", "p1,,book,hu,false,false,,r1,geology"), [
        "publications:1: column 'year' is empty",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_multi_fault_no_owner": (dsv("publications", "p1,abc,book,hu,false,false,,ext1,"), [
        "publications:1: column 'discipline' is empty and no author is a corpus researcher",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_multi_fault_with_owner": (dsv("publications", "p1,abc,book,hu,false,false,,ext1;r2,"), [
        "publications:1: column 'year': 'abc' is not an integer",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_bad_type": (dsv("publications", "p1,2015,poem,hu,false,false,,r1,geology"), [
        "publications:1: column 'pub_type': 'poem' is not one of "
        "[journal_article, book, book_chapter, conference_paper, map, other]",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_empty_type": (dsv("publications", "p1,2015,,hu,false,false,,r1,geology"), [
        "publications:1: column 'pub_type' is empty",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_empty_language": (dsv("publications", "p1,2015,book,,false,false,,r1,geology"), [
        "publications:1: column 'language' is empty",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_bad_bool_first": (dsv("publications", "p1,2015,journal_article,en,true,maybe,abc,r1,geology"), [
        "publications:1: column 'scopus_indexed': 'maybe' is not 'true'/'false'",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_bad_float": (dsv("publications", "p1,2015,journal_article,en,true,true,abc,r1,geology"), [
        "publications:1: column 'impact_factor': 'abc' is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_float_1e999": (dsv("publications", "p1,2015,journal_article,en,true,true,1e999,r1,geology"), [
        "publications:1: column 'impact_factor': '1e999' is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_float_10_400": (dsv("publications", f"p1,2015,journal_article,en,true,true,{BIG},r1,geology"), [
        f"publications:1: column 'impact_factor': '{BIG}' is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "p_empty_authors": (dsv("publications", "p1,2015,book,hu,false,false,,,geology"), [
        "publications:1: 'p1' has an empty author list",
    ]),
    "p_repeated_author": (dsv("publications", "p1,2015,book,hu,false,false,, r1 ;r1,geology"), [
        "publications:1: 'p1' repeats an author id",
    ]),
    "p_impact_on_book": (dsv("publications", "p1,2015,book,hu,false,false,-1,r1,geology"), [
        "publications:1: 'p1' has impact_factor but is a book",
    ]),
    # citations, DSV
    "c_bad_year": (dsv("citations", "c1,p1,x,ext_b,true"), [
        "citations:1: column 'citing_year': 'x' is not an integer",
    ]),
    "c_empty_bool": (dsv("citations", "c1,p1,2018,ext_b,"), [
        "citations:1: column 'citing_wos_indexed' is empty",
    ]),
    "c_empty_cited": (dsv("citations", "c1,,2018,ext_b,true"), [
        "citations:1: column 'cited_pub_id' is empty",
    ]),
    "c_dangling_no_authors": (dsv("citations", "c1,p9,2018,,true", "c1,p1,2018,a;a,true"), [
        "citations:1: cited_pub_id 'p9' does not resolve to a publication",
        "citations:1: 'c1' has an empty citing author list",
        "citations:2: duplicate citation_id 'c1'",
        "citations:2: 'c1' repeats a citing author id",
    ]),
    # researchers, JSONL
    "rj_int_as_bool": (jsonl("researchers", has_dsc="1"), [
        "researchers:1: column 'has_dsc': '1' is not 'true'/'false'",
    ]),
    # JSON true == 1, so a column converter that reads distinct cells must not let row 1 stand for row 2
    "rj_int_as_bool_after_true": (("researchers.jsonl", jsonl("researchers")[1]
                                   + jsonl("researchers", researcher_id='"r2"', has_dsc="1")[1]), [
        "researchers:2: column 'has_dsc': '1' is not 'true'/'false'",
    ]),
    "rj_null_bool": (jsonl("researchers", has_dsc="null"), [
        "researchers:1: column 'has_dsc' is empty",
    ]),
    "rj_true_as_int": (jsonl("researchers", last_degree_year="true"), [
        "researchers:1: column 'last_degree_year': expected an integer",
    ]),
    "rj_text_as_int": (jsonl("researchers", last_degree_year='"abc"'), [
        "researchers:1: column 'last_degree_year': 'abc' is not an integer",
    ]),
    "rj_fraction_as_int": (jsonl("researchers", last_degree_year="2009.5"), [
        "researchers:1: column 'last_degree_year': '2009.5' is not an integer",
    ]),
    "rj_inf_as_int": (jsonl("researchers", last_degree_year="1e999"), [
        "researchers:1: column 'last_degree_year': 'inf' is not an integer",
    ]),
    "rj_missing_id": (jsonl("researchers", researcher_id=None), [
        "researchers:1: column 'researcher_id' is empty",
    ]),
    "rj_blank_id": (jsonl("researchers", researcher_id='"  "'), [
        "researchers:1: column 'researcher_id' is empty",
    ]),
    "rj_list_as_id": (jsonl("researchers", researcher_id='["r1"]'), [
        "researchers:1: column 'researcher_id': ['r1'] is not a string",
    ]),
    "rj_true_as_id": (jsonl("researchers", researcher_id="true"), [
        "researchers:1: column 'researcher_id': True is not a string",
    ]),
    "rj_number_as_discipline": (jsonl("researchers", discipline="5"), [
        "researchers:1: column 'discipline': 5 is not a string",
    ]),
    "rj_not_object": (("researchers.jsonl", '["r1"]\n'), [
        "researchers:1: JSON line is not an object",
    ]),
    "rj_invalid_json": (("researchers.jsonl", '{"researcher_id": \n'), [
        "researchers:1: invalid JSON: Expecting value: line 1 column 18 (char 17)",
    ]),
    # publications, JSONL
    "pj_true_as_int": (jsonl("publications", year="true"), [
        "publications:1: column 'year': expected an integer",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_text_as_int": (jsonl("publications", year='"abc"'), [
        "publications:1: column 'year': 'abc' is not an integer",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_missing_year": (jsonl("publications", year=None), [
        "publications:1: column 'year' is empty",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_inf_as_int": (jsonl("publications", year="1e999"), [
        "publications:1: column 'year': 'inf' is not an integer",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_bad_type": (jsonl("publications", pub_type='"poem"'), [
        "publications:1: column 'pub_type': 'poem' is not one of "
        "[journal_article, book, book_chapter, conference_paper, map, other]",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_number_as_type": (jsonl("publications", pub_type="5"), [
        "publications:1: column 'pub_type': '5' is not one of "
        "[journal_article, book, book_chapter, conference_paper, map, other]",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_text_as_bool": (jsonl("publications", wos_indexed='"yes"'), [
        "publications:1: column 'wos_indexed': 'yes' is not 'true'/'false'",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_int_as_bool": (jsonl("publications", wos_indexed="0"), [
        "publications:1: column 'wos_indexed': '0' is not 'true'/'false'",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_true_as_float": (jsonl("publications", impact_factor="true"), [
        "publications:1: column 'impact_factor': expected a number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_float_1e999": (jsonl("publications", impact_factor="1e999"), [
        "publications:1: column 'impact_factor': inf is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_int_10_400": (jsonl("publications", impact_factor=BIG), [
        f"publications:1: column 'impact_factor': {BIG} is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_nan": (jsonl("publications", impact_factor="NaN"), [
        "publications:1: column 'impact_factor': nan is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_text_as_float": (jsonl("publications", impact_factor='"abc"'), [
        "publications:1: column 'impact_factor': 'abc' is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_list_as_float": (jsonl("publications", impact_factor="[1]"), [
        "publications:1: column 'impact_factor': '[1]' is not a finite number",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_number_as_id": (jsonl("publications", pub_id="1"), [
        "publications:1: column 'pub_id': 1 is not a string",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_number_as_language": (jsonl("publications", language="5"), [
        "publications:1: column 'language': 5 is not a string",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_list_as_discipline": (jsonl("publications", discipline='["geology"]'), [
        "publications:1: column 'discipline': ['geology'] is not a string",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_missing_authors": (jsonl("publications", author_ids=None), [
        "publications:1: 'p1' has an empty author list",
    ]),
    "pj_multi_fault_no_owner": (jsonl("publications", year='"abc"', author_ids='["ext1"]', discipline=None), [
        "publications:1: column 'discipline' is empty and no author is a corpus researcher",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_number_as_authors": (jsonl("publications", author_ids="5"), [
        "publications:1: column 'author_ids': 5 is not a string or an array",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    # no discipline: inheriting one reads the authors before any other cell
    "pj_true_as_authors": (jsonl("publications", author_ids="true", discipline=None), [
        "publications:1: column 'author_ids': True is not a string or an array",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    # citations, JSONL
    "cj_number_as_citing": (jsonl("citations", citing_author_ids="7.5"), [
        "citations:1: column 'citing_author_ids': 7.5 is not a string or an array",
    ]),
    "cj_object_as_citing": (jsonl("citations", citing_author_ids='{"id": "ext_b"}'), [
        "citations:1: column 'citing_author_ids': {'id': 'ext_b'} is not a string or an array",
    ]),
    "cj_true_as_int": (jsonl("citations", citing_year="true"), [
        "citations:1: column 'citing_year': expected an integer",
    ]),
    "cj_text_as_bool": (jsonl("citations", citing_wos_indexed='"yes"'), [
        "citations:1: column 'citing_wos_indexed': 'yes' is not 'true'/'false'",
    ]),
    "cj_no_authors": (jsonl("citations", citing_author_ids="[]"), [
        "citations:1: 'c1' has an empty citing author list",
    ]),
    "cj_list_as_cited": (jsonl("citations", cited_pub_id='["p1"]'), [
        "citations:1: column 'cited_pub_id': ['p1'] is not a string",
    ]),
    "cj_object_as_id": (jsonl("citations", citation_id='{"id": "c1"}'), [
        "citations:1: column 'citation_id': {'id': 'c1'} is not a string",
    ]),
    "cj_missing_cited": (jsonl("citations", cited_pub_id=None), [
        "citations:1: column 'cited_pub_id' is empty",
    ]),
    # a lone surrogate: JSON can escape one, but the UTF-8 files the program writes cannot hold one
    "rj_surrogate_discipline": (jsonl("researchers", discipline='"geo\\ud800"'), [
        "researchers:1: column 'discipline': 'geo\\ud800' holds a lone surrogate, which UTF-8 cannot encode",
    ]),
    "pj_surrogate_id": (jsonl("publications", pub_id='"p\\udc00"'), [
        "publications:1: column 'pub_id': 'p\\udc00' holds a lone surrogate, which UTF-8 cannot encode",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "pj_surrogate_author": (jsonl("publications", author_ids='["r1", "x\\udfff"]'), [
        "publications:1: column 'author_ids': 'x\\udfff' holds a lone surrogate, which UTF-8 cannot encode",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
    "cj_surrogate_citing": (jsonl("citations", citing_author_ids='["\\udfff\\ud800", "ext_b"]'), [  # a pair reversed
        "citations:1: column 'citing_author_ids': '\\udfff\\ud800' holds a lone surrogate, which UTF-8 cannot encode",
    ]),
    # a blank line sends its chunk row by row, and the rows after it keep their numbers
    "rj_blank_line_before_a_bad_row": (("researchers.jsonl", jsonl("researchers")[1] + "\n"
                                        + jsonl("researchers", researcher_id='"r2"', has_dsc='"yes"')[1]), [
        "researchers:3: column 'has_dsc': 'yes' is not 'true'/'false'",
    ]),
    "rj_deep_nesting": (("researchers.jsonl", "[" * 100_000 + "\n"), [
        f"researchers:1: invalid JSON: {DEEP_JSON}",
    ]),
    "p_open_quote_after_a_bad_row": (dsv("publications", "p1,abc,book,hu,false,false,,r1,geology",
                                          '"p2' + "x" * 140_000), [
        "publications:1: column 'year': 'abc' is not an integer",
        "publications:2: unreadable from here on: field larger than field limit (131072)",
        "citations:1: cited_pub_id 'p1' does not resolve to a publication",
    ]),
}


@pytest.mark.parametrize("case", sorted(CORPUS_CASES))
def test_corpus_violation_messages_are_pinned(clean_corpus_files, tmp_path, case):
    (name, text), expected = CORPUS_CASES[case]
    bad = write_corpus_files(tmp_path / "bad", {name: text})[name]
    paths = [
        bad if name.startswith(file) else clean_corpus_files[f"{file}.csv"]
        for file in ("researchers", "publications", "citations")
    ]
    corpus, violations = scan_corpus(*paths, DISCIPLINES)
    assert corpus is None
    assert [str(v) for v in violations] == expected


def test_not_utf8_violation_names_the_file(clean_corpus_files, tmp_path):
    bad = tmp_path / "researchers.csv"
    bad.write_bytes(HEADERS["researchers"].encode() + b"r1,geo\xfflogy,true,2009\n")
    _, violations = scan_corpus(
        bad, clean_corpus_files["publications.csv"], clean_corpus_files["citations.csv"], DISCIPLINES
    )
    assert [str(v) for v in violations] == [
        f"{bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 56: invalid start byte",
    ]


APV_CASES = {
    "empty_apv": (dsv("apv", "geology,publications,integer,"), "APV:1: bad APV row: column 'apv' is empty"),
    "empty_discipline": (dsv("apv", ",publications,integer,1"), "APV:1: bad APV row: column 'discipline' is empty"),
    "bad_kind": (dsv("apv", "geology,pubs,integer,1.5"), "APV:1: bad APV row: 'pubs' is not a valid IndicatorKind"),
    "bad_method": (dsv("apv", "geology,publications,fraction,1"),
                   "APV:1: bad APV row: 'fraction' is not a valid CountingMethod"),
    "bad_float": (dsv("apv", "geology,publications,integer,abc"),
                  "APV:1: bad APV row: could not convert string to float: 'abc'"),
    "nan": (dsv("apv", "geology,publications,integer,nan"), "APV:1: bad APV row: 'nan' is not a finite number"),
    "overflow": (dsv("apv", f"geology,publications,integer,{BIG}"),
                 f"APV:1: bad APV row: '{BIG}' is not a finite number"),
    "zero": (dsv("apv", "geology,publications,integer,0"), "APV:1: bad APV row: column 'apv': '0' is not positive"),
    "negative": (dsv("apv", "geology,publications,integer,-1"),
                 "APV:1: bad APV row: column 'apv': '-1' is not positive"),
    "long_row": (dsv("apv", "geology,publications,integer,1.5,9"), "APV:1: expected 4 cells, found 5"),
    "missing_column": (("apv.csv", "discipline,kind,method\ngeology,publications,integer\n"),
                       "APV: header is missing column(s) ['apv']"),
    "repeated": (dsv("apv", "geology,publications,integer,1.5", "mining,publications,integer,2",
                     "geology,publications,integer,1.5"),
                 "APV:3: repeats row 1, the APV of (geology, publications, integer)"),
    "json_true": (jsonl("apv", apv="true"), "APV:1: bad APV row: could not convert string to float: 'True'"),
    "json_missing": (jsonl("apv", apv=None), "APV:1: bad APV row: column 'apv' is empty"),
    "json_1e999": (jsonl("apv", apv="1e999"), "APV:1: bad APV row: 'inf' is not a finite number"),
    "json_10_400": (jsonl("apv", apv=BIG), f"APV:1: bad APV row: '{BIG}' is not a finite number"),
    "json_negative": (jsonl("apv", apv="-0.5"), "APV:1: bad APV row: column 'apv': '-0.5' is not positive"),
    "json_number_kind": (jsonl("apv", kind="5"), "APV:1: bad APV row: '5' is not a valid IndicatorKind"),
    "json_not_object": (("apv.jsonl", "[1]\n"), "APV:1: JSON line is not an object"),
    "json_list_as_discipline": (jsonl("apv", discipline='["geology"]'),
                                "APV:1: bad APV row: column 'discipline': ['geology'] is not a string"),
    "json_number_as_discipline": (jsonl("apv", discipline="5"),
                                  "APV:1: bad APV row: column 'discipline': 5 is not a string"),
    "json_true_as_discipline": (jsonl("apv", discipline="true"),
                                "APV:1: bad APV row: column 'discipline': True is not a string"),
    "json_surrogate_discipline": (jsonl("apv", discipline='"geo\\ud800"'),
                                  "APV:1: bad APV row: column 'discipline': 'geo\\ud800' holds a lone surrogate,"
                                  " which UTF-8 cannot encode"),
    "json_deep_nesting": (("apv.jsonl", "[" * 100_000 + "\n"), f"APV:1: invalid JSON: {DEEP_JSON}"),
    # the first problem in row order, whatever its kind
    "bad_cell_before_repeat": (dsv("apv", "geology,publications,integer,1.5", "geology,pubs,integer,1",
                                   "geology,publications,integer,2"),
                               "APV:2: bad APV row: 'pubs' is not a valid IndicatorKind"),
    "repeat_before_bad_cell": (dsv("apv", "geology,publications,integer,1.5", "geology,publications,integer,2",
                                   "geology,pubs,integer,1"),
                               "APV:2: repeats row 1, the APV of (geology, publications, integer)"),
    "repeat_before_long_row": (dsv("apv", "geology,publications,integer,1.5", "geology,publications,integer,2",
                                   "geology,publications,integer,1.5,9"),
                               "APV:2: repeats row 1, the APV of (geology, publications, integer)"),
    "repeat_after_blank_row": (dsv("apv", "geology,publications,integer,1.5", "", "geology,publications,integer,2"),
                               "APV:3: repeats row 1, the APV of (geology, publications, integer)"),
}


@pytest.mark.parametrize("case", sorted(APV_CASES))
def test_apv_table_messages_are_pinned(tmp_path, case):
    (name, text), expected = APV_CASES[case]
    path = write_corpus_files(tmp_path, {name: text})[name]
    with pytest.raises(RecalibrationError) as caught:
        read_apv_table(path)
    assert str(caught.value).replace(str(path), "APV") == expected


THRESHOLD_HEAD = "label,t\ndiscipline,kind,minimum\n"
#: A threshold file's bytes and its refusal; the file is ``thresholds.csv``, or ``.jsonl`` in ``jsonl_suffix``.
THRESHOLD_CASES = {
    "not_utf8": ((THRESHOLD_HEAD + "geology,publications,30\n").encode() + b"mining,publications,\xff\n",
                 "T: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 76: invalid start byte"),
    "open_quote": ((THRESHOLD_HEAD + 'geology,publications,30\n"mining,publications,20\n' + "x" * 140_000).encode(),
                   "T:2: unreadable from here on: field larger than field limit (131072)"),
    "empty": (b"", "T: expected a 'label,<text>' first line"),
    "missing_label": (b"discipline,kind,minimum\ngeology,pubs,30\n", "T: expected a 'label,<text>' first line"),
    "three_cell_label": (b"label,t,u\ndiscipline,kind,minimum\ngeology,pubs,30\n",
                         "T: expected a 'label,<text>' first line"),
    "padded_label": (b" label,t\ndiscipline,kind,minimum\n", "T: expected a 'label,<text>' first line"),
    "label_only": (b"label,t\n", "T: file is empty (missing header)"),
    "missing_column": (b"label,t\ndiscipline,kind\ngeology,publications\n", "T: header is missing column(s) ['minimum']"),
    "short_row": ((THRESHOLD_HEAD + "geology,publications,30\nmining,publications\n").encode(),
                  "T:2: expected 3 cells, found 2"),
    "bad_kind": ((THRESHOLD_HEAD + "geology,pubs,30\n").encode(), "T:1: 'pubs' is not a valid IndicatorKind"),
    "nan": ((THRESHOLD_HEAD + "geology,publications,nan\n").encode(), "T:1: 'nan' is not a finite number"),
    "zero": ((THRESHOLD_HEAD + "geology,publications,0\n").encode(),
             "T:1: minimum for (geology, publications) must be a finite positive number, got 0.0"),
    "repeat_after_blank_row": ((THRESHOLD_HEAD + "geology,publications,30\n\ngeology,publications,1\n").encode(),
                               "T:3: repeats row 1, the minimum of (geology, publications)"),
    "bad_cell_before_repeat": ((THRESHOLD_HEAD + "geology,publications,30\ngeology,pubs,1\n"
                                "geology,publications,1\n").encode(), "T:2: 'pubs' is not a valid IndicatorKind"),
    "jsonl_suffix": ((THRESHOLD_HEAD + "geology,publications,30\n").encode(),
                     "T: the readers would read it as jsonl, not dsv: a .jsonl, .ndjson, .json suffix means jsonl,"
                     " any other dsv"),
}


@pytest.mark.parametrize("case", sorted(THRESHOLD_CASES))
def test_threshold_table_messages_are_pinned(tmp_path, case):
    data, expected = THRESHOLD_CASES[case]
    path = tmp_path / ("thresholds.jsonl" if case == "jsonl_suffix" else "thresholds.csv")
    path.write_bytes(data)
    with pytest.raises(EvaluationError) as caught:
        load_threshold_table(path)
    assert str(caught.value).replace(str(path), "T") == expected


#: The published APV table with one row edited: ``--apv-table`` refusals name the file.
APV_TABLE_EDITS = {
    "missing_cell": ("", "error: APV: no APV for (geology, publications, integer)"),
    "negative_apv": ("geology,publications,integer,-1\n", "error: APV:48: bad APV row: column 'apv': '-1' is not positive"),
}


@pytest.mark.parametrize("case", sorted(APV_TABLE_EDITS))
def test_apv_table_refusals_in_recalibrate_name_the_file(tmp_path, capsys, case):
    replacement, expected = APV_TABLE_EDITS[case]
    text = (Path(__file__).parent / "data" / "section_apv.csv").read_text(encoding="utf-8")
    path = tmp_path / "apv.csv"
    path.write_text(text.replace("geology,publications,integer,48.769\n", replacement), encoding="utf-8")
    assert main(["recalibrate", "--apv-table", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.replace(str(path), "APV") == expected + "\n"


#: A publications file longer than one 1024-row chunk; p1 is the article c1 cites.
LONG_FILE_ROWS = 1030
DSV_FAULTS = {"bad_year": lambda i: f"p{i},abc,book,hu,false,false,,r1,geology", "short": lambda i: f"p{i},2015,book"}
JSON_FAULTS = {
    "bad_year": lambda i: jsonl("publications", pub_id=f'"p{i}"', year='"abc"')[1].rstrip("\n"),
    "short": lambda i: f'{{"pub_id": "p{i}"',
}
FAULT_TEXTS = {
    ("dsv", "bad_year"): "column 'year': 'abc' is not an integer",
    ("dsv", "short"): "expected 9 cells, found 3",
    ("jsonl", "bad_year"): "column 'year': 'abc' is not an integer",
    ("jsonl", "short"): "invalid JSON: Expecting ',' delimiter: line 1 column 19 (char 18)",
}
CHUNK_BOUNDARY_CASES = {
    "1024": {1024: "bad_year"},
    "1025": {1025: "bad_year"},
    "1024_then_short_1025": {1024: "bad_year", 1025: "short"},
    "short_1024_then_1025": {1024: "short", 1025: "bad_year"},
    "1023_then_short_1024": {1023: "bad_year", 1024: "short"},
}


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("case", sorted(CHUNK_BOUNDARY_CASES))
def test_violations_around_the_chunk_boundary_are_pinned(clean_corpus_files, tmp_path, fmt, case):
    faults = CHUNK_BOUNDARY_CASES[case]
    if fmt == "dsv":
        good = "p1,2015,journal_article,en,true,true,2.5,r1,geology"
        lines = [good] + [f"p{i},2015,book,hu,false,false,,r1,geology" for i in range(2, LONG_FILE_ROWS + 1)]
        make = DSV_FAULTS
    else:
        good = jsonl("publications")[1].rstrip("\n")
        lines = [good] + [jsonl("publications", pub_id=f'"p{i}"')[1].rstrip("\n") for i in range(2, LONG_FILE_ROWS + 1)]
        make = JSON_FAULTS
    for row, fault in faults.items():
        lines[row - 1] = make[fault](row)
    name = "publications.csv" if fmt == "dsv" else "publications.jsonl"
    text = (HEADERS["publications"] if fmt == "dsv" else "") + "".join(line + "\n" for line in lines)
    bad = write_corpus_files(tmp_path / "bad", {name: text})[name]
    _, violations = scan_corpus(
        clean_corpus_files["researchers.csv"], bad, clean_corpus_files["citations.csv"], DISCIPLINES
    )
    assert [str(v) for v in violations] == [
        f"publications:{row}: {FAULT_TEXTS[(fmt, fault)]}" for row, fault in sorted(faults.items())
    ]


#: Rows of an APV table longer than one 1024-row chunk, each a distinct cell
#: but the ones that repeat row 1 or have a bad kind.
APV_BOUNDARY_CASES = {
    "repeat_1024_then_bad_1025": ({1024: "repeat", 1025: "bad"},
                                  "APV:1024: repeats row 1, the APV of (d1, publications, integer)"),
    "bad_1024_then_repeat_1025": ({1024: "bad", 1025: "repeat"},
                                  "APV:1024: bad APV row: 'pubs' is not a valid IndicatorKind"),
    "repeat_1030": ({1030: "repeat"}, "APV:1030: repeats row 1, the APV of (d1, publications, integer)"),
}


@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
@pytest.mark.parametrize("case", sorted(APV_BOUNDARY_CASES))
def test_apv_problems_around_the_chunk_boundary_are_pinned(tmp_path, fmt, case):
    faults, expected = APV_BOUNDARY_CASES[case]
    cells = {row: (f"d{row}", "publications") for row in range(1, LONG_FILE_ROWS + 1)}
    for row, fault in faults.items():
        cells[row] = ("d1", "publications") if fault == "repeat" else (f"d{row}", "pubs")
    if fmt == "dsv":
        name, text = dsv("apv", *(f"{d},{kind},integer,1.5" for d, kind in cells.values()))
    else:
        name = "apv.jsonl"
        text = "".join(jsonl("apv", discipline=f'"{d}"', kind=f'"{kind}"')[1] for d, kind in cells.values())
    path = write_corpus_files(tmp_path, {name: text})[name]
    with pytest.raises(RecalibrationError) as caught:
        read_apv_table(path)
    assert str(caught.value).replace(str(path), "APV") == expected


def test_jsonl_lines_that_only_parse_joined_are_each_invalid(clean_corpus_files, tmp_path):
    # As one array, "[" + ",".join(lines) + "]", these three lines hold three objects.
    bad = write_corpus_files(tmp_path / "bad", {"researchers.jsonl": '{"a": [{}\n{}]}\n{}, {}\n'})["researchers.jsonl"]
    _, violations = scan_corpus(
        bad, clean_corpus_files["publications.csv"], clean_corpus_files["citations.csv"], DISCIPLINES
    )
    assert [str(v) for v in violations][:3] == [
        "researchers:1: invalid JSON: Expecting ',' delimiter: line 1 column 10 (char 9)",
        "researchers:2: invalid JSON: Extra data: line 1 column 3 (char 2)",
        "researchers:3: invalid JSON: Extra data: line 1 column 3 (char 2)",
    ]
