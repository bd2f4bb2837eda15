from __future__ import annotations

import argparse
import ast
import builtins
import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import recal.cli
import recal.counting
import recal.recalibration
from recal.cli import build_parser, main
from recal.config import default_config, load_pipeline_config
from recal.corpus import load_corpus, save_corpus
from recal.counting import IndicatorKind
from recal.defaults import CURRENT_MINIMUMS, DEFAULT_T
from recal.recalibration import (
    DEFAULT_BASE_KINDS, DisciplinePerformance, discipline_performance, read_apv_table, write_apv_table,
)
from recal.synthgen import (
    SYNTH_LIMITS, SynthDisciplineParams, SynthSpec, default_spec, generate_corpus, save_synth_spec,
)

from conftest import PUB_WINDOW, CITATION_WINDOW, social_geography_dossier

APV_TABLE = Path(__file__).parent / "data" / "section_apv.csv"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def corpus_args(files) -> list:
    return [files["researchers.csv"], files["publications.csv"], files["citations.csv"]]


def dossier_files(tmp_path: Path) -> list[Path]:
    paths = [tmp_path / n for n in ("dossier_r.csv", "dossier_p.csv", "dossier_c.csv")]
    save_corpus(social_geography_dossier(), *paths)
    return paths


# --------------------------------------------------------------------------
# validate

def test_validate_clean_exit_zero(clean_corpus_files, capsys):
    assert run("validate", *corpus_args(clean_corpus_files)) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_validate_reports_dangling_citation(clean_corpus_files, tmp_path, capsys):
    bad = tmp_path / "bad_citations.csv"
    bad.write_text(
        "citation_id,cited_pub_id,citing_year,citing_author_ids,citing_wos_indexed\n"
        "c1,missing,2018,ext,true\n",
        encoding="utf-8",
    )
    code = run(
        "validate",
        clean_corpus_files["researchers.csv"],
        clean_corpus_files["publications.csv"],
        bad,
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("citations:1") == 1
    assert "invalid: 1 violation(s)" in out


def test_validate_missing_file_is_io_error(clean_corpus_files, tmp_path):
    code = run(
        "validate",
        clean_corpus_files["researchers.csv"],
        clean_corpus_files["publications.csv"],
        tmp_path / "does_not_exist.csv",
    )
    assert code == 2


# --------------------------------------------------------------------------
# stats

def test_stats_stdout(clean_corpus_files, capsys):
    assert run("stats", *corpus_args(clean_corpus_files)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("discipline,pub_count,")
    geology = next(line for line in lines if line.startswith("geology,"))
    # p1 (2 authors) and p2 (1 author): 50% multi-authored, mean 2
    assert geology == "geology,2,1,50.00,2,2.00"


# --------------------------------------------------------------------------
# recalibrate

def test_recalibrate_fixture_mode_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("recalibrate", "--apv-table", APV_TABLE, "--out-dir", out_a) == 0
    assert run("recalibrate", "--apv-table", APV_TABLE, "--out-dir", out_b) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == [
        "dsdr_cumulative_if.csv",
        "dsdr_independent_citations.csv",
        "dsdr_publications.csv",
        "dsdr_wos_articles.csv",
        "recalibration.csv",
    ]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    table = (out_a / "recalibration.csv").read_text().splitlines()
    assert table[0].startswith("discipline,kind,method,")
    assert len(table) == 1 + 9 * 4 * 2
    geology = next(
        line for line in table if line.startswith("geology,publications,integer,")
    )
    assert ",36.197," in geology or ",36.196," in geology
    assert geology.endswith(",36")
    figure = (out_a / "dsdr_publications.csv").read_text().splitlines()
    assert figure[0] == "discipline,dsdr_current,dsdr_actual_integer,dsdr_actual_fractional"
    geology_fig = next(line for line in figure if line.startswith("geology,"))
    assert geology_fig.split(",")[1] == "0.107143"


def test_recalibrate_requires_exactly_one_input_mode(tmp_path, clean_corpus_files):
    assert run("recalibrate", "--out-dir", tmp_path / "x") == 1
    assert (
        run(
            "recalibrate",
            *corpus_args(clean_corpus_files),
            "--apv-table",
            APV_TABLE,
            "--out-dir",
            tmp_path / "y",
        )
        == 1
    )


@pytest.mark.parametrize("command", ["recalibrate", "derive"])
@pytest.mark.parametrize("count", [1, 2])
def test_corpus_mode_refuses_fewer_than_three_files(tmp_path, clean_corpus_files, capsys, command, count):
    out_dir = tmp_path / "out"
    assert run(command, *corpus_args(clean_corpus_files)[:count], "--out-dir", out_dir) == 1
    assert capsys.readouterr().err == "error: corpus mode needs all three files: researchers publications citations\n"
    assert not out_dir.exists()


def test_recalibrate_corpus_mode_runs_end_to_end(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_synth_spec(_small_section_spec(seed=1), spec_path)
    corpus_dir = tmp_path / "corpus"
    assert run("synth", "--spec", spec_path, "--out-dir", corpus_dir) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_two_discipline_config()), encoding="utf-8")
    for fmt, suffix in (("dsv", ".csv"), ("jsonl", ".jsonl")):
        out_dir = tmp_path / f"out_{fmt}"
        code = run(
            "recalibrate",
            corpus_dir / "researchers.csv",
            corpus_dir / "publications.csv",
            corpus_dir / "citations.csv",
            "--config",
            config_path,
            "--format",
            fmt,
            "--out-dir",
            out_dir,
        )
        assert code == 0
        # the emitted performance table is itself a valid fixture-mode input
        replay_dir = tmp_path / f"replay_{fmt}"
        code = run(
            "recalibrate",
            "--apv-table",
            out_dir / f"performance{suffix}",
            "--config",
            config_path,
            "--format",
            fmt,
            "--out-dir",
            replay_dir,
        )
        assert code == 0
        assert (out_dir / f"recalibration{suffix}").read_bytes() == (
            replay_dir / f"recalibration{suffix}"
        ).read_bytes()


def test_recalibrate_degenerate_discipline_fails(tmp_path):
    # geodesy is registered but has no researchers in the corpus
    spec_path = tmp_path / "spec.json"
    save_synth_spec(_small_section_spec(seed=1), spec_path)
    corpus_dir = tmp_path / "corpus"
    run("synth", "--spec", spec_path, "--out-dir", corpus_dir)
    config = _two_discipline_config()
    config["disciplines"].append({"key": "geodesy", "name": "Geodesy"})
    config["current_minimums"]["geodesy"] = {"publications": 30, "wos_articles": 8,
                                             "independent_citations": 120, "cumulative_if": 4}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = run(
        "recalibrate",
        corpus_dir / "researchers.csv",
        corpus_dir / "publications.csv",
        corpus_dir / "citations.csv",
        "--config",
        config_path,
        "--out-dir",
        tmp_path / "out",
    )
    assert code == 1


def _write_apv_table(tmp_path: Path, lines: list[str]) -> Path:
    table = tmp_path / "apv.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return table


@pytest.mark.parametrize("cell", ["geology,publications,integer", "geochemistry,cumulative_if,fractional"])
@pytest.mark.parametrize("number", ["nan", "inf"])
def test_recalibrate_rejects_non_finite_apv(tmp_path, capsys, cell, number):
    lines = APV_TABLE.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(cell + ","))
    lines[row] = f"{cell},{number}"
    table = _write_apv_table(tmp_path, lines)
    assert run("recalibrate", "--apv-table", table, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"{table}:{row}:" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["geology,publications", "geology,publications,integer", "geology,publications,integer,"])
def test_recalibrate_rejects_short_apv_row(tmp_path, capsys, line):
    lines = APV_TABLE.read_text().splitlines()
    table = _write_apv_table(tmp_path, lines[:3] + [line] + lines[3:])
    assert run("recalibrate", "--apv-table", table, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}:3: ")
    assert "Traceback" not in err


def test_recalibrate_rejects_duplicate_apv_row(tmp_path, capsys):
    lines = APV_TABLE.read_text().splitlines()
    table = _write_apv_table(tmp_path, lines + [lines[3]])
    assert run("recalibrate", "--apv-table", table, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"{table}:{len(lines)}: repeats row 3" in err
    assert "Traceback" not in err


def _small_section_spec(seed: int) -> SynthSpec:
    def params(discipline, mean, ratio):
        return SynthDisciplineParams(
            discipline=discipline,
            researcher_count=16,
            pub_count=220,
            multi_ratio_target=ratio,
            mean_coauthors_multi=mean,
            wos_article_ratio=0.3,
            citation_rate=1.7,
            if_mean=1.5,
            domestic_language_ratio=0.4,
        )

    return SynthSpec(
        seed=seed,
        params=(params("geology", 6.09, 92.98), params("mining", 4.63, 86.60)),
        pub_window=PUB_WINDOW,
        citation_window=CITATION_WINDOW,
    )


def _two_discipline_config() -> dict:
    minimums = {"publications": 30, "wos_articles": 12,
                "independent_citations": 150, "cumulative_if": 8}
    return {
        "schema_version": 1,
        "disciplines": [
            {"key": "geology", "name": "Geology"},
            {"key": "mining", "name": "Mining"},
        ],
        "current_minimums": {"geology": dict(minimums), "mining": dict(minimums)},
    }


# --------------------------------------------------------------------------
# derive

def test_derive_writes_thresholds_and_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run("derive", "--apv-table", APV_TABLE, "--out-dir", out_dir) == 0
    stdout = capsys.readouterr().out
    assert "not derivable" in stdout
    assert "wos_independent_citations" in stdout

    thresholds = (out_dir / "thresholds_recalibrated.csv").read_text().splitlines()
    assert thresholds[0].startswith("label,")
    assert "geology,publications,36" in thresholds

    report = (out_dir / "derive_report.csv").read_text().splitlines()
    assert report[0] == "discipline,kind,status,raw,minimum,delta_vs_current"
    geology_first = next(
        line for line in report if line.startswith("geology,first_author_publications,")
    )
    assert ",derived," in geology_first
    assert geology_first.endswith(",18,+3")
    assert any(",non_derivable," in line for line in report)


def test_derive_floors_a_rounded_minimum_below_one(tmp_path):
    # Halving social geography's fractional publication APV takes its derived
    # books minimum from 0.967 to under 0.5, which rounds to 0.
    table = tmp_path / "apv.csv"
    table.write_text(APV_TABLE.read_text(encoding="utf-8").replace(
        "social_geography,publications,fractional,26.053", "social_geography,publications,fractional,12.0"
    ), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run("derive", "--apv-table", table, "--method", "fractional", "--out-dir", out_dir) == 0
    assert "social_geography,books_and_monographs,1" in (out_dir / "thresholds_recalibrated.csv").read_text()
    report = (out_dir / "derive_report.csv").read_text().splitlines()
    assert [line for line in report if ",floored," in line] == [
        "social_geography,books_and_monographs,floored,0.445,1,-1",
    ]


def test_derive_reports_a_kind_whose_base_is_not_recalibrated_as_non_derivable(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema_version": 1, "recalibration": {"t_years": {"wos_articles": 5}}}),
                           encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run("derive", "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", out_dir) == 0
    report = (out_dir / "derive_report.csv").read_text().splitlines()
    publication_based = [kind.value for kind, base in DEFAULT_BASE_KINDS.items() if base is IndicatorKind.PUBLICATIONS]
    assert len(publication_based) == 4
    for kind in publication_based:
        assert f"*,{kind},non_derivable,,," in report
    assert any(",wos_articles_since_degree,derived," in line for line in report)


@pytest.mark.parametrize("seed", range(1, 11))
def test_fractional_derive_from_corpus_apvs_succeeds(tmp_path, seed):
    config = default_config()
    performance = discipline_performance(
        generate_corpus(default_spec(seed)), config.disciplines, config.recalibration, config.pub_window,
        config.citation_window, config.counting_settings(),
    )
    write_apv_table(performance, tmp_path / "performance.csv")
    out_dir = tmp_path / "out"
    assert run("derive", "--apv-table", tmp_path / "performance.csv", "--method", "fractional",
               "--out-dir", out_dir) == 0
    report = (out_dir / "derive_report.csv").read_text().splitlines()
    assert all(line.split(",")[4] != "0" for line in report[1:])


# --------------------------------------------------------------------------
# evaluate

def test_evaluate_exact_dossier_exits_zero(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    code = run("evaluate", *paths, "--researcher", "cand", "--out-dir", tmp_path / "out")
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["overall_fulfilled"] is True
    assert len(document["indicators"]) == 10
    assert all(entry["score"] == pytest.approx(1.0) for entry in document["indicators"])
    written = json.loads((tmp_path / "out" / "evaluation_cand.json").read_text())
    assert written == document


def test_evaluate_out_dir_gives_every_id_its_own_file_inside_it(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    ids = {"a/b": "a%2Fb", "a%2Fb": "a%252Fb", "a%b": "a%25b", "../up": "..%2Fup", "cand": "cand"}
    with paths[0].open("a", encoding="utf-8") as handle:
        handle.writelines(f"{rid},social_geography,false,2010\n" for rid in ids if rid != "cand")
    out_dir = tmp_path / "out"
    for rid in ids:
        assert run("evaluate", *paths, "--researcher", rid, "--out-dir", out_dir) in (0, 1)
        document = capsys.readouterr().out
        assert (out_dir / f"evaluation_{ids[rid]}.json").read_text(encoding="utf-8") == document
        assert json.loads(document)["researcher_id"] == rid
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(f"evaluation_{name}.json" for name in ids.values())


def test_evaluate_degraded_dossier_exits_nonzero(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    citation_lines = paths[2].read_text().splitlines()
    paths[2].write_text("\n".join(citation_lines[:-1]) + "\n", encoding="utf-8")  # 149 citations
    code = run("evaluate", *paths, "--researcher", "cand")
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    failing = [e for e in document["indicators"] if not e["fulfilled"]]
    assert [e["kind"] for e in failing] == ["independent_citations"]


def test_evaluate_unknown_researcher(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    assert run("evaluate", *paths, "--researcher", "nobody") == 1


def test_evaluate_against_saved_threshold_file(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    thresholds = tmp_path / "thresholds.csv"
    thresholds.write_text(
        "label,tiny\ndiscipline,kind,minimum\nsocial_geography,publications,39\n",
        encoding="utf-8",
    )
    assert run("evaluate", *paths, "--researcher", "cand", "--thresholds", thresholds) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["indicators"][0]["score"] == pytest.approx(40 / 39)


def test_evaluate_applies_a_padded_discipline_row(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    thresholds = tmp_path / "thresholds.csv"
    thresholds.write_text(
        "label,padded\ndiscipline,kind,minimum\nsocial_geography,publications,39\n social_geography,h_index,99\n",
        encoding="utf-8",
    )
    assert run("evaluate", *paths, "--researcher", "cand", "--thresholds", thresholds) == 1
    document = json.loads(capsys.readouterr().out)
    assert [(i["kind"], i["fulfilled"]) for i in document["indicators"]] == [
        ("publications", True), ("h_index", False),
    ]


def test_evaluate_rejects_non_finite_minimum(tmp_path, capsys):
    paths = dossier_files(tmp_path)
    thresholds = tmp_path / "thresholds.csv"
    thresholds.write_text(
        "label,broken\ndiscipline,kind,minimum\nsocial_geography,publications,nan\n",
        encoding="utf-8",
    )
    assert run("evaluate", *paths, "--researcher", "cand", "--thresholds", thresholds) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{thresholds}:1:" in captured.err and "finite" in captured.err  # the first data row


def test_evaluate_ignores_other_researchers_missing_degree_year(tmp_path, capsys):
    # the since-degree minimums need the candidate's degree year, not a colleague's
    paths = dossier_files(tmp_path)
    with paths[0].open("a", encoding="utf-8") as handle:
        handle.write("colleague,social_geography,false,\n")
    assert run("evaluate", *paths, "--researcher", "cand") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["overall_fulfilled"] is True
    assert captured.err == ""


# --------------------------------------------------------------------------
# synth

def test_synth_deterministic_outputs(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_synth_spec(_small_section_spec(seed=3), spec_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--spec", spec_path, "--out-dir", out_a) == 0
    assert run("synth", "--spec", spec_path, "--out-dir", out_b) == 0
    for name in ("researchers.csv", "publications.csv", "citations.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_seed_flag_overrides_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_synth_spec(_small_section_spec(seed=3), spec_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run("synth", "--spec", spec_path, "--out-dir", out_a)
    run("synth", "--spec", spec_path, "--seed", "4", "--out-dir", out_b)
    assert (out_a / "publications.csv").read_bytes() != (out_b / "publications.csv").read_bytes()


def test_synth_jsonl_format(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_synth_spec(_small_section_spec(seed=3), spec_path)
    out = tmp_path / "out"
    assert run("synth", "--spec", spec_path, "--format", "jsonl", "--out-dir", out) == 0
    first = json.loads((out / "publications.jsonl").read_text().splitlines()[0])
    assert "pub_id" in first and "author_ids" in first


def test_recalibrate_jsonl_format(tmp_path):
    out = tmp_path / "out"
    assert run("recalibrate", "--apv-table", APV_TABLE, "--format", "jsonl", "--out-dir", out) == 0
    rows = [json.loads(line) for line in (out / "recalibration.jsonl").read_text().splitlines()]
    assert len(rows) == 72
    geology = next(
        r for r in rows
        if r["discipline"] == "geology" and r["kind"] == "publications" and r["method"] == "integer"
    )
    assert geology["rmv_rounded"] == 36
    figure = (out / "dsdr_publications.jsonl").read_text().splitlines()
    assert json.loads(figure[0])["discipline"] == "geochemistry"


def test_stats_jsonl_stdout(clean_corpus_files, capsys):
    assert run("stats", *corpus_args(clean_corpus_files), "--format", "jsonl") == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records and all(isinstance(record, dict) for record in records)
    fields = ["discipline", "pub_count", "multi_authored_count", "multi_ratio",
              "coauthor_total", "avg_coauthors_per_multi"]
    assert all(list(record) == fields for record in records)
    geology = next(record for record in records if record["discipline"] == "geology")
    assert geology["multi_ratio"] == "50.00"


def test_stats_out_dir(clean_corpus_files, tmp_path):
    out = tmp_path / "out"
    assert run("stats", *corpus_args(clean_corpus_files), "--out-dir", out) == 0
    text = (out / "coauthorship_stats.csv").read_text()
    assert text.startswith("discipline,pub_count,")


def _with_geology_param(doc: dict, name: str, value: object) -> dict:
    doc["disciplines"]["geology"][name] = value
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: "not json at all",
        lambda doc: "[1, 2]",
        lambda doc: json.dumps({**doc, "pub_window": [2018, 2014]}),
        lambda doc: json.dumps({**doc, "seed": "abc"}),
        lambda doc: json.dumps({**doc, "pub_window": ["2014", "2018"]}),
        lambda doc: json.dumps(_with_geology_param(doc, "pub_count", 100.5)),
        lambda doc: json.dumps(_with_geology_param(doc, "researcher_count", 10.0)),
        lambda doc: json.dumps({**doc, "domestic_language": 5}),
        lambda doc: json.dumps({**doc, "domestic_language": "h\ud800u"}),
    ],
    ids=["non_json", "array", "reversed_window", "seed_not_a_number", "text_window", "fractional_pub_count",
         "float_researcher_count", "number_language", "surrogate_language"],
)
def test_synth_bad_spec_is_a_typed_failure(tmp_path, capsys, edit):
    spec_path = tmp_path / "spec.json"
    save_synth_spec(_small_section_spec(seed=3), spec_path)
    spec_path.write_text(edit(json.loads(spec_path.read_text())), encoding="utf-8")
    assert run("synth", "--spec", spec_path, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}: bad generator spec: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "stats", "recalibrate"])
@pytest.mark.parametrize("registered", [False, True], ids=["default_config", "config_registers_it"])
def test_lone_surrogate_in_a_jsonl_discipline_is_refused_where_it_enters(tmp_path, capsys, command, registered):
    files = [tmp_path / f"{name}.jsonl" for name in ("researchers", "publications", "citations")]
    save_corpus(generate_corpus(_small_section_spec(seed=3)), *files, fmt="jsonl")
    files[0].write_text(files[0].read_text(encoding="utf-8").replace('"geology"', '"geo\\ud800"'), encoding="utf-8")
    config = _two_discipline_config()
    config["disciplines"][0]["key"] = "geo\ud800"
    config["current_minimums"]["geo\ud800"] = config["current_minimums"].pop("geology")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = [command, *files, *(["--config", config_path] if registered else [])]
    assert run(*argv, *(["--out-dir", out_dir] if command == "recalibrate" else [])) == 1
    captured = capsys.readouterr()
    if registered:
        assert captured.err == (f'error: {config_path}: bad config: disciplines[0].key: "geo\\ud800" holds a lone'
                                " surrogate, which UTF-8 cannot encode\n")
    else:
        refusal = "researchers:1: column 'discipline': 'geo\\ud800' holds a lone surrogate, which UTF-8 cannot encode"
        assert refusal in (captured.out if command == "validate" else captured.err)
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("document", ["config", "spec"])
def test_lone_surrogate_in_a_document_key_is_named_escaped(tmp_path, capsys, document):
    # capsys's stderr is strict UTF-8: a raw surrogate in the message would fail the print
    path = tmp_path / f"{document}.json"
    out_dir = tmp_path / "out"
    if document == "config":
        doc = _two_discipline_config()
        doc["current_minimums"]["geo\ud800"] = doc["current_minimums"].pop("geology")
        argv = ["recalibrate", "--apv-table", APV_TABLE, "--config", path, "--out-dir", out_dir]
        where, key = "bad config: current_minimums.", "geo\\ud800"
    else:
        save_synth_spec(_small_section_spec(seed=3), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["disciplines"]["geo\udfff"] = doc["disciplines"].pop("geology")
        argv = ["synth", "--spec", path, "--out-dir", out_dir]
        where, key = "bad generator spec: disciplines.", "geo\\udfff"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f'error: {path}: {where}{key}: "{key}" holds a lone surrogate, which UTF-8 cannot encode\n'
    assert not out_dir.exists()


def _rekeyed(doc: dict, key: str, new_key: str) -> None:
    doc[new_key] = doc.pop(key)


PADDED = "has surrounding whitespace, which the readers strip"
EMPTY = "is empty, which no reader gives back"
NOT_LOWERCASE = "is not lowercase, and the corpus readers lowercase every language"

#: Text that no corpus cell can hold, refused by its key path in both
#: documents: (document, edit of its JSON, message after ``bad <document>: ``).
UNREADABLE_TEXT = {
    "config_upper_language": ("config", lambda doc: doc.update(domestic_language="HU"),
                              f'domestic_language: "HU" {NOT_LOWERCASE}'),
    "config_padded_language": ("config", lambda doc: doc.update(domestic_language=" hu"),
                               f'domestic_language: " hu" {PADDED}'),
    "config_empty_language": ("config", lambda doc: doc.update(domestic_language=""), f'domestic_language: "" {EMPTY}'),
    "config_padded_key": ("config", lambda doc: doc["disciplines"][0].update(key=" geology"),
                          f'disciplines[0].key: " geology" {PADDED}'),
    "config_empty_key": ("config", lambda doc: doc["disciplines"][1].update(key=""), f'disciplines[1].key: "" {EMPTY}'),
    "config_padded_minimum_key": ("config", lambda doc: _rekeyed(doc["current_minimums"], "geology", "geology "),
                                  f'current_minimums.geology : "geology " {PADDED}'),
    "config_empty_minimum_key": ("config", lambda doc: _rekeyed(doc["current_minimums"], "mining", ""),
                                 f'current_minimums.: "" {EMPTY}'),
    "spec_upper_language": ("spec", lambda doc: doc.update(domestic_language="Hu"),
                            f'domestic_language: "Hu" {NOT_LOWERCASE}'),
    "spec_padded_language": ("spec", lambda doc: doc.update(domestic_language="hu\n"),
                             f'domestic_language: "hu\\n" {PADDED}'),
    "spec_empty_language": ("spec", lambda doc: doc.update(domestic_language=""), f'domestic_language: "" {EMPTY}'),
    "spec_padded_key": ("spec", lambda doc: _rekeyed(doc["disciplines"], "geology", " geology"),
                        f'disciplines. geology: " geology" {PADDED}'),
    "spec_empty_key": ("spec", lambda doc: _rekeyed(doc["disciplines"], "geology", ""), f'disciplines.: "" {EMPTY}'),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_TEXT))
def test_text_no_corpus_cell_holds_is_refused_by_key_path(tmp_path, capsys, case):
    document, edit, message = UNREADABLE_TEXT[case]
    path = tmp_path / f"{document}.json"
    out_dir = tmp_path / "out"
    if document == "config":
        doc = _two_discipline_config()
        argv = ["derive", "--apv-table", APV_TABLE, "--config", path, "--out-dir", out_dir]
        what = "bad config"
    else:
        save_synth_spec(_small_section_spec(seed=3), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        argv = ["synth", "--spec", path, "--out-dir", out_dir]
        what = "bad generator spec"
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {what}: {message}\n"
    assert not out_dir.exists()


def test_config_with_list_minimums_is_a_typed_failure(tmp_path, capsys):
    config = _two_discipline_config()
    config["current_minimums"] = [1, 2]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run("recalibrate", "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config_path) in err
    assert "Traceback" not in err


def _with_geology_minimum(kind: str, value: float) -> dict:
    config = _two_discipline_config()
    config["current_minimums"]["geology"][kind] = value
    return config


def _with_h_index_t() -> dict:
    config = _two_discipline_config()
    for minimums in config["current_minimums"].values():
        minimums["h_index"] = 8
    config["recalibration"] = {"t_years": {"publications": 5, "h_index": 5}}
    return config


@pytest.mark.parametrize("command", ["recalibrate", "derive"])
@pytest.mark.parametrize(
    "config",
    [
        {**_two_discipline_config(), "recalibration": {"top_fraction": 2}},
        {**_two_discipline_config(), "recalibration": {"t_years": {"publications": -1}}},
        {**_two_discipline_config(), "disciplines": []},
        _with_geology_minimum("first_author_publications", -5),
        _with_geology_minimum("first_author_publications", 0),
        {**_two_discipline_config(), "pub_windw": [2010, 2011]},
        {**_two_discipline_config(), "recalibration": {"top_fracton": 0.5}},
        _with_h_index_t(),
        {**_two_discipline_config(), "recalibration": {"ym_decimals": -400}},
        {**_two_discipline_config(), "recalibration": {"ym_decimals": 2.7}},
        {**_two_discipline_config(), "recalibration": {"ym_decimals": True}},
        {**_two_discipline_config(), "domestic_language": 5},
    ],
    ids=["top_fraction_2", "negative_t", "no_disciplines", "negative_derived_minimum",
         "zero_derived_minimum", "unknown_key", "unknown_recalibration_key", "h_index_t",
         "negative_ym_decimals", "fractional_ym_decimals", "boolean_ym_decimals", "number_domestic_language"],
)
def test_bad_config_is_refused_at_load_naming_the_file(tmp_path, capsys, command, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = run(command, "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {config_path}: bad config: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["recalibrate", "derive"])
def test_empty_t_years_is_refused_at_load(tmp_path, capsys, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema_version": 1, "recalibration": {"t_years": {}}}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = run(command, "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", out_dir)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {config_path}: bad config: t_years is empty: it names no kind to recalibrate\n"
    assert not out_dir.exists()


def _without_minimums(*cells: tuple[str, str]) -> dict:
    config = _two_discipline_config()
    for discipline, kind in cells:
        del config["current_minimums"][discipline][kind]
    return config


#: Config refusals of the discipline registry and the current minimums, with
#: the whole message each prints after ``bad config: ``.
REGISTRY_REFUSALS = {
    "no_disciplines": ({**_two_discipline_config(), "disciplines": []}, "no disciplines configured"),
    # kind before discipline: mining's publications come before geology's wos_articles
    "missing_t_years_minimum": (_without_minimums(("geology", "wos_articles"), ("mining", "publications")),
                                "no CMV for (mining, publications)"),
    "zero_t_years_minimum": (_with_geology_minimum("publications", 0),
                             "minimum for (geology, publications) must be a finite positive number, got 0.0"),
    "unregistered_minimum": ({**_two_discipline_config(), "current_minimums": {
        **_two_discipline_config()["current_minimums"], "atlantis": {"publications": 1}}},
        "minimum for unregistered discipline 'atlantis'"),
    "zero_derived_minimum": (_with_geology_minimum("first_author_publications", 0),
                             "minimum for (geology, first_author_publications) must be a finite positive"
                             " number, got 0.0"),
}


@pytest.mark.parametrize("command", ["recalibrate", "derive"])
@pytest.mark.parametrize("case", sorted(REGISTRY_REFUSALS))
def test_registry_and_minimum_refusals_are_pinned(tmp_path, capsys, command, case):
    config, message = REGISTRY_REFUSALS[case]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run(command, "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", out_dir) == 1
    assert capsys.readouterr().err == f"error: {config_path}: bad config: {message}\n"
    assert not out_dir.exists()


def _default_config_with(path: Path, leaves: dict) -> Path:
    """The default config with each leaf, named by its key path, set to its
    value, written at ``path``: its minimums and ``t_years`` in full, the
    other keys left to their defaults."""
    minimums: dict[str, dict[str, float]] = {}
    for (discipline, kind), value in CURRENT_MINIMUMS.items():
        minimums.setdefault(discipline, {})[kind.value] = value
    doc = {"schema_version": 1, "current_minimums": minimums,
           "recalibration": {"t_years": {kind.value: t for kind, t in DEFAULT_T.items()}}}
    for (*parents, leaf), value in leaves.items():
        functools.reduce(dict.__getitem__, parents, doc)[leaf] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_the_default_config_document_loads_as_the_default_config(tmp_path):
    assert load_pipeline_config(_default_config_with(tmp_path / "config.json", {})) == default_config()


GEOCHEMISTRY_PUBLICATIONS = ("current_minimums", "geochemistry", "publications")

#: Numbers the loaders accept that drive the algebra out of the finite
#: positive floats, on the published APV fixture: (config leaves, message).
#: The message names the cell; only a cell the table lacks names the table.
OUT_OF_RANGE = {
    "minimum_1e30": ({GEOCHEMISTRY_PUBLICATIONS: 1e30},
                     "(*, publications, integer): y_m, the y_i mean, is too large"),
    "minimum_1.7e308": ({GEOCHEMISTRY_PUBLICATIONS: 1.7e308},
                        "(*, publications, integer): y_m, the y_i mean, is too large"),
    "minimum_5e-324": ({GEOCHEMISTRY_PUBLICATIONS: 5e-324},
                       "(geochemistry, publications, integer): y_i is 0.0, not a finite positive number"),
    "t_years_1e308": ({("recalibration", "t_years", "publications"): 1e308},
                      "(*, publications, integer): y_m, the y_i mean, is too large"),
    "t_years_1e-9": ({("recalibration", "t_years", "publications"): 1e-9},
                     "(*, publications, integer): y_m is 0.0, not a finite positive number"),
    "minimum_1e30_exact_mean": ({GEOCHEMISTRY_PUBLICATIONS: 1e30, ("recalibration", "ym_decimals"): None},
                                "(geochemistry, publications, integer): rmv_raw is 1.111111111111111e+29, "
                                "too large to round"),
}


@pytest.mark.parametrize("argv", [["recalibrate"], ["derive"], ["derive", "--method", "fractional"]],
                         ids=["recalibrate", "derive_integer", "derive_fractional"])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_algebra_is_refused_naming_the_cell(tmp_path, capsys, argv, case):
    leaves, message = OUT_OF_RANGE[case]
    config_path = _default_config_with(tmp_path / "config.json", leaves)
    assert run(*argv, "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_out_of_range_apv_is_refused_naming_the_cell(tmp_path, capsys):
    text = APV_TABLE.read_text(encoding="utf-8")
    path = tmp_path / "apv.csv"
    path.write_text(text.replace("geology,publications,integer,48.769\n", "geology,publications,integer,5e-324\n"),
                    encoding="utf-8")
    assert run("recalibrate", "--apv-table", path, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: (geology, publications, integer): y_i is inf, not a finite positive number\n"
    )


@pytest.mark.parametrize("value, integer, fractional", [
    (1.7e308, "rmv_raw is inf, not a finite positive number", "rmv_raw is inf, not a finite positive number"),
    (1e30, "rmv_raw is 1.2065450599999998e+30, too large to round", "rmv_raw is 3.6550876e+29, too large to round"),
], ids=["infinite", "too_many_digits"])
def test_out_of_range_derived_minimum_is_refused_naming_the_cell(tmp_path, capsys, value, integer, fractional):
    config_path = _default_config_with(tmp_path / "config.json",
                                       {("current_minimums", "geology", "first_author_publications"): value})
    assert run("recalibrate", "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", tmp_path / "r") == 0
    for method, message in (("integer", integer), ("fractional", fractional)):
        capsys.readouterr()
        assert run("derive", "--apv-table", APV_TABLE, "--config", config_path, "--method", method,
                   "--out-dir", tmp_path / method) == 1
        assert capsys.readouterr().err == f"error: (geology, first_author_publications, {method}): {message}\n"


# --------------------------------------------------------------------------
# the command frame: each subcommand's arguments, the config loaded before the
# command runs, and one line per refusal

#: Each subcommand's arguments as ``build_parser()`` declared them before the
#: shared ones were declared once: option strings, dest, default, choices,
#: required, nargs and type, sorted by dest.
SUBCOMMAND_ARGUMENTS = {
    'validate': [
        ((), 'citations', None, None, True, None, None),
        (('--config',), 'config', None, None, False, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, False, 0, None),
        ((), 'publications', None, None, True, None, None),
        ((), 'researchers', None, None, True, None, None),
    ],
    'stats': [
        ((), 'citations', None, None, True, None, None),
        (('--config',), 'config', None, None, False, None, None),
        (('--format',), 'format', 'dsv', ('dsv', 'jsonl'), False, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, False, 0, None),
        (('--out-dir',), 'out_dir', None, None, False, None, None),
        ((), 'publications', None, None, True, None, None),
        ((), 'researchers', None, None, True, None, None),
    ],
    'recalibrate': [
        (('--apv-table',), 'apv_table', None, None, False, None, None),
        ((), 'citations', None, None, False, '?', None),
        (('--config',), 'config', None, None, False, None, None),
        (('--format',), 'format', 'dsv', ('dsv', 'jsonl'), False, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, False, 0, None),
        (('--out-dir',), 'out_dir', None, None, True, None, None),
        ((), 'publications', None, None, False, '?', None),
        ((), 'researchers', None, None, False, '?', None),
    ],
    'derive': [
        (('--apv-table',), 'apv_table', None, None, False, None, None),
        ((), 'citations', None, None, False, '?', None),
        (('--config',), 'config', None, None, False, None, None),
        (('--format',), 'format', 'dsv', ('dsv', 'jsonl'), False, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, False, 0, None),
        (('--method',), 'method', 'integer', ('integer', 'fractional'), False, None, None),
        (('--out-dir',), 'out_dir', None, None, True, None, None),
        ((), 'publications', None, None, False, '?', None),
        ((), 'researchers', None, None, False, '?', None),
    ],
    'evaluate': [
        ((), 'citations', None, None, True, None, None),
        (('--config',), 'config', None, None, False, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, False, 0, None),
        (('--method',), 'method', 'integer', ('integer', 'fractional'), False, None, None),
        (('--out-dir',), 'out_dir', None, None, False, None, None),
        ((), 'publications', None, None, True, None, None),
        (('--researcher',), 'researcher', None, None, True, None, None),
        ((), 'researchers', None, None, True, None, None),
        (('--thresholds',), 'thresholds', None, None, False, None, None),
    ],
    'synth': [
        (('--format',), 'format', 'dsv', ('dsv', 'jsonl'), False, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, False, 0, None),
        (('--out-dir',), 'out_dir', None, None, True, None, None),
        (('--seed',), 'seed', None, None, False, None, 'int'),
        (('--spec',), 'spec', None, None, False, None, None),
    ],
}


def test_each_subcommand_takes_the_arguments_it_took_when_each_declared_its_own():
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    found = {
        name: [(tuple(a.option_strings), a.dest, a.default, a.choices and tuple(a.choices), a.required, a.nargs,
                a.type and a.type.__name__) for a in sorted(parser._actions, key=lambda a: a.dest)]
        for name, parser in subcommands.items()
    }
    assert found == SUBCOMMAND_ARGUMENTS


@pytest.mark.parametrize("command", ["validate", "stats", "recalibrate", "derive", "evaluate"])
def test_a_bad_config_is_refused_before_the_corpus_is_opened_or_an_out_dir_made(tmp_path, capsys, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**_two_discipline_config(), "pub_windw": [2010, 2011]}), encoding="utf-8")
    missing = [tmp_path / name for name in ("researchers.csv", "publications.csv", "citations.csv")]
    out_dir = tmp_path / "out"
    extra = {"validate": [], "evaluate": ["--researcher", "geology:r000", "--out-dir", out_dir]}
    assert run(command, *missing, "--config", config_path, *extra.get(command, ["--out-dir", out_dir])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: bad config: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("name, text, code, message", [
    ("thresholds.csv", "label,t\ndiscipline,kind,minimum\ngeology,publications,nan\n", 1,
     "error: {path}:1: 'nan' is not a finite number"),
    ("thresholds.csv", "discipline,kind,minimum\n", 1, "error: {path}: expected a 'label,<text>' first line"),
    ("thresholds.jsonl", "label,t\ndiscipline,kind,minimum\n", 1,
     "error: {path}: the readers would read it as jsonl, not dsv: a .jsonl, .ndjson, .json suffix means jsonl,"
     " any other dsv"),
    ("thresholds.csv", None, 2, "i/o error: [Errno 2] No such file or directory: '{path}'"),
], ids=["bad_row", "no_label", "jsonl_suffix", "missing"])
def test_a_bad_threshold_table_is_refused_before_the_corpus_is_opened_or_an_out_dir_made(
    tmp_path, capsys, name, text, code, message
):
    path = tmp_path / name
    if text is not None:
        path.write_text(text, encoding="utf-8")
    missing = [tmp_path / name for name in ("researchers.csv", "publications.csv", "citations.csv")]
    out_dir = tmp_path / "out"
    assert run("evaluate", *missing, "--researcher", "geology:r000", "--thresholds", path, "--out-dir", out_dir) == code
    assert capsys.readouterr().err == message.format(path=path) + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("config, message", [
    ({"schema_version": 1, "disciplines": [{"key": "geo\nlogy"}]}, "no CMV for (geo\\nlogy, publications)"),
    ({"schema_version": 1, "disciplines": [{"key": "föld\ntan"}]}, "no CMV for (föld\\ntan, publications)"),
    ({"schema_version": 1, "recalibration": {"t\tyears": {}}},
     "recalibration.t\\tyears: unknown key; known keys: rounding, t_years, top_fraction, ym_decimals, ym_source_method"),
], ids=["newline_key", "newline_in_printable_non_ascii_key", "tab_in_key_path"])
def test_a_refusal_is_one_line_with_unprintable_characters_escaped(tmp_path, capsys, config, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run("recalibrate", "--apv-table", APV_TABLE, "--config", config_path, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {config_path}: bad config: {message}\n"


#: Exception classes that never reach ``main``, each with what becomes of it instead.
LIBRARY_ONLY = {"recal.config.SchemaError": "read_document raises it again as the document's own error class"}


def _handled_by_main() -> tuple[type, ...]:
    """The classes named by ``main``'s ``except`` clauses, read from its source."""
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(main))):
        if isinstance(node, ast.ExceptHandler):
            names += node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return tuple(vars(recal.cli).get(name.id) or getattr(builtins, name.id) for name in names)


def test_every_error_class_reaches_an_exit_code_or_is_library_only():
    handled = _handled_by_main()
    assert OSError in handled and len(handled) > 1
    defined = {
        f"{module.__name__}.{cls.__qualname__}": cls
        for info in pkgutil.iter_modules(recal.__path__)
        for module in [importlib.import_module(f"recal.{info.name}")]
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == module.__name__
    }
    assert set(LIBRARY_ONLY) <= set(defined)
    for name, cls in defined.items():
        assert issubclass(cls, handled) != (name in LIBRARY_ONLY), name


# --------------------------------------------------------------------------
# golden report bytes: exit code, stdout and every output file of the report
# commands, recorded before the table writers were merged into one; the
# evaluate digests were recorded before the kernel returned its value table

GOLDEN_COMMANDS = {
    "recalibrate_fixture_dsv": ["recalibrate", "--apv-table", APV_TABLE, "--format", "dsv"],
    "recalibrate_fixture_jsonl": ["recalibrate", "--apv-table", APV_TABLE, "--format", "jsonl"],
    "derive_fixture_integer": ["derive", "--apv-table", APV_TABLE, "--method", "integer"],
    "derive_fixture_fractional_jsonl": ["derive", "--apv-table", APV_TABLE, "--method", "fractional",
                                        "--format", "jsonl"],
    "stats_stdout": ["stats", "CORPUS"],
    "stats_dsv": ["stats", "CORPUS", "--format", "dsv"],
    "stats_jsonl": ["stats", "CORPUS", "--format", "jsonl"],
    "recalibrate_corpus_dsv": ["recalibrate", "SYNTH", "--config", "CONFIG", "--format", "dsv"],
    "recalibrate_corpus_jsonl": ["recalibrate", "SYNTH", "--config", "CONFIG", "--format", "jsonl"],
    "evaluate_current_integer": ["evaluate", "SYNTH", "--config", "CONFIG", "--researcher", "geology:r000"],
    "evaluate_derived_fractional": ["evaluate", "SYNTH", "--config", "CONFIG", "--researcher", "mining:r003",
                                    "--method", "fractional", "--thresholds", "DERIVED"],
}

#: The commands whose only output is their stdout: they get no --out-dir.
STDOUT_ONLY = ("stats_stdout", "evaluate_current_integer")

GOLDEN_REPORT_SHA256 = {
    "derive_fixture_fractional_jsonl": "aa18e33eb7df37dc761901f332439fb6bfc98afee307bf0a839cfa01655491dd",
    "derive_fixture_integer": "68235f88c4fdf3f618a46fc7f91d5a75ffed70c58bbe9af12ada2adff6de1d91",
    "evaluate_current_integer": "5c166753a6448857c16276b0455e160c9b3b42d3882823672a89256ce172bf26",
    "evaluate_derived_fractional": "ae4fb1c59b6c4d15c2b09fb9e152b6fee45c5e9a23a170910fdc4cf54e3a30e4",
    "recalibrate_corpus_dsv": "9f61781adb5688bd7b701f2542ede38fe797faeceee805a2bd45aace4022d144",
    "recalibrate_corpus_jsonl": "508ffd0a045ce55d256a06b2a7c53706f81809e21e2cf791e5f20638f629f976",
    "recalibrate_fixture_dsv": "2df4c23d01b02fe382142791927ae8ab398e87ff485821320e374b7bcb744a25",
    "recalibrate_fixture_jsonl": "394967e572f3e90ea907e9369ebc35859e2b4c774b91f82a149c7e6d60c3e314",
    "stats_dsv": "8b034b326f04046557abc56c363ae3eadbcbcf10643f7ce8872dbe3be41d00f3",
    "stats_jsonl": "5101ed967eb2239bb6d69b1e021ca9953c42adb5df2838283b37577469eea949",
    "stats_stdout": "780ff8903377cb59bc8e1910971a05d368c98e2e9313ab1b7d58b86e854cd143",
}


def _synth_files(tmp_path: Path) -> list[Path]:
    return [tmp_path / "corpus" / f"{n}.csv" for n in ("researchers", "publications", "citations")]


def _expand(command: list, tmp_path: Path, clean_corpus_files) -> list:
    """``command`` with each placeholder replaced by the files it names, made here."""
    argv = []
    for arg in command:
        if arg == "CORPUS":
            argv += corpus_args(clean_corpus_files)
        elif arg == "SYNTH":
            spec_path = tmp_path / "spec.json"
            save_synth_spec(_small_section_spec(seed=1), spec_path)
            assert run("synth", "--spec", spec_path, "--out-dir", tmp_path / "corpus") == 0
            argv += _synth_files(tmp_path)
        elif arg == "CONFIG":
            argv.append(tmp_path / "config.json")
            argv[-1].write_text(json.dumps(_two_discipline_config()), encoding="utf-8")
        elif arg == "DERIVED":  # the table a fractional derive saves from the SYNTH corpus and CONFIG before it
            assert run("derive", *_synth_files(tmp_path), "--config", tmp_path / "config.json",
                       "--method", "fractional", "--out-dir", tmp_path / "derived") == 0
            argv.append(tmp_path / "derived" / "thresholds_recalibrated.csv")
        else:
            argv.append(arg)
    return argv


def _golden_argv(name: str, tmp_path: Path, clean_corpus_files, out_dir: Path) -> list:
    argv = _expand(GOLDEN_COMMANDS[name], tmp_path, clean_corpus_files)
    return argv if name in STDOUT_ONLY else [*argv, "--out-dir", out_dir]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_report_bytes_match_golden_digest(tmp_path, clean_corpus_files, capsys, name):
    out_dir = tmp_path / "out"
    argv = _golden_argv(name, tmp_path, clean_corpus_files, out_dir)
    capsys.readouterr()
    code = run(*argv)
    stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
    listing = [f"exit {code}", f"stdout {hashlib.sha256(stdout.encode()).hexdigest()}"]
    if out_dir.exists():
        listing += [
            f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in sorted(out_dir.iterdir())
        ]
    digest = hashlib.sha256("\n".join(listing).encode()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256.get(name), "\n".join(listing)


@pytest.mark.parametrize("command", [
    ["recalibrate", "SYNTH", "--config", "CONFIG"],
    ["derive", "SYNTH", "--config", "CONFIG", "--method", "integer"],
    ["derive", "SYNTH", "--config", "CONFIG", "--method", "fractional"],
    ["evaluate", "SYNTH", "--config", "CONFIG", "--researcher", "geology:r000"],
    ["evaluate", "SYNTH", "--config", "CONFIG", "--researcher", "mining:r003", "--method", "fractional",
     "--thresholds", "DERIVED"],
], ids=lambda command: "-".join(arg.lstrip("-") for arg in command if arg not in ("SYNTH", "CONFIG"))[:40])
def test_a_corpus_mode_command_computes_its_values_in_one_kernel_call(tmp_path, clean_corpus_files, monkeypatch,
                                                                      command):
    argv = _expand(command, tmp_path, clean_corpus_files)  # DERIVED runs its derive before the count starts
    calls = []
    kernel = recal.counting.indicator_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    for module in (recal.counting, recal.recalibration, recal.cli):
        monkeypatch.setattr(module, "indicator_matrix", counted)
    assert run(*argv, "--out-dir", tmp_path / "out") in (0, 1)
    assert len(calls) == 1


# --------------------------------------------------------------------------
# fuzz: a corrupted input file ends in exit 1 or 2 with a message, never in a
# traceback

def _fuzz_input(name: str, tmp_path: Path, clean_corpus_files) -> tuple[Path, list, str]:
    """The file to corrupt, the command that reads it, and a number in it."""
    corpus = corpus_args(clean_corpus_files)
    out = ["--out-dir", tmp_path / "out"]
    if name == "corpus_dsv":
        return corpus[1], ["validate", *corpus], "2.5"
    if name == "corpus_jsonl":
        paths = [tmp_path / f"{n}.jsonl" for n in ("researchers", "publications", "citations")]
        save_corpus(load_corpus(*corpus, disciplines=["geology", "mining"]), *paths, fmt="jsonl")
        return paths[1], ["validate", *paths], "2.5"
    if name in ("apv_dsv", "apv_jsonl"):
        path = tmp_path / ("apv.csv" if name == "apv_dsv" else "apv.jsonl")
        performance = [DisciplinePerformance(*cell, apv, 8, 2) for cell, apv in read_apv_table(APV_TABLE).items()]
        write_apv_table(performance, path, "dsv" if name == "apv_dsv" else "jsonl")
        return path, ["recalibrate", "--apv-table", path, *out], "8.854"
    if name == "thresholds":
        path = tmp_path / "thresholds.csv"
        path.write_text("label,tiny\ndiscipline,kind,minimum\nsocial_geography,publications,39\n", encoding="utf-8")
        return path, ["evaluate", *dossier_files(tmp_path), "--researcher", "cand", "--thresholds", path], "39"
    if name == "spec":
        path = tmp_path / "spec.json"
        save_synth_spec(_small_section_spec(seed=3), path)
        return path, ["synth", "--spec", path, *out], "1.5"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_two_discipline_config()), encoding="utf-8")
    return path, ["stats", *corpus, "--config", path], "30"


def _corrupt(corruption: str, data: bytes, number: str, is_json: bool) -> bytes:
    text = data.decode("utf-8")
    lines = text.splitlines()
    if corruption == "truncate_mid_row":
        start = text.rstrip("\n").rfind("\n") + 1
        return text[: start + len(lines[-1]) // 2].encode("utf-8")
    if corruption == "drop_column":
        if is_json:
            dropped = [dict(list(json.loads(line).items())[1:]) for line in lines]
            return "".join(json.dumps(record) + "\n" for record in dropped).encode("utf-8")
        return "".join(line.partition(",")[2] + "\n" for line in lines).encode("utf-8")
    if corruption in ("nan", "inf"):
        bad = {"nan": "NaN", "inf": "Infinity"}[corruption] if is_json else corruption
        assert number in text
        return text.replace(number, bad, 1).encode("utf-8")
    if corruption == "corrupt_json":
        return text.replace("{", "[", 1).encode("utf-8")
    if corruption == "deep_nesting":  # past the recursion limit of Python's JSON parser
        return text.replace("{", "[" * 100_000, 1).encode("utf-8")
    if corruption == "open_quote":  # one DSV cell from the second line on, past the csv module's size limit
        return (text.replace("\n", '\n"', 1) + "x" * 140_000).encode("utf-8")
    return data[: len(data) // 2] + b"\xff\xfe" + data[len(data) // 2:]  # not_utf8


FUZZ_INPUTS = ("corpus_dsv", "corpus_jsonl", "apv_dsv", "apv_jsonl", "thresholds", "config")
FUZZ_CORRUPTIONS = ("truncate_mid_row", "drop_column", "nan", "inf", "corrupt_json", "not_utf8")
JSON_INPUTS = ("corpus_jsonl", "apv_jsonl", "config")


@pytest.mark.parametrize(
    "name, corruption",
    [
        (name, corruption)
        for name in FUZZ_INPUTS
        for corruption in FUZZ_CORRUPTIONS
        if corruption != "corrupt_json" or name in JSON_INPUTS
    ] + [(name, "deep_nesting") for name in (*JSON_INPUTS, "spec")]
    + [(name, "open_quote") for name in ("corpus_dsv", "apv_dsv", "thresholds")],
)
def test_corrupted_input_is_a_typed_failure(tmp_path, clean_corpus_files, capsys, name, corruption):
    path, argv, number = _fuzz_input(name, tmp_path, clean_corpus_files)
    assert run(*argv) == 0
    path.write_bytes(_corrupt(corruption, path.read_bytes(), number, path.suffix != ".csv"))
    capsys.readouterr()
    assert run(*argv) in (1, 2)
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") or "invalid: " in captured.out
    assert "Traceback" not in captured.err
    if corruption == "not_utf8":
        assert f"{path}: " in captured.out + captured.err


# --------------------------------------------------------------------------
# no traceback from an extreme config or generator spec leaf

SWEEP_LEAVES = [
    ("pub_window", 0), ("pub_window", 1), ("citation_window", 0), ("citation_window", 1),
    ("recalibration", "top_fraction"), ("recalibration", "ym_decimals"),
    *(("recalibration", "t_years", kind) for kind in ("publications", "wos_articles", "independent_citations",
                                                       "cumulative_if")),
    *(("current_minimums", "geology", kind) for kind in ("publications", "wos_articles", "independent_citations",
                                                          "cumulative_if")),
    # a generator spec's numeric leaves, each run as synth --spec
    ("spec", "seed"), ("spec", "pub_window", 0), ("spec", "pub_window", 1), ("spec", "citation_window", 0),
    ("spec", "citation_window", 1),
    *(("spec", "disciplines", "geology", field.name) for field in fields(SynthDisciplineParams)[1:]),
    # a total-work limit: the publication count, swept up to its own limit too, times a target held at its limit
    *(("spec", "disciplines", "geology", "pub_count", "times", target)
      for target in ("mean_coauthors_multi", "citation_rate")),
]
SWEEP_VALUES = [1e308, 1.7e308, 1e-308, 5e-324, 2**63, 10**6, -1, 0]


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory) -> list[Path]:
    directory = tmp_path_factory.mktemp("sweep")
    save_synth_spec(_small_section_spec(seed=1), directory / "spec.json")
    assert run("synth", "--spec", directory / "spec.json", "--out-dir", directory) == 0
    return [directory / f"{name}.csv" for name in ("researchers", "publications", "citations")]


@pytest.mark.parametrize("leaf", SWEEP_LEAVES, ids=lambda leaf: "/".join(map(str, leaf)))
def test_an_extreme_config_leaf_exits_with_a_code_and_no_traceback(tmp_path, capsys, sweep_corpus, leaf):
    values, total_work = SWEEP_VALUES, None
    if leaf[0] == "spec":  # the spec the sweep corpus was generated from
        base = json.loads((sweep_corpus[0].parent / "spec.json").read_text(encoding="utf-8"))
        leaf, flag, commands = leaf[1:], "--spec", [["synth"]]
        if "times" in leaf:
            leaf, (_, target) = leaf[:-2], leaf[-2:]
            base["disciplines"]["geology"][target] = SYNTH_LIMITS[target]
            values, total_work = [*SWEEP_VALUES, SYNTH_LIMITS[leaf[-1]]], f"{leaf[-1]} * {target}"
    else:
        base = {**_two_discipline_config(), "pub_window": [2014, 2018], "citation_window": [2014, 2019],
                "recalibration": {"top_fraction": 0.25, "ym_decimals": 3,
                                  "t_years": dict.fromkeys(("publications", "wos_articles", "independent_citations",
                                                            "cumulative_if"), 5.0)}}
        flag, commands = "--config", [
            ["recalibrate", *sweep_corpus], ["recalibrate", "--apv-table", APV_TABLE],
            ["derive", *sweep_corpus, "--method", "fractional"],
            ["derive", "--apv-table", APV_TABLE, "--method", "fractional"],
            ["evaluate", *sweep_corpus, "--method", "fractional", "--researcher", "geology:r000"],
            ["validate", *sweep_corpus], ["stats", *sweep_corpus],
        ]
    for value in values:
        document = json.loads(json.dumps(base))
        *parents, last = leaf
        functools.reduce(lambda node, key: node[key], parents, document)[last] = value
        document_path = tmp_path / "document.json"
        document_path.write_text(json.dumps(document), encoding="utf-8")
        for command in commands:
            capsys.readouterr()
            out_dir = ["--out-dir", tmp_path / "out"] if command[0] in ("recalibrate", "derive", "synth") else []
            code = run(*command, flag, document_path, *out_dir)
            out, err = capsys.readouterr()
            where = f"{' '.join(map(str, command))} with {'/'.join(map(str, leaf))} = {value!r}"
            assert code in (0, 1, 2), where
            if total_work and value == SYNTH_LIMITS[leaf[-1]]:  # both factors at their limits, the product past its own
                assert code == 1 and f"geology: {total_work} is " in err, where
            if err:  # a refusal: one line, typed by its exit code
                assert code != 0 and err.count("\n") == 1, where
                assert err.startswith("i/o error: " if code == 2 else "error: "), where
            else:  # evaluate exits 1 for a candidate who does not fulfil the table, and says so on stdout
                assert code == 0 or command[0] == "evaluate" and json.loads(out)["overall_fulfilled"] is False, where
