"""The cyclic garbage collector is paused while recal builds records.

``corpus.collector_paused`` pauses it around every CLI command, every
``scan_corpus`` and ``generate_corpus`` call and the ``Corpus.citations_of``
index, and gives the caller back the state it found, whatever the call ends
in. Pausing is safe only if no command leaves cyclic garbage that grows with
its input.
"""
from __future__ import annotations

import gc
from dataclasses import replace
from pathlib import Path

import pytest

import recal.cli
import recal.corpus
import recal.synthgen
from recal.cli import main
from recal.config import default_config
from recal.corpus import Corpus, CorpusValidationError, collector_paused, save_corpus, scan_corpus
from recal.synthgen import default_spec, generate_corpus, save_synth_spec

DISCIPLINES = tuple(default_config().disciplines)
NAMES = ("researchers.csv", "publications.csv", "citations.csv")


@pytest.fixture(params=[True, False], ids=["caller_enabled", "caller_disabled"])
def collector(request):
    """The collector as the caller leaves it: enabled or disabled."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def corpus_paths(clean_corpus_files, outcome: str) -> list[Path]:
    """The three corpus files for a call that succeeds, meets a corrupt
    citation file (exit 1) or a missing one (exit 2)."""
    paths = [clean_corpus_files[name] for name in NAMES]
    if outcome == "corrupt":
        paths[2].write_text(paths[2].read_text(encoding="utf-8") + "c2,missing,2018,ext,true\n", encoding="utf-8")
    elif outcome == "missing":
        paths[2] = paths[2].with_name("does_not_exist.csv")
    return paths


def test_pauses_nest_and_restore_what_they_found(collector):
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is collector


@pytest.mark.parametrize("outcome", ["ok", "corrupt", "missing"])
def test_scan_corpus_restores_the_collector(clean_corpus_files, monkeypatch, collector, outcome):
    states = []
    build_corpus = recal.corpus.build_corpus
    monkeypatch.setattr(recal.corpus, "build_corpus", lambda *a: states.append(gc.isenabled()) or build_corpus(*a))
    paths = corpus_paths(clean_corpus_files, outcome)
    if outcome == "missing":
        with pytest.raises(OSError):
            scan_corpus(*paths, DISCIPLINES)
    else:
        corpus, violations = scan_corpus(*paths, DISCIPLINES)
        assert (corpus is None) is (outcome == "corrupt") and bool(violations) is (outcome == "corrupt")
        assert states == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("outcome, code", [("ok", 0), ("corrupt", 1), ("missing", 2)])
def test_a_command_restores_the_collector(clean_corpus_files, monkeypatch, capsys, collector, outcome, code):
    states = []
    scan = recal.cli.scan_corpus
    monkeypatch.setattr(recal.cli, "scan_corpus", lambda *a: states.append(gc.isenabled()) or scan(*a))
    assert main(["validate", *map(str, corpus_paths(clean_corpus_files, outcome))]) == code
    assert states == [False]  # paused while the command runs
    assert gc.isenabled() is collector


@pytest.mark.parametrize("outcome", ["ok", "raises"])
def test_generate_corpus_restores_the_collector(monkeypatch, collector, outcome):
    states = []

    def build_corpus(*args, **kwargs):
        states.append(gc.isenabled())
        if outcome == "raises":
            raise CorpusValidationError([])
        return recal.corpus.build_corpus(*args, **kwargs)

    monkeypatch.setattr(recal.synthgen, "build_corpus", build_corpus)
    spec = replace(default_spec(1), params=default_spec(1).params[:1])
    if outcome == "raises":
        with pytest.raises(CorpusValidationError):
            generate_corpus(spec)
    else:
        assert generate_corpus(spec).researchers
    assert states == [False]
    assert gc.isenabled() is collector


class Links:
    """Citation links that note the collector state when they are walked,
    then yield ``links``."""

    def __init__(self, links):
        self.links, self.states = links, []

    def __iter__(self):
        self.states.append(gc.isenabled())
        return iter(self.links)


@pytest.mark.parametrize("links", [(), (None,)], ids=["ok", "raises"])
def test_the_citation_index_restores_the_collector(collector, links):
    citations = Links(links)
    corpus = Corpus(researchers={}, publications={}, citations=citations)
    if links:
        with pytest.raises(AttributeError):
            corpus.citations_of
    else:
        assert corpus.citations_of == {}
    assert citations.states == [False]
    assert gc.isenabled() is collector


# --------------------------------------------------------------------------
# pausing loses nothing: the cyclic garbage a command leaves does not grow
# with its corpus

def section(directory: Path, divisor: int) -> dict[str, object]:
    """The shipped section spec with researcher and publication counts
    divided by ``divisor``, its corpus in DSV, and one of its researchers."""
    spec = default_spec(1)
    spec = replace(spec, params=tuple(
        replace(p, researcher_count=p.researcher_count // divisor, pub_count=p.pub_count // divisor)
        for p in spec.params
    ))
    directory.mkdir()
    save_synth_spec(spec, directory / "spec.json")
    corpus = generate_corpus(spec)
    save_corpus(corpus, *(directory / name for name in NAMES))
    corrupt = directory / "corrupt_citations.csv"
    corrupt.write_text((directory / NAMES[2]).read_text(encoding="utf-8") + "x,missing,2018,ext,true\n",
                       encoding="utf-8")
    return {"dir": directory, "researcher": min(corpus.researchers)}


def commands(section: dict[str, object]) -> dict[str, list]:
    d = section["dir"]
    files = [d / name for name in NAMES]
    corrupt = [*files[:2], d / "corrupt_citations.csv"]
    missing = [*files[:2], d / "does_not_exist.csv"]
    return {
        "validate": ["validate", *files],
        "validate_corrupt": ["validate", *corrupt],
        "validate_missing": ["validate", *missing],
        "stats": ["stats", *files],
        "stats_corrupt": ["stats", *corrupt],
        "recalibrate": ["recalibrate", *files, "--out-dir", d / "recalibrate"],
        "derive": ["derive", *files, "--method", "fractional", "--out-dir", d / "derive"],
        "derive_missing": ["derive", *missing, "--out-dir", d / "derive_missing"],
        "evaluate": ["evaluate", *files, "--researcher", section["researcher"]],
        "evaluate_unknown": ["evaluate", *files, "--researcher", "nobody"],
        "synth": ["synth", "--spec", d / "spec.json", "--out-dir", d / "synth"],
    }


def cyclic_garbage(argv: list) -> tuple[int, int]:
    """The exit code of ``argv`` run with the collector off, and the number of
    unreachable objects a collection finds after it."""
    gc.collect()
    with collector_paused():
        code = main([str(arg) for arg in argv])
        return code, gc.collect()


def test_no_command_leaves_cyclic_garbage_that_grows_with_the_corpus(tmp_path, capsys):
    small, full = section(tmp_path / "tenth", 10), section(tmp_path / "full", 1)
    for argv in commands(small).values():
        cyclic_garbage(argv)  # first calls leave what lazy imports and caches build once
    found = {
        name: (cyclic_garbage(small_argv), cyclic_garbage(full_argv))
        for (name, small_argv), full_argv in zip(commands(small).items(), commands(full).values())
    }
    capsys.readouterr()
    assert {name: pair for name, pair in found.items() if pair[0] != pair[1]} == {}
    assert {name: code for name, ((code, _), _) in found.items()} == {
        "validate": 0, "validate_corrupt": 1, "validate_missing": 2, "stats": 0, "stats_corrupt": 1,
        "recalibrate": 0, "derive": 0, "derive_missing": 2, "evaluate": 1, "evaluate_unknown": 1, "synth": 0,
    }
