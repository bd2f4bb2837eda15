"""The benchmark's workloads: how each makes its inputs from a seed, which
commands one round runs, and how its outputs are checked.

Every command goes through ``recal.cli.main`` in process. A round is a list
of timing units, and a unit is a list of commands; each unit yields one
latency sample. Rounds only ever repeat commands with identical inputs, so
repeated commands must write identical outputs.
"""
from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import recal.cli
from recal.config import default_config
from recal.corpus import load_corpus, save_corpus
from recal.counting import CountingMethod, IndicatorKind, indicator_value
from recal.synthgen import default_spec, generate_corpus, save_synth_spec

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_APV = ROOT / "tests" / "data" / "section_apv.csv"
REFERENCE = ROOT / "tests" / "reference_section.py"

CONFIG = default_config()
METHODS = tuple(m.value for m in CountingMethod)


@dataclass(frozen=True)
class Command:
    """One CLI call. ``document`` is the file whose presence in ``out_dir``
    means the command produced its result; ``label`` groups calls that do
    the same job for failure accounting."""

    key: str
    label: str
    argv: tuple[str, ...]
    out_dir: Path
    document: str


@dataclass(frozen=True)
class Outcome:
    command: Command
    seconds: float
    exit_code: int | None
    failed: bool
    message: str
    digest: str


def execute(command: Command, clock=perf_counter) -> Outcome:
    """Run one command through ``recal.cli.main`` with its output captured,
    timed by ``clock``.

    It has failed when it raised, or when it did not produce its document
    (exit 1 with a document is a "not fulfilled" result, a success)."""
    shutil.rmtree(command.out_dir, ignore_errors=True)
    command.out_dir.mkdir(parents=True)
    captured = io.StringIO()
    exit_code, raised = None, None
    start = clock()
    try:
        with redirect_stdout(captured), redirect_stderr(captured):
            exit_code = recal.cli.main(list(command.argv))
    except (Exception, SystemExit) as exc:  # a crash is an outcome to count, not a bench error
        raised = f"{type(exc).__name__}: {exc}"
    seconds = clock() - start

    text = captured.getvalue()
    produced = (command.out_dir / command.document).is_file()
    failed = raised is not None or not produced or exit_code not in (0, 1)
    message = ""
    if failed:
        message = raised or (text.strip().splitlines() or [f"exit {exit_code}"])[-1]
    digest = hashlib.sha256(f"{exit_code}\n{raised}\n{text}".encode())
    for path in sorted(command.out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return Outcome(command, seconds, exit_code, failed, message, digest.hexdigest())


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def scaled_spec(seed: int, scale: int):
    """The shipped generator spec with every discipline's researcher and
    publication counts multiplied by ``scale``."""
    spec = default_spec(seed)
    return replace(
        spec,
        params=tuple(
            replace(p, researcher_count=p.researcher_count * scale, pub_count=p.pub_count * scale)
            for p in spec.params
        ),
    )


def corpus_files(directory: Path, fmt: str) -> tuple[Path, Path, Path]:
    suffix = ".jsonl" if fmt == "jsonl" else ".csv"
    return tuple(directory / f"{name}{suffix}" for name in ("researchers", "publications", "citations"))


def read_rows(path: Path) -> list[dict]:
    """Rows of a DSV (header line) or JSONL table written by the CLI."""
    with path.open(encoding="utf-8", newline="") as handle:
        if path.suffix == ".jsonl":
            return [json.loads(line) for line in handle if line.strip()]
        return list(csv.DictReader(handle))


def read_thresholds(path: Path) -> dict[tuple[str, str], float]:
    """``(discipline, kind) -> minimum`` from a threshold table file."""
    lines = path.read_text(encoding="utf-8").splitlines()[2:]
    cells = (line.split(",") for line in lines if line)
    return {(discipline, kind): float(value) for discipline, kind, value in cells}


def load_reference():
    spec = importlib.util.spec_from_file_location("reference_section", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    name = ""
    why = ""
    unit = ""  # what one latency sample times
    p50_name = tail_name = ""  # the workload's own names for the latency metrics
    p50_unit = "ms"
    named_per_command = False  # the own-name metrics time single commands, not units
    scale = 0  # multiple of the shipped section spec; 0 means no corpus

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.inputs_dir = work / "inputs"
        self.out_root = work / "out"

    def prepare(self) -> dict:
        """Generate and write the inputs; returns the record counts."""
        raise NotImplementedError

    def inputs(self) -> list[Path]:
        raise NotImplementedError

    def round(self, index: int) -> list[list[Command]]:
        raise NotImplementedError

    def trace_round(self) -> list[list[Command]]:
        """The fixed round a traced run repeats, so its counts repeat exactly."""
        return self.round(0)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Workload-specific output checks; returns one message per failure."""
        raise NotImplementedError

    def command(self, key: str, label: str, argv: list[str], document: str) -> Command:
        out_dir = self.out_root / key.replace(" ", "_").replace(":", "_")
        return Command(key, label, (*argv, "--out-dir", str(out_dir)), out_dir, document)

    def write_corpus(self, fmt: str):
        """Generate the seeded corpus at this workload's scale and save it."""
        corpus = generate_corpus(scaled_spec(self.seed, self.scale))
        self.inputs_dir.mkdir(parents=True, exist_ok=True)
        save_corpus(corpus, *corpus_files(self.inputs_dir, fmt), fmt=fmt)
        return corpus


def record_counts(corpus) -> dict:
    return {
        "researchers": len(corpus.researchers),
        "publications": len(corpus.publications),
        "citations": len(corpus.citations),
    }


class SectionBatch(Workload):
    name = "section-batch"
    why = (
        "the committee's whole job on a 4x DSV corpus: corpus-mode recalibrate, then derive "
        "under both counting methods; ingest, index, kernel and APV dominate"
    )
    unit = "batch"
    p50_name, tail_name, p50_unit = "batch_s", "batch_tail_s", "s"
    scale = 4

    def prepare(self) -> dict:
        return record_counts(self.write_corpus("dsv"))

    def inputs(self) -> list[Path]:
        return list(corpus_files(self.inputs_dir, "dsv"))

    def round(self, index: int) -> list[list[Command]]:
        recalibrate = self.command(
            "recalibrate corpus", "recalibrate (corpus)",
            ["recalibrate", *map(str, self.inputs())], "recalibration.csv",
        )
        performance = str(recalibrate.out_dir / "performance.csv")
        derives = [
            self.command(
                f"derive {method}", f"derive --method {method} (corpus APVs)",
                ["derive", "--apv-table", performance, "--method", method],
                "thresholds_recalibrated.csv",
            )
            for method in METHODS
        ]
        return [[recalibrate, *derives]]

    def check(self, outcomes: list[Outcome]) -> list[str]:
        out_dir = self.round(0)[0][0].out_dir
        if not (out_dir / "recalibration.csv").is_file():
            return ["recalibrate wrote no recalibration table"]
        apv = {
            (p["discipline"], p["kind"], p["method"]): float(p["apv"])
            for p in read_rows(out_dir / "performance.csv")
        }
        rows = read_rows(out_dir / "recalibration.csv")
        problems = []
        if len(rows) != len(apv):
            problems.append(f"{len(rows)} recalibration rows for {len(apv)} APV cells")
        sums: dict[tuple[str, str], list[float]] = {}
        for row in rows:
            cell = (row["discipline"], row["kind"], row["method"])
            t = CONFIG.recalibration.t[IndicatorKind(row["kind"])]
            expected = apv[cell] * float(row["y_m"]) / t
            # rmv_raw is printed to 3 decimals; y_m is quantized to 3 decimals upstream
            if abs(float(row["rmv_raw"]) - expected) > 0.00051:
                problems.append(f"{'/'.join(cell)}: rmv_raw {row['rmv_raw']} != apv*y_m/t {expected:.6f}")
            total = sums.setdefault((row["kind"], row["method"]), [0.0, 0.0])
            total[0] += float(row["dsdr_current"])
            total[1] += float(row["dsdr_actual"])
        for (kind, method), totals in sums.items():
            for which, total in zip(("current", "actual"), totals):
                if abs(total - 1.0) > 1e-5:  # nine cells printed to 6 decimals
                    problems.append(f"{kind}/{method}: {which} DSDRs sum to {total:.7f}")
        return problems


class CandidateScoring(Workload):
    name = "candidate-scoring"
    why = (
        "closed loop of evaluate calls on a 1x JSONL corpus, one seeded candidate per discipline, "
        "4 method x table pairs each; exposes whole-corpus kernel work per candidate"
    )
    unit = "candidate scored four ways"
    p50_name, tail_name = "eval_p50_ms", "eval_tail_ms"
    named_per_command = True
    scale = 1

    def prepare(self) -> dict:
        corpus = self.write_corpus("jsonl")
        fixture = self.inputs_dir / "section_apv.csv"
        shutil.copyfile(FIXTURE_APV, fixture)
        self.tables = {}
        for method in METHODS:
            build = Command(
                f"thresholds {method}", f"derive --method {method} (fixture)",
                ("derive", "--apv-table", str(fixture), "--method", method,
                 "--out-dir", str(self.inputs_dir / f"thresholds_{method}")),
                self.inputs_dir / f"thresholds_{method}", "thresholds_recalibrated.csv",
            )
            outcome = execute(build)
            if outcome.failed:
                raise RuntimeError(f"cannot build the {method} threshold table: {outcome.message}")
            self.tables[method] = build.out_dir / build.document

        members: dict[str, list[str]] = {}
        for researcher in corpus.researchers.values():
            members.setdefault(researcher.discipline, []).append(researcher.researcher_id)
        rng = random.Random(self.seed)
        self.candidates = [rng.choice(ids) for ids in members.values()]
        rng.shuffle(self.candidates)
        return record_counts(corpus)

    def inputs(self) -> list[Path]:
        return [
            *corpus_files(self.inputs_dir, "jsonl"),
            self.inputs_dir / "section_apv.csv",
            *self.tables.values(),
        ]

    def round(self, index: int) -> list[list[Command]]:
        # one unit: the four calls' times differ by up to a fifth, so a
        # median over single calls would jump between them
        candidate = self.candidates[index % len(self.candidates)]
        unit = []
        for method in METHODS:
            for table in ("current", "recalibrated"):
                argv = ["evaluate", *map(str, corpus_files(self.inputs_dir, "jsonl")),
                        "--researcher", candidate, "--method", method]
                if table == "recalibrated":
                    argv += ["--thresholds", str(self.tables[method])]
                unit.append(self.command(
                    f"evaluate {candidate} {method} {table}",
                    f"evaluate --method {method} vs {table} minimums",
                    argv, f"evaluation_{candidate}.json",
                ))
        return [unit]

    def check(self, outcomes: list[Outcome]) -> list[str]:
        corpus = load_corpus(*corpus_files(self.inputs_dir, "jsonl"), CONFIG.disciplines)
        settings = CONFIG.counting_settings()
        problems = []
        checked = 0
        succeeded = {o.command.key: o.command for o in outcomes if not o.failed}
        for _, command in sorted(succeeded.items()):
            document = json.loads((command.out_dir / command.document).read_text(encoding="utf-8"))
            method = CountingMethod(document["method"])
            for item in document["indicators"]:
                direct = indicator_value(
                    corpus, document["researcher_id"], IndicatorKind(item["kind"]), method,
                    CONFIG.pub_window, CONFIG.citation_window, settings,
                )
                checked += 1
                if item["value"] != direct:
                    problems.append(
                        f"{command.key}: {item['kind']} = {item['value']}, direct call gives {direct}"
                    )
        if checked == 0:
            problems.append("no evaluate document to check against indicator_value")
        return problems


class CorpusSynth(Workload):
    name = "corpus-synth"
    why = (
        "recal synth of a 4x spec in DSV then JSONL: the generator and corpus writers, "
        "with no ingest or kernel work"
    )
    unit = "synth pair (DSV and JSONL)"
    p50_name, tail_name, p50_unit = "synth_s", "synth_tail_s", "s"
    named_per_command = True
    scale = 4

    def prepare(self) -> dict:
        self.inputs_dir.mkdir(parents=True, exist_ok=True)
        save_synth_spec(scaled_spec(self.seed, self.scale), self.inputs()[0])
        return self.spec_counts()

    def spec_counts(self) -> dict:
        spec = scaled_spec(self.seed, self.scale)
        return {
            "researchers": sum(p.researcher_count for p in spec.params),
            "publications": sum(p.pub_count for p in spec.params),
        }

    def inputs(self) -> list[Path]:
        return [self.inputs_dir / "spec.json"]

    def round(self, index: int) -> list[list[Command]]:
        # one unit: a DSV call's and a JSONL call's times differ by half, so
        # a median over single calls would jump between the two
        return [[
            self.command(
                f"synth {fmt}", f"synth --format {fmt}",
                ["synth", "--spec", str(self.inputs()[0]), "--format", fmt],
                "citations.jsonl" if fmt == "jsonl" else "citations.csv",
            )
            for fmt in ("dsv", "jsonl")
        ]]

    def check(self, outcomes: list[Outcome]) -> list[str]:
        expected = self.spec_counts()
        problems = []
        citations = {}
        for command, fmt in zip(self.round(0)[0], ("dsv", "jsonl")):
            header = 1 if fmt == "dsv" else 0
            for path in corpus_files(command.out_dir, fmt):
                if not path.is_file():
                    problems.append(f"synth {fmt} wrote no {path.name}")
                    continue
                with path.open("rb") as handle:
                    records = sum(1 for _ in handle) - header
                kind = path.stem
                if kind in expected and records != expected[kind]:
                    problems.append(f"synth {fmt}: {records} {kind}, spec asks for {expected[kind]}")
                if kind == "citations":
                    citations[fmt] = records
        if len(set(citations.values())) > 1:
            problems.append(f"DSV and JSONL corpora differ in citation count: {citations}")
        return problems


class FixtureReplay(Workload):
    name = "fixture-replay"
    why = (
        "recalibrate and derive replayed on the published APV fixture, no corpus: the algebra, "
        "evaluation and table writers do all the work"
    )
    unit = "command"
    p50_name, tail_name = "replay_p50_ms", "replay_tail_ms"
    trace_repeats = 25  # one round is ~15 ms; a traced round repeats it to time it

    def prepare(self) -> dict:
        self.inputs_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURE_APV, self.inputs()[0])
        with self.inputs()[0].open(encoding="utf-8") as handle:
            return {"apv_cells": sum(1 for _ in handle) - 1}

    def inputs(self) -> list[Path]:
        return [self.inputs_dir / "section_apv.csv"]

    def round(self, index: int) -> list[list[Command]]:
        table = str(self.inputs()[0])
        units = [
            [self.command(
                f"recalibrate {fmt}", f"recalibrate --format {fmt} (fixture)",
                ["recalibrate", "--apv-table", table, "--format", fmt],
                f"recalibration{'.jsonl' if fmt == 'jsonl' else '.csv'}",
            )]
            for fmt in ("dsv", "jsonl")
        ]
        units += [
            [self.command(
                f"derive {method}", f"derive --method {method} (fixture)",
                ["derive", "--apv-table", table, "--method", method],
                "thresholds_recalibrated.csv",
            )]
            for method in METHODS
        ]
        random.Random(self.seed).shuffle(units)
        return units

    def trace_round(self) -> list[list[Command]]:
        return self.round(0) * self.trace_repeats

    def check(self, outcomes: list[Outcome]) -> list[str]:
        ref = load_reference()
        problems = []
        by_key = {c.key: c for (c,) in self.round(0)}
        for fmt in ("dsv", "jsonl"):
            command = by_key[f"recalibrate {fmt}"]
            path = command.out_dir / command.document
            if not path.is_file():
                problems.append(f"recalibrate {fmt} wrote no table")
                continue
            rows = {
                (r["discipline"], IndicatorKind(r["kind"]), CountingMethod(r["method"])): r
                for r in read_rows(path)
            }
            for name, published_table in (("y_i", ref.YEARS_PUBLISHED), ("rmv_raw", ref.RMV_RAW_PUBLISHED)):
                for (kind, method), cells in published_table.items():
                    for discipline, published in cells.items():
                        value = float(rows[(discipline, kind, method)][name])
                        if abs(value - published) > 0.005:
                            problems.append(f"{fmt} {name} {discipline}/{kind.value}/{method.value}: {value} vs {published}")
            for kind, published in ref.MEAN_YEARS_PUBLISHED.items():
                value = float(rows[("geology", kind, ref.IC)]["y_m"])
                if abs(value - published) > 0.005:
                    problems.append(f"{fmt} y_m {kind.value}: {value} vs {published}")
            for (kind, method), cells in ref.RMV_ROUNDED_PUBLISHED.items():
                if method is not ref.IC:
                    continue
                for discipline, published in cells.items():
                    value = rows[(discipline, kind, method)]["rmv_rounded"]
                    if int(value) != published:
                        problems.append(f"{fmt} rounded {discipline}/{kind.value}: {value} vs {published}")
        command = by_key["derive integer"]
        path = command.out_dir / command.document
        if not path.is_file():
            problems.append("derive integer wrote no threshold table")
        else:
            minimums = read_thresholds(path)
            for kind, cells in ref.DERIVED_PUBLISHED.items():
                for discipline, published in cells.items():
                    value = minimums[(discipline, kind.value)]
                    if abs(value - published) > 1:
                        problems.append(f"derived {discipline}/{kind.value}: {value} vs {published}")
        return problems


WORKLOADS = {w.name: w for w in (SectionBatch, CandidateScoring, CorpusSynth, FixtureReplay)}
