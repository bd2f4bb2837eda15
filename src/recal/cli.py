"""Command-line entry point.

Subcommands: validate, stats, recalibrate, derive, evaluate, synth. Exit
codes: 0 success, 1 validation or domain failure, 2 I/O failure. Output files
are byte-identical across runs for identical inputs: fixed orderings, fixed
decimal widths, no timestamps.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .config import ConfigError, PipelineConfig, default_config, load_pipeline_config
from .corpus import (
    Corpus, CorpusError, corpus_stats, load_corpus, save_corpus, scan_corpus, write_table,
)
from .counting import CountingError, CountingMethod, IndicatorKind, indicator_matrix
from .evaluation import (
    EvaluationError,
    ThresholdTable,
    diff_tables,
    evaluate_candidate,
    load_threshold_table,
    save_threshold_table,
)
from .recalibration import (
    DEFAULT_BASE_KINDS,
    DisciplinePerformance,
    RecalibrationError,
    RecalibrationRow,
    derived_scaled_minimums,
    discipline_performance,
    performance_as_table,
    read_apv_table,
    recalibrate_all,
    write_apv_table,
    write_recalibration_rows,
)
from .synthgen import SynthError, default_spec, generate_corpus, load_synth_spec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

OUTPUT_FORMAT_CHOICES = ("dsv", "jsonl")


def _load_config(path: str | None) -> PipelineConfig:
    return load_pipeline_config(path) if path else default_config()


def _table_suffix(fmt: str) -> str:
    return ".jsonl" if fmt == "jsonl" else ".csv"


def _corpus_from_args(args: argparse.Namespace, config: PipelineConfig) -> Corpus:
    return load_corpus(args.researchers, args.publications, args.citations, config.disciplines)


def _add_corpus_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("researchers", nargs=None if required else "?", help="researcher file")
    parser.add_argument("publications", nargs=None if required else "?", help="publication file")
    parser.add_argument("citations", nargs=None if required else "?", help="citation file")


# --------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    corpus, violations = scan_corpus(
        args.researchers, args.publications, args.citations, config.disciplines
    )
    for violation in violations:
        print(violation)
    if corpus is None:
        print(f"invalid: {len(violations)} violation(s)")
        return EXIT_VALIDATION
    print(
        f"ok: {len(corpus.researchers)} researchers, "
        f"{len(corpus.publications)} publications, {len(corpus.citations)} citations"
    )
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    corpus = _corpus_from_args(args, config)
    stats = corpus_stats(corpus, config.pub_window, list(config.disciplines))
    header = (
        "discipline",
        "pub_count",
        "multi_authored_count",
        "multi_ratio",
        "coauthor_total",
        "avg_coauthors_per_multi",
    )
    rows = []
    for row in stats.per_discipline.values():
        avg = row.avg_coauthors_per_multi
        rows.append(
            (
                row.discipline,
                str(row.pub_count),
                str(row.multi_authored_count),
                f"{row.multi_ratio:.2f}",
                str(row.coauthor_total),
                "" if avg is None else f"{avg:.2f}",
            )
        )
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_table(out_dir / f"coauthorship_stats{_table_suffix(args.format)}", header, rows, args.format)
    else:
        write_table(sys.stdout, header, rows, args.format)
    return EXIT_OK


def _recalibration_rows(
    args: argparse.Namespace, config: PipelineConfig
) -> tuple[list[RecalibrationRow], list[DisciplinePerformance] | None]:
    """Rows plus, in corpus mode, the computed per-discipline performance."""
    corpus_given = args.researchers is not None
    if bool(args.apv_table) == corpus_given:
        raise ConfigError("provide exactly one input: the three corpus files or --apv-table")
    if args.apv_table:
        return recalibrate_all(read_apv_table(args.apv_table), config.recalibration), None
    if args.publications is None or args.citations is None:
        raise ConfigError("corpus mode needs all three files: researchers publications citations")
    corpus = _corpus_from_args(args, config)
    performance = discipline_performance(
        corpus,
        config.recalibration,
        pub_window=config.pub_window,
        citation_window=config.citation_window,
        settings=config.counting_settings(),
    )
    return recalibrate_all(performance_as_table(performance), config.recalibration), performance


def _write_figure_data(
    rows: Sequence[RecalibrationRow], out_dir: Path, fmt: str, disciplines: Sequence[str]
) -> None:
    """One plottable file per kind: current share vs actual shares per method."""
    by_cell = {(r.kind, r.method, r.discipline): r for r in rows}
    kinds = sorted({r.kind for r in rows}, key=lambda k: k.value)
    for kind in kinds:
        header = ("discipline", "dsdr_current", "dsdr_actual_integer", "dsdr_actual_fractional")
        table = []
        for discipline in disciplines:
            integer = by_cell[(kind, CountingMethod.INTEGER, discipline)]
            fractional = by_cell[(kind, CountingMethod.FRACTIONAL, discipline)]
            table.append(
                (
                    discipline,
                    f"{integer.dsdr_current:.6f}",
                    f"{integer.dsdr_actual:.6f}",
                    f"{fractional.dsdr_actual:.6f}",
                )
            )
        write_table(out_dir / f"dsdr_{kind.value}{_table_suffix(fmt)}", header, table, fmt)


def _cmd_recalibrate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    rows, performance = _recalibration_rows(args, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = args.format
    if performance is not None:
        # corpus mode: keep the computed APVs reusable as an --apv-table input
        write_apv_table(performance, out_dir / f"performance{_table_suffix(fmt)}", fmt)
    write_recalibration_rows(rows, out_dir / f"recalibration{_table_suffix(fmt)}", fmt)
    _write_figure_data(rows, out_dir, fmt, list(config.recalibration.disciplines))
    print(f"wrote {len(rows)} recalibration rows to {out_dir}")
    return EXIT_OK


def _cmd_derive(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    method = CountingMethod(args.method)
    rows, _ = _recalibration_rows(args, config)
    derived = derived_scaled_minimums(
        rows, config.derived_cmv(), method=method, rounding=config.recalibration.rounding
    )

    minimums: dict[tuple[str, IndicatorKind], float] = {}
    for row in rows:
        if row.method is method and row.rmv_rounded is not None:
            minimums[(row.discipline, row.kind)] = float(row.rmv_rounded)
        elif row.method is method:
            minimums[(row.discipline, row.kind)] = row.rmv_raw
    for cell, (raw, rounded) in derived.items():
        minimums[cell] = float(rounded) if rounded is not None else raw
    table = ThresholdTable(label=f"recalibrated minimums ({method.value})", minimums=minimums)

    current = config.current_threshold_table()
    deltas = diff_tables(current, table)
    non_derivable = sorted(
        {
            kind.value
            for (_, kind) in config.current_minimums
            if kind not in DEFAULT_BASE_KINDS
            and kind not in config.recalibration.kinds
        }
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_threshold_table(table, out_dir / "thresholds_recalibrated.csv")

    header = ("discipline", "kind", "status", "raw", "minimum", "delta_vs_current")
    report = []
    for (discipline, kind) in sorted(minimums, key=lambda c: (c[0], c[1].value)):
        raw = derived.get((discipline, kind), (None, None))[0]
        delta = deltas.get((discipline, kind))
        delta_text = ""
        if delta is not None and delta.delta is not None:
            delta_text = f"{delta.delta:+.0f}"
        elif delta is not None and delta.added:
            delta_text = "newly introduced"
        report.append(
            (
                discipline,
                kind.value,
                "derived" if (discipline, kind) in derived else "recalibrated",
                "" if raw is None else f"{raw:.3f}",
                f"{minimums[(discipline, kind)]:g}",
                delta_text,
            )
        )
    for kind_name in non_derivable:
        report.append(("*", kind_name, "non_derivable", "", "", ""))
    write_table(out_dir / f"derive_report{_table_suffix(args.format)}", header, report, args.format)

    if non_derivable:
        print(f"not derivable from these inputs: {', '.join(non_derivable)}")
    print(f"wrote {len(minimums)} threshold cells to {out_dir}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    corpus = _corpus_from_args(args, config)
    table = (
        load_threshold_table(args.thresholds)
        if args.thresholds
        else config.current_threshold_table()
    )
    method = CountingMethod(args.method)
    profile = corpus.researcher(args.researcher)
    kinds = table.required_kinds(profile.discipline)
    (vector,) = indicator_matrix(
        corpus,
        kinds,
        [method],
        config.pub_window,
        config.citation_window,
        config.counting_settings(),
        researcher_ids=[args.researcher],
    )
    result = evaluate_candidate(vector, profile.discipline, table)
    document = json.dumps(result.to_dict(), indent=2)
    print(document)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"evaluation_{args.researcher}.json").write_text(
            document + "\n", encoding="utf-8"
        )
    return EXIT_OK if result.overall_fulfilled else EXIT_VALIDATION


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synth_spec(args.spec) if args.spec else default_spec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    corpus = generate_corpus(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("researchers", "publications", "citations")
    save_corpus(corpus, *(out_dir / f"{name}{_table_suffix(args.format)}" for name in names), fmt=args.format)
    print(
        f"seed {spec.seed}: wrote {len(corpus.researchers)} researchers, "
        f"{len(corpus.publications)} publications, {len(corpus.citations)} citations to {out_dir}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` keeps no state between
    calls."""
    parser = argparse.ArgumentParser(
        prog="recal",
        description="Recalibrate discipline-specific minimum bibliometric requirements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the three corpus files, list every violation")
    _add_corpus_arguments(p)
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="per-discipline co-authorship statistics")
    _add_corpus_arguments(p)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out-dir", help="write the table here instead of stdout")
    p.add_argument("--format", choices=OUTPUT_FORMAT_CHOICES, default="dsv", help="table format")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("recalibrate", help="full recalibration table plus DSDR figure data")
    _add_corpus_arguments(p, required=False)
    p.add_argument("--apv-table", help="precomputed discipline,kind,method,apv table")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=OUTPUT_FORMAT_CHOICES, default="dsv")
    p.set_defaults(func=_cmd_recalibrate)

    p = sub.add_parser("derive", help="recalibrated threshold table incl. proportionally scaled kinds")
    _add_corpus_arguments(p, required=False)
    p.add_argument("--apv-table", help="precomputed discipline,kind,method,apv table")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--method", default="integer", choices=[m.value for m in CountingMethod])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=OUTPUT_FORMAT_CHOICES, default="dsv")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("evaluate", help="score one researcher against a threshold table")
    _add_corpus_arguments(p)
    p.add_argument("--researcher", required=True, help="researcher id to evaluate")
    p.add_argument("--thresholds", help="threshold table file (default: current minimums)")
    p.add_argument("--method", default="integer", choices=[m.value for m in CountingMethod])
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out-dir", help="also write the result document here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", help="generator spec JSON (default: shipped section profile)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--format", choices=OUTPUT_FORMAT_CHOICES, default="dsv")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        ConfigError,
        CorpusError,
        CountingError,
        EvaluationError,
        RecalibrationError,
        SynthError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
