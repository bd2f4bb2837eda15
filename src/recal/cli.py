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
from typing import Mapping, Sequence

from .config import ConfigError, PipelineConfig, default_config, load_pipeline_config
from .corpus import (
    TABLE_SUFFIXES, Corpus, RecalError, collector_paused, corpus_stats, load_corpus, save_corpus, scan_corpus,
    write_table,
)
from .counting import CountingMethod, indicator_matrix
from .evaluation import (
    ThresholdTable,
    diff_tables,
    evaluate_candidate,
    load_threshold_table,
    save_threshold_table,
)
from .recalibration import (
    Cell,
    DisciplinePerformance,
    MissingApvError,
    RecalibrationError,
    RecalibrationRow,
    derived_scaled_minimums,
    discipline_performance,
    read_apv_table,
    recalibrate_all,
    write_apv_table,
    write_recalibration_rows,
)
from .synthgen import default_spec, generate_corpus, load_synth_spec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _output_dir(args: argparse.Namespace) -> Path:
    """``--out-dir``, made now: a command calls this only once it is ready to
    write, so a command that fails earlier leaves no directory behind."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _table_path(out_dir: Path, name: str, fmt: str) -> Path:
    return out_dir / f"{name}{TABLE_SUFFIXES[fmt]}"


def _corpus_from_args(args: argparse.Namespace, config: PipelineConfig) -> Corpus:
    return load_corpus(args.researchers, args.publications, args.citations, config.disciplines)


# --------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args: argparse.Namespace, config: PipelineConfig) -> int:
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


def _cmd_stats(args: argparse.Namespace, config: PipelineConfig) -> int:
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
    for discipline, row in stats.items():
        avg = row.avg_coauthors_per_multi
        rows.append(
            (
                discipline,
                str(row.pub_count),
                str(row.multi_authored_count),
                f"{row.multi_ratio:.2f}",
                str(row.coauthor_total),
                "" if avg is None else f"{avg:.2f}",
            )
        )
    out = _table_path(_output_dir(args), "coauthorship_stats", args.format) if args.out_dir else sys.stdout
    write_table(out, header, rows, args.format)
    return EXIT_OK


def _recalibration_rows(
    args: argparse.Namespace, config: PipelineConfig
) -> tuple[dict[Cell, RecalibrationRow], dict[Cell, DisciplinePerformance] | None]:
    """Rows plus, in corpus mode, the computed per-discipline performance."""
    if bool(args.apv_table) == (args.researchers is not None):
        raise ConfigError("provide exactly one input: the three corpus files or --apv-table")
    if args.apv_table:
        apv_table = read_apv_table(args.apv_table)
        try:
            return recalibrate_all(apv_table, config.disciplines, config.current_minimums, config.recalibration), None
        except MissingApvError as exc:  # the algebra's refusals name their cell, not the table
            raise RecalibrationError(f"{args.apv_table}: {exc}") from None
    if args.publications is None or args.citations is None:
        raise ConfigError("corpus mode needs all three files: researchers publications citations")
    performance = discipline_performance(_corpus_from_args(args, config), config.disciplines, config.recalibration,
                                         config.pub_window, config.citation_window, config.counting_settings())
    apvs = {cell: p.apv for cell, p in performance.items()}
    rows = recalibrate_all(apvs, config.disciplines, config.current_minimums, config.recalibration)
    return rows, performance


def _write_figure_data(
    rows: Mapping[Cell, RecalibrationRow], out_dir: Path, fmt: str, disciplines: Sequence[str]
) -> None:
    """One plottable file per kind: current share vs actual shares per method."""
    kinds = sorted({kind for _, kind, _ in rows}, key=lambda k: k.value)
    for kind in kinds:
        header = ("discipline", "dsdr_current", "dsdr_actual_integer", "dsdr_actual_fractional")
        table = []
        for discipline in disciplines:
            integer = rows[discipline, kind, CountingMethod.INTEGER]
            fractional = rows[discipline, kind, CountingMethod.FRACTIONAL]
            table.append(
                (
                    discipline,
                    f"{integer.dsdr_current:.6f}",
                    f"{integer.dsdr_actual:.6f}",
                    f"{fractional.dsdr_actual:.6f}",
                )
            )
        write_table(_table_path(out_dir, f"dsdr_{kind.value}", fmt), header, table, fmt)


def _cmd_recalibrate(args: argparse.Namespace, config: PipelineConfig) -> int:
    rows, performance = _recalibration_rows(args, config)
    out_dir, fmt = _output_dir(args), args.format
    if performance is not None:
        # corpus mode: keep the computed APVs reusable as an --apv-table input
        write_apv_table(performance, _table_path(out_dir, "performance", fmt), fmt)
    write_recalibration_rows(rows, _table_path(out_dir, "recalibration", fmt), fmt)
    _write_figure_data(rows, out_dir, fmt, list(config.disciplines))
    print(f"wrote {len(rows)} recalibration rows to {out_dir}")
    return EXIT_OK


def _cmd_derive(args: argparse.Namespace, config: PipelineConfig) -> int:
    method = CountingMethod(args.method)
    rows, _ = _recalibration_rows(args, config)
    derived = derived_scaled_minimums(rows, config.current_minimums, method, config.recalibration.rounding)

    # (raw, rounded) per cell. A rounded minimum below 1 is floored to 1: a
    # minimum of 0 asks for nothing, and the threshold table refuses it.
    cells = {(d, kind): (row.rmv_raw, row.rmv_rounded) for (d, kind, m), row in rows.items() if m is method}
    cells.update(derived)
    floored = {cell for cell, (_, rounded) in cells.items() if rounded is not None and rounded < 1}
    minimums = {cell: raw if rounded is None else float(max(rounded, 1)) for cell, (raw, rounded) in cells.items()}
    table = ThresholdTable(label=f"recalibrated minimums ({method.value})", minimums=minimums)

    deltas = diff_tables(config.current_threshold_table(), table)
    # every current-minimum kind that is neither recalibrated nor derived
    non_derivable = sorted({kind.value for _, kind in config.current_minimums} - {kind.value for _, kind in cells})

    out_dir = _output_dir(args)
    save_threshold_table(table, out_dir / "thresholds_recalibrated.csv")

    header = ("discipline", "kind", "status", "raw", "minimum", "delta_vs_current")
    report = []
    for cell in sorted(minimums, key=lambda c: (c[0], c[1].value)):
        status = "floored" if cell in floored else "derived" if cell in derived else "recalibrated"
        raw = None if status == "recalibrated" else cells[cell][0]
        delta = deltas[cell]
        delta_text = "newly introduced" if delta is None else f"{delta:+.0f}"
        report.append(
            (
                cell[0],
                cell[1].value,
                status,
                "" if raw is None else f"{raw:.3f}",
                f"{minimums[cell]:g}",
                delta_text,
            )
        )
    for kind_name in non_derivable:
        report.append(("*", kind_name, "non_derivable", "", "", ""))
    write_table(_table_path(out_dir, "derive_report", args.format), header, report, args.format)

    if non_derivable:
        print(f"not derivable from these inputs: {', '.join(non_derivable)}")
    print(f"wrote {len(minimums)} threshold cells to {out_dir}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    # a bad table is refused before the corpus is read, as a bad config is
    table = load_threshold_table(args.thresholds) if args.thresholds else config.current_threshold_table()
    corpus = _corpus_from_args(args, config)
    method = CountingMethod(args.method)
    profile = corpus.researcher(args.researcher)
    kinds = table.required_kinds(profile.discipline)
    values = indicator_matrix(corpus, kinds, [method], config.pub_window, config.citation_window,
                              config.counting_settings(), [args.researcher])
    result = evaluate_candidate(args.researcher, method, values[args.researcher, method], profile.discipline, table)
    document = json.dumps(result.to_dict(), indent=2)
    print(document)
    if args.out_dir:
        name = args.researcher.replace("%", "%25").replace("/", "%2F")  # one file per id, inside out_dir
        (_output_dir(args) / f"evaluation_{name}.json").write_text(document + "\n", encoding="utf-8")
    return EXIT_OK if result.overall_fulfilled else EXIT_VALIDATION


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synth_spec(args.spec) if args.spec else default_spec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    corpus = generate_corpus(spec)
    out_dir = _output_dir(args)
    names = ("researchers", "publications", "citations")
    save_corpus(corpus, *(_table_path(out_dir, name, args.format) for name in names), fmt=args.format)
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
    parsers: dict[str, argparse.ArgumentParser] = {}
    for name, func, text in (
        ("validate", _cmd_validate, "check the three corpus files, list every violation"),
        ("stats", _cmd_stats, "per-discipline co-authorship statistics"),
        ("recalibrate", _cmd_recalibrate, "full recalibration table plus DSDR figure data"),
        ("derive", _cmd_derive, "recalibrated threshold table incl. proportionally scaled kinds"),
        ("evaluate", _cmd_evaluate, "score one researcher against a threshold table"),
        ("synth", _cmd_synth, "generate a synthetic corpus"),
    ):
        parsers[name] = sub.add_parser(name, help=text)
        parsers[name].set_defaults(func=func)

    def shared(commands: str, *flags: str, **keywords) -> None:
        """Declare one argument, the same on each of ``commands``."""
        for command in commands.split():
            parsers[command].add_argument(*flags, **keywords)

    for command in ("validate", "stats", "recalibrate", "derive", "evaluate"):
        nargs = "?" if command in ("recalibrate", "derive") else None  # the corpus or --apv-table
        for name in ("researchers", "publications", "citations"):
            parsers[command].add_argument(name, nargs=nargs, help=f"{name[:-1]} file")
    shared("recalibrate derive", "--apv-table", help="precomputed discipline,kind,method,apv table")
    shared("validate stats recalibrate derive evaluate", "--config", help="pipeline config JSON")
    shared("derive evaluate", "--method", default="integer", choices=[m.value for m in CountingMethod])
    shared("recalibrate derive synth", "--out-dir", required=True)
    shared("stats recalibrate derive synth", "--format", choices=tuple(TABLE_SUFFIXES), default="dsv",
           help="table format")

    parsers["stats"].add_argument("--out-dir", help="write the table here instead of stdout")
    parsers["evaluate"].add_argument("--researcher", required=True, help="researcher id to evaluate")
    parsers["evaluate"].add_argument("--thresholds", help="threshold table file (default: current minimums)")
    parsers["evaluate"].add_argument("--out-dir", help="also write the result document here")
    parsers["synth"].add_argument("--spec", help="generator spec JSON (default: shipped section profile)")
    parsers["synth"].add_argument("--seed", type=int, help="override the spec seed")

    return parser


def _one_line(message: str) -> str:
    """``message`` with each character that ``str.isprintable`` rejects (a
    newline, a tab, a lone surrogate) written as its Python escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with collector_paused():  # no collector pass walks the command's records while it runs
            if "config" not in args:  # synth
                return args.func(args)
            return args.func(args, load_pipeline_config(args.config) if args.config else default_config())
    except OSError as exc:
        print(f"i/o error: {_one_line(str(exc))}", file=sys.stderr)
        return EXIT_IO
    except RecalError as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
