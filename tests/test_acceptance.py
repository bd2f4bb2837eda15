"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; under plain ``pytest`` they appear for failing criteria only.
"""
from __future__ import annotations

from pathlib import Path
from time import perf_counter

import pytest

from recal.cli import main as cli_main
from recal.corpus import corpus_stats, save_corpus
from recal.counting import (
    CountingMethod,
    CountingSettings,
    IndicatorKind,
    indicator_matrix,
)
from recal.defaults import COAUTHORSHIP_PROFILE, CURRENT_MINIMUMS, DEFAULT_T, DISCIPLINES
from recal.evaluation import ThresholdTable, evaluate_candidate
from recal.recalibration import (
    RecalibrationConfig,
    RoundingMode,
    derived_scaled_minimums,
    discipline_performance,
    read_apv_table,
    recalibrate_all,
)
from recal.synthgen import default_spec, generate_corpus

import reference_section as ref
from conftest import PUB_WINDOW, CITATION_WINDOW, random_corpus, social_geography_dossier
from test_counting import ORACLE_KINDS, brute_force_values

INTEGER = CountingMethod.INTEGER
FRACTIONAL = CountingMethod.FRACTIONAL
K = IndicatorKind
APV_TABLE_PATH = Path(__file__).parent / "data" / "section_apv.csv"

CORE = (K.PUBLICATIONS, K.WOS_ARTICLES, K.INDEPENDENT_CITATIONS, K.CUMULATIVE_IF)


def section_config(**overrides) -> RecalibrationConfig:
    return RecalibrationConfig(**{"t": DEFAULT_T, **overrides})


def _finish(label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} issue(s))"
    print(f"{label}: {status}")
    for failure in failures:
        print(f"    {failure}")
    assert not failures


def _recalibration_invariants(rows, t_by_kind, failures, tag=""):
    """The shared invariant battery over a set of recalibration rows."""
    kinds = {kind for _, kind, _ in rows}
    for kind in kinds:
        for method in (INTEGER, FRACTIONAL):
            subset = {d: r for (d, k, m), r in rows.items() if k is kind and m is method}
            if abs(sum(r.dsdr_current for r in subset.values()) - 1.0) > 1e-9:
                failures.append(f"{tag}{kind.value}/{method.value}: current DSDRs do not sum to 1")
            if abs(sum(r.dsdr_actual for r in subset.values()) - 1.0) > 1e-9:
                failures.append(f"{tag}{kind.value}/{method.value}: actual DSDRs do not sum to 1")
            total_rmv = sum(r.rmv_raw for r in subset.values())
            t = t_by_kind[kind]
            for d, r in subset.items():
                if abs(r.rmv_raw - r.apv * r.y_m / t) > 1e-9 * max(1.0, abs(r.rmv_raw)):
                    failures.append(f"{tag}{d}/{kind.value}/{method.value}: closed form mismatch")
                if abs(r.rmv_raw / total_rmv - r.dsdr_actual) > 1e-9:
                    failures.append(f"{tag}{d}/{kind.value}/{method.value}: RMV share != actual DSDR")
                if abs(r.rmv_raw / r.apv * t - r.y_m) > 1e-9 * max(1.0, r.y_m):
                    failures.append(f"{tag}{d}/{kind.value}/{method.value}: equal-time broken")


# --------------------------------------------------------------------------

def test_criterion_1_golden_pipeline_reproduction():
    start = perf_counter()
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    elapsed = perf_counter() - start

    failures: list[str] = []
    if len(rows) != 9 * 4 * 2:
        failures.append(f"expected 72 rows, got {len(rows)}")

    for (kind, method), cells in ref.YEARS_PUBLISHED.items():
        for discipline, published in cells.items():
            y_i = rows[(discipline, kind, method)].y_i
            if abs(y_i - published) > 0.005:
                failures.append(f"Y_i {discipline}/{kind.value}/{method.value}: {y_i:.4f} vs {published}")

    for kind, published in ref.MEAN_YEARS_PUBLISHED.items():
        y_m = rows[("geology", kind, INTEGER)].y_m
        if abs(y_m - published) > 0.005:
            failures.append(f"Y_m {kind.value}: {y_m:.4f} vs {published}")

    for (kind, method), cells in ref.RMV_RAW_PUBLISHED.items():
        for discipline, published in cells.items():
            raw = rows[(discipline, kind, method)].rmv_raw
            if abs(raw - published) > 0.005:
                failures.append(f"RMV {discipline}/{kind.value}/{method.value}: {raw:.4f} vs {published}")

    rounded_checked = 0
    for kind in CORE:
        for discipline, published in ref.RMV_ROUNDED_PUBLISHED[(kind, INTEGER)].items():
            rounded = rows[(discipline, kind, INTEGER)].rmv_rounded
            rounded_checked += 1
            if rounded != published:
                failures.append(f"rounded RMV {discipline}/{kind.value}: {rounded} vs {published}")
    if rounded_checked != 36:
        failures.append(f"expected 36 rounded integer cells, checked {rounded_checked}")

    if elapsed >= 1.0:
        failures.append(f"fixture pipeline took {elapsed:.3f}s (limit 1s)")
    _finish("criterion 1 (golden pipeline reproduction, fixture mode)", failures)


def test_criterion_2_dsdr_reproduction():
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    failures = []
    checks = [
        ("geology", "dsdr_current", 0.107143),
        ("geodesy", "dsdr_current", 0.107143),
        ("geology", "dsdr_actual", 0.127070),
        ("geodesy", "dsdr_actual", 0.080511),
    ]
    for discipline, attribute, published in checks:
        value = getattr(rows[(discipline, K.PUBLICATIONS, INTEGER)], attribute)
        if abs(value - published) > 5e-6:
            failures.append(f"{attribute} {discipline}: {value:.7f} vs {published}")
    _finish("criterion 2 (publication DSDR reproduction)", failures)


def test_criterion_3_derived_scaling_matches_published_table(capsys):
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    derived = derived_scaled_minimums(rows, CURRENT_MINIMUMS, INTEGER, RoundingMode.HALF_AWAY_FROM_ZERO)

    failures = []
    exact = off_by_one = 0
    print("criterion 3 cell report (ours vs published):")
    for kind, cells in ref.DERIVED_PUBLISHED.items():
        for discipline, published in cells.items():
            _, rounded = derived[(discipline, kind)]
            gap = abs(rounded - published)
            tag = "exact" if gap == 0 else f"off by {gap}"
            print(f"    {discipline:20s} {kind.value:32s} {rounded:3d} vs {published:3d} ({tag})")
            if gap == 0:
                exact += 1
            elif gap == 1:
                off_by_one += 1
            else:
                failures.append(f"{discipline}/{kind.value}: {rounded} vs {published} (off by {gap})")
    print(f"    {exact} exact, {off_by_one} within one unit")

    # WoS-located citations have no scaling base in the published data.
    if ("geology", K.WOS_INDEPENDENT_CITATIONS) in derived:
        failures.append("WoS-citation row unexpectedly derivable")
    else:
        print("    wos_independent_citations: correctly left out as non-derivable")
    _finish("criterion 3 (proportional scaling of derived indicators)", failures)


def test_criterion_4_property_suite():
    start = perf_counter()
    failures: list[str] = []

    # credit conservation at 1e-12: the co-authors' fractional publication counts sum to one
    from recal.corpus import PublicationRecord, PubType, ResearcherProfile, build_corpus

    for n in [1, 2, 3, 7, 64, 499, 5000]:
        authors = tuple(f"a{i}" for i in range(n))
        pub = PublicationRecord("p", 2015, PubType.JOURNAL_ARTICLE, "en", False, False, None, authors, "geology")
        corpus = build_corpus([ResearcherProfile(a, "geology") for a in authors], [pub], [], ["geology"])
        table = indicator_matrix(corpus, [K.PUBLICATIONS], [FRACTIONAL], PUB_WINDOW, CITATION_WINDOW)
        total = sum(values[K.PUBLICATIONS] for values in table.values())
        if abs(total - 1.0) > 1e-12:
            failures.append(f"credit conservation broken for {n} authors: {total!r}")

    # fractional <= integer dominance on random corpora
    settings = CountingSettings()
    for seed in range(25):
        corpus = random_corpus(seed=seed)
        for rid in corpus.researchers:
            for kind in ORACLE_KINDS:
                frac = brute_force_values(corpus, [kind], FRACTIONAL, PUB_WINDOW, CITATION_WINDOW, settings)
                whole = brute_force_values(corpus, [kind], INTEGER, PUB_WINDOW, CITATION_WINDOW, settings)
                if frac[rid][kind] > whole[rid][kind] + 1e-12:
                    failures.append(f"dominance broken: seed {seed} {rid} {kind.value}")

    # recalibration identities on the reference fixture
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    _recalibration_invariants(rows, DEFAULT_T, failures, tag="fixture ")

    # t-invariance of raw RMVs (exact mean)
    for c in (0.5, 2.0, 7.25):
        base = recalibrate_all(
            read_apv_table(APV_TABLE_PATH), DISCIPLINES, CURRENT_MINIMUMS, section_config(ym_decimals=None)
        )
        scaled = recalibrate_all(
            read_apv_table(APV_TABLE_PATH), DISCIPLINES, CURRENT_MINIMUMS,
            section_config(ym_decimals=None, t={k: v * c for k, v in DEFAULT_T.items()}),
        )
        for (discipline, kind, method), r_base in base.items():
            r_scaled = scaled[discipline, kind, method]
            if abs(r_scaled.rmv_raw - r_base.rmv_raw) > 1e-9 * max(1.0, r_base.rmv_raw):
                failures.append(
                    f"t-invariance broken at c={c}: {discipline}/{kind.value}"
                )
                break
            if abs(r_scaled.y_i - r_base.y_i * c) > 1e-9 * max(1.0, r_base.y_i * c):
                failures.append(f"y_i did not scale by {c}")
                break

    # brute-force oracle equivalence across 200 randomized corpora (<= 50 records)
    for seed in range(200):
        corpus = random_corpus(seed=seed, max_records=50)
        total_records = len(corpus.researchers) + len(corpus.publications) + len(corpus.citations)
        if total_records > 50:
            failures.append(f"seed {seed}: corpus too large ({total_records})")
            continue
        for method in (INTEGER, FRACTIONAL):
            expected = brute_force_values(
                corpus, ORACLE_KINDS, method, PUB_WINDOW, CITATION_WINDOW, settings
            )
            table = indicator_matrix(
                corpus, ORACLE_KINDS, [method], PUB_WINDOW, CITATION_WINDOW, settings
            )
            for (rid, _), values in table.items():
                for kind, value in values.items():
                    if abs(value - expected[rid][kind]) > 1e-12:
                        failures.append(
                            f"oracle mismatch: seed {seed} {rid} "
                            f"{kind.value}/{method.value}"
                        )

    elapsed = perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"property battery took {elapsed:.1f}s (limit 60s)")
    _finish(f"criterion 4 (property suite, {elapsed:.1f}s)", failures)


def test_criterion_5_synthetic_end_to_end():
    failures: list[str] = []
    config = section_config()
    for seed in range(1, 11):
        spec = default_spec(seed=seed)
        corpus = generate_corpus(spec)
        stats = corpus_stats(corpus, spec.pub_window, list(DISCIPLINES))
        for discipline, (pubs, multi, mean) in COAUTHORSHIP_PROFILE.items():
            row = stats[discipline]
            target_ratio = multi / pubs * 100.0
            if abs(row.multi_ratio - target_ratio) > 0.05 * target_ratio:
                failures.append(
                    f"seed {seed} {discipline}: multi ratio {row.multi_ratio:.2f} "
                    f"vs target {target_ratio:.2f}"
                )
            realized_mean = row.avg_coauthors_per_multi
            if realized_mean is None or abs(realized_mean - mean) > 0.05 * mean:
                failures.append(
                    f"seed {seed} {discipline}: mean co-authors {realized_mean} vs target {mean}"
                )
        performance = discipline_performance(corpus, DISCIPLINES, config, spec.pub_window, spec.citation_window,
                                             CountingSettings())
        apvs = {cell: p.apv for cell, p in performance.items()}
        rows = recalibrate_all(apvs, DISCIPLINES, CURRENT_MINIMUMS, config)
        _recalibration_invariants(rows, DEFAULT_T, failures, tag=f"seed {seed} ")
    _finish("criterion 5 (synthetic corpora, seeds 1-10)", failures)


def test_criterion_6_evaluation_sharpness(tmp_path, capsys):
    failures: list[str] = []
    table = ThresholdTable("current", dict(CURRENT_MINIMUMS))
    corpus = social_geography_dossier()
    kinds = table.required_kinds("social_geography")
    values = indicator_matrix(corpus, kinds, [INTEGER], PUB_WINDOW, CITATION_WINDOW)["cand", INTEGER]

    result = evaluate_candidate("cand", INTEGER, values, "social_geography", table)
    if not result.overall_fulfilled:
        failures.append("exact-minimum dossier not fulfilled")
    for score in result.scores:
        if abs(score.score - 1.0) > 1e-12:
            failures.append(f"{score.kind.value}: score {score.score!r} != 1.0")

    # knocking any single indicator down one unit must flip the outcome
    for kind in kinds:
        reduced = dict(values)
        reduced[kind] -= 1.0
        weakened = evaluate_candidate(
            "cand",
            INTEGER,
            reduced,
            "social_geography",
            table,
        )
        if weakened.overall_fulfilled:
            failures.append(f"reducing {kind.value} by one did not flip fulfillment")

    # end-to-end through the command line: exit 0 exactly at the minimums,
    # nonzero once a citation is removed
    paths = [tmp_path / n for n in ("r.csv", "p.csv", "c.csv")]
    save_corpus(corpus, *paths)
    code = cli_main(["evaluate", *map(str, paths), "--researcher", "cand"])
    if code != 0:
        failures.append(f"CLI exit code {code} for the exact dossier")
    lines = paths[2].read_text().splitlines()
    paths[2].write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code = cli_main(["evaluate", *map(str, paths), "--researcher", "cand"])
    if code == 0:
        failures.append("CLI exit code 0 after removing a citation")
    capsys.readouterr()  # swallow the CLI documents
    _finish("criterion 6 (evaluation sharpness)", failures)
