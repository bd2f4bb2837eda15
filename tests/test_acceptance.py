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
    publication_credit,
)
from recal.defaults import COAUTHORSHIP_PROFILE, CURRENT_MINIMUMS, DEFAULT_T, DISCIPLINES
from recal.evaluation import ThresholdTable, evaluate_candidate
from recal.recalibration import (
    MissingBaseRowError,
    RecalibrationConfig,
    derived_scaled_minimums,
    discipline_performance,
    performance_as_table,
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
    params = dict(disciplines=tuple(DISCIPLINES), cmv=CURRENT_MINIMUMS, t=DEFAULT_T)
    params.update(overrides)
    return RecalibrationConfig(**params)


def _finish(label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} issue(s))"
    print(f"{label}: {status}")
    for failure in failures:
        print(f"    {failure}")
    assert not failures


def _recalibration_invariants(rows, t_by_kind, failures, tag=""):
    """The shared invariant battery over a set of recalibration rows."""
    kinds = {r.kind for r in rows}
    for kind in kinds:
        for method in (INTEGER, FRACTIONAL):
            subset = [r for r in rows if r.kind is kind and r.method is method]
            if abs(sum(r.dsdr_current for r in subset) - 1.0) > 1e-9:
                failures.append(f"{tag}{kind.value}/{method.value}: current DSDRs do not sum to 1")
            if abs(sum(r.dsdr_actual for r in subset) - 1.0) > 1e-9:
                failures.append(f"{tag}{kind.value}/{method.value}: actual DSDRs do not sum to 1")
            total_rmv = sum(r.rmv_raw for r in subset)
            t = t_by_kind[kind]
            for r in subset:
                if abs(r.rmv_raw - r.apv * r.y_m / t) > 1e-9 * max(1.0, abs(r.rmv_raw)):
                    failures.append(f"{tag}{r.discipline}/{kind.value}/{method.value}: closed form mismatch")
                if abs(r.rmv_raw / total_rmv - r.dsdr_actual) > 1e-9:
                    failures.append(f"{tag}{r.discipline}/{kind.value}/{method.value}: RMV share != actual DSDR")
                if abs(r.rmv_raw / r.apv * t - r.y_m) > 1e-9 * max(1.0, r.y_m):
                    failures.append(f"{tag}{r.discipline}/{kind.value}/{method.value}: equal-time broken")


# --------------------------------------------------------------------------

def test_criterion_1_golden_pipeline_reproduction():
    start = perf_counter()
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), section_config())
    elapsed = perf_counter() - start

    failures: list[str] = []
    by_cell = {(r.discipline, r.kind, r.method): r for r in rows}
    if len(rows) != 9 * 4 * 2:
        failures.append(f"expected 72 rows, got {len(rows)}")

    for (kind, method), cells in ref.YEARS_PUBLISHED.items():
        for discipline, published in cells.items():
            y_i = by_cell[(discipline, kind, method)].y_i
            if abs(y_i - published) > 0.005:
                failures.append(f"Y_i {discipline}/{kind.value}/{method.value}: {y_i:.4f} vs {published}")

    for kind, published in ref.MEAN_YEARS_PUBLISHED.items():
        y_m = by_cell[("geology", kind, INTEGER)].y_m
        if abs(y_m - published) > 0.005:
            failures.append(f"Y_m {kind.value}: {y_m:.4f} vs {published}")

    for (kind, method), cells in ref.RMV_RAW_PUBLISHED.items():
        for discipline, published in cells.items():
            raw = by_cell[(discipline, kind, method)].rmv_raw
            if abs(raw - published) > 0.005:
                failures.append(f"RMV {discipline}/{kind.value}/{method.value}: {raw:.4f} vs {published}")

    rounded_checked = 0
    for kind in CORE:
        for discipline, published in ref.RMV_ROUNDED_PUBLISHED[(kind, INTEGER)].items():
            rounded = by_cell[(discipline, kind, INTEGER)].rmv_rounded
            rounded_checked += 1
            if rounded != published:
                failures.append(f"rounded RMV {discipline}/{kind.value}: {rounded} vs {published}")
    if rounded_checked != 36:
        failures.append(f"expected 36 rounded integer cells, checked {rounded_checked}")

    if elapsed >= 1.0:
        failures.append(f"fixture pipeline took {elapsed:.3f}s (limit 1s)")
    _finish("criterion 1 (golden pipeline reproduction, fixture mode)", failures)


def test_criterion_2_dsdr_reproduction():
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), section_config())
    by_cell = {(r.discipline, r.kind, r.method): r for r in rows}
    failures = []
    checks = [
        ("geology", "dsdr_current", 0.107143),
        ("geodesy", "dsdr_current", 0.107143),
        ("geology", "dsdr_actual", 0.127070),
        ("geodesy", "dsdr_actual", 0.080511),
    ]
    for discipline, attribute, published in checks:
        value = getattr(by_cell[(discipline, K.PUBLICATIONS, INTEGER)], attribute)
        if abs(value - published) > 5e-6:
            failures.append(f"{attribute} {discipline}: {value:.7f} vs {published}")
    _finish("criterion 2 (publication DSDR reproduction)", failures)


def test_criterion_3_derived_scaling_matches_published_table(capsys):
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), section_config())
    derived_cmv = {
        (discipline, kind): CURRENT_MINIMUMS[(discipline, kind)]
        for kind in ref.DERIVED_PUBLISHED
        for discipline in ref.DERIVED_PUBLISHED[kind]
    }
    derived = derived_scaled_minimums(rows, derived_cmv)

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
    try:
        derived_scaled_minimums(rows, {("geology", K.WOS_INDEPENDENT_CITATIONS): 50.0})
        failures.append("WoS-citation row unexpectedly derivable")
    except MissingBaseRowError:
        print("    wos_independent_citations: correctly reported non-derivable")
    _finish("criterion 3 (proportional scaling of derived indicators)", failures)


def test_criterion_4_property_suite():
    start = perf_counter()
    failures: list[str] = []

    # credit conservation at 1e-12
    from recal.corpus import PublicationRecord, PubType

    for n in [1, 2, 3, 7, 64, 499, 5000]:
        pub = PublicationRecord(
            "p", 2015, PubType.JOURNAL_ARTICLE, "en", False, False, None,
            tuple(f"a{i}" for i in range(n)), "geology",
        )
        total = sum(publication_credit(pub, a, FRACTIONAL) for a in pub.author_ids)
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
    rows = recalibrate_all(read_apv_table(APV_TABLE_PATH), section_config())
    _recalibration_invariants(rows, DEFAULT_T, failures, tag="fixture ")

    # t-invariance of raw RMVs (exact mean)
    for c in (0.5, 2.0, 7.25):
        base = recalibrate_all(
            read_apv_table(APV_TABLE_PATH), section_config(ym_decimals=None)
        )
        scaled = recalibrate_all(
            read_apv_table(APV_TABLE_PATH),
            section_config(ym_decimals=None, t={k: v * c for k, v in DEFAULT_T.items()}),
        )
        for r_base, r_scaled in zip(base, scaled):
            if abs(r_scaled.rmv_raw - r_base.rmv_raw) > 1e-9 * max(1.0, r_base.rmv_raw):
                failures.append(
                    f"t-invariance broken at c={c}: {r_base.discipline}/{r_base.kind.value}"
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
            vectors = indicator_matrix(
                corpus, ORACLE_KINDS, [method], PUB_WINDOW, CITATION_WINDOW, settings
            )
            for vector in vectors:
                for kind, value in vector.values.items():
                    if abs(value - expected[vector.researcher_id][kind]) > 1e-12:
                        failures.append(
                            f"oracle mismatch: seed {seed} {vector.researcher_id} "
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
            row = stats.per_discipline[discipline]
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
        performance = discipline_performance(corpus, config, spec.pub_window, spec.citation_window)
        rows = recalibrate_all(performance_as_table(performance), config)
        _recalibration_invariants(rows, DEFAULT_T, failures, tag=f"seed {seed} ")
    _finish("criterion 5 (synthetic corpora, seeds 1-10)", failures)


def test_criterion_6_evaluation_sharpness(tmp_path, capsys):
    failures: list[str] = []
    table = ThresholdTable("current", dict(CURRENT_MINIMUMS))
    corpus = social_geography_dossier()
    kinds = table.required_kinds("social_geography")
    vector = indicator_matrix(corpus, kinds, [INTEGER], PUB_WINDOW, CITATION_WINDOW)[0]

    result = evaluate_candidate(vector, "social_geography", table)
    if not result.overall_fulfilled:
        failures.append("exact-minimum dossier not fulfilled")
    for score in result.scores:
        if abs(score.score - 1.0) > 1e-12:
            failures.append(f"{score.kind.value}: score {score.score!r} != 1.0")

    # knocking any single indicator down one unit must flip the outcome
    for kind in kinds:
        reduced = dict(vector.values)
        reduced[kind] -= 1.0
        weakened = evaluate_candidate(
            type(vector)(vector.researcher_id, vector.method, reduced),
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
