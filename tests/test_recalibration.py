from __future__ import annotations


import pytest
from hypothesis import given, settings, strategies as st

from recal.counting import CountingMethod, IndicatorKind
from recal.recalibration import (
    DegenerateDisciplineError,
    DisciplinePerformance,
    MissingBaseRowError,
    MissingCmvError,
    RecalibrationConfig,
    RecalibrationError,
    RoundingMode,
    derived_scaled_minimums,
    dsdr,
    mean_years,
    read_apv_table,
    recalibrate_all,
    recalibrated_minimum,
    round_minimum,
    top_quartile_apv,
    write_apv_table,
    years_to_fulfill,
)
from recal.defaults import CURRENT_MINIMUMS, DEFAULT_T, DISCIPLINES

import reference_section as ref

INTEGER = CountingMethod.INTEGER
FRACTIONAL = CountingMethod.FRACTIONAL
K = IndicatorKind


def section_config(**overrides) -> RecalibrationConfig:
    params = dict(
        disciplines=tuple(DISCIPLINES),
        cmv=CURRENT_MINIMUMS,
        t=DEFAULT_T,
    )
    params.update(overrides)
    return RecalibrationConfig(**params)


def rows_by_cell(rows):
    return {(r.discipline, r.kind, r.method): r for r in rows}


# --------------------------------------------------------------------------
# Top-quartile selection

def test_top_quartile_32_values_selects_8():
    values = {f"r{i:02d}": float(i) for i in range(32)}
    apv, selected = top_quartile_apv(values, 0.25)
    assert selected == 8
    assert apv == pytest.approx(sum(range(24, 32)) / 8)


def test_top_quartile_clamps_to_one():
    apv, selected = top_quartile_apv({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0}, 0.25)
    assert (apv, selected) == (4.0, 1)


def test_top_quartile_sort_and_mean():
    values = [10.0, 10.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    apv, selected = top_quartile_apv({f"r{i}": v for i, v in enumerate(values)}, 0.25)
    assert (apv, selected) == (10.0, 2)


def test_top_quartile_order_independent():
    values = {"b": 5.0, "a": 5.0, "c": 1.0, "d": 9.0}
    shuffled = dict(sorted(values.items(), reverse=True))
    assert top_quartile_apv(values, 0.5) == top_quartile_apv(shuffled, 0.5)


# --------------------------------------------------------------------------
# Scalar operations

def test_years_to_fulfill_published_examples():
    assert years_to_fulfill(30, 48.769, 5) == pytest.approx(3.076, abs=5e-4)
    assert years_to_fulfill(30, 30.900, 5) == pytest.approx(4.854, abs=5e-4)


def test_years_to_fulfill_identity_and_errors():
    assert years_to_fulfill(7.0, 7.0, 5.0) == 5.0


def test_dsdr_published_current_shares():
    cmvs = {d: ref.APV[(K.PUBLICATIONS, INTEGER)][d] for d in ref.DISCIPLINES}
    current = dsdr({d: CURRENT_MINIMUMS[(d, K.PUBLICATIONS)] for d in ref.DISCIPLINES})
    assert current["geology"] == pytest.approx(0.107143, abs=5e-6)
    assert current["geodesy"] == pytest.approx(0.107143, abs=5e-6)
    actual = dsdr(cmvs)
    assert actual["geology"] == pytest.approx(0.127070, abs=5e-6)
    assert actual["geodesy"] == pytest.approx(0.080511, abs=5e-6)


def test_dsdr_symmetry_and_errors():
    nine = {f"d{i}": 4.2 for i in range(9)}
    shares = dsdr(nine)
    assert all(v == pytest.approx(1 / 9) for v in shares.values())


def test_mean_years_published_columns():
    t = 5.0
    for kind, expected in ((K.PUBLICATIONS, 3.711), (K.INDEPENDENT_CITATIONS, 8.110)):
        years = {
            d: years_to_fulfill(CURRENT_MINIMUMS[(d, kind)], ref.APV[(kind, INTEGER)][d], t)
            for d in ref.DISCIPLINES
        }
        assert mean_years(years) == pytest.approx(expected, abs=5e-4)
    assert mean_years({"a": 3.3, "b": 3.3}) == pytest.approx(3.3)


def test_recalibrated_minimum_published_examples():
    y_geology = years_to_fulfill(30, 48.769, 5)
    assert recalibrated_minimum(30, 3.711, y_geology) == pytest.approx(36.197, abs=5e-3)
    y_social_fc = years_to_fulfill(40, 26.053, 5)
    assert recalibrated_minimum(40, 3.711, y_social_fc) == pytest.approx(19.337, abs=5e-3)
    assert recalibrated_minimum(12.0, 4.0, 4.0) == 12.0


def test_round_minimum_published_cases():
    assert round_minimum(2.521, K.CUMULATIVE_IF, INTEGER) == 3
    assert round_minimum(22.934, K.PUBLICATIONS, INTEGER) == 23
    assert round_minimum(0.916, K.CUMULATIVE_IF, FRACTIONAL) is None
    assert round_minimum(13.478, K.PUBLICATIONS, FRACTIONAL) == 13


def test_round_minimum_half_away_from_zero_and_none_mode():
    assert round_minimum(0.5, K.PUBLICATIONS, INTEGER) == 1
    assert round_minimum(2.5, K.PUBLICATIONS, INTEGER) == 3
    assert round_minimum(2.4999999, K.PUBLICATIONS, INTEGER) == 2
    assert round_minimum(7.7, K.PUBLICATIONS, INTEGER, RoundingMode.NONE) is None


# --------------------------------------------------------------------------
# Full pipeline, fixture mode

def test_recalibrate_published_spot_checks():
    rows = rows_by_cell(recalibrate_all(ref.apv_table(), section_config()))
    cell = rows[("geochemistry", K.CUMULATIVE_IF, INTEGER)]
    assert cell.rmv_raw == pytest.approx(14.840, abs=5e-3)
    assert cell.y_m == pytest.approx(1.430, abs=5e-3)
    assert rows[("social_geography", K.CUMULATIVE_IF, INTEGER)].rmv_raw == pytest.approx(1.174, abs=5e-3)
    mining = rows[("mining", K.INDEPENDENT_CITATIONS, INTEGER)]
    assert mining.y_i == pytest.approx(9.543, abs=5e-3)
    assert mining.rmv_raw == pytest.approx(101.983, abs=5e-3)


def test_recalibrate_uniform_table_is_symmetric():
    disciplines = tuple(f"d{i}" for i in range(4))
    config = RecalibrationConfig(
        disciplines=disciplines,
        cmv={(d, K.PUBLICATIONS): 30.0 for d in disciplines},
        t={K.PUBLICATIONS: 5.0},
        ym_decimals=None,  # the identity RMV == CMV is exact for the exact mean
    )
    table = {
        (d, K.PUBLICATIONS, m): 45.0 for d in disciplines for m in (INTEGER, FRACTIONAL)
    }
    for row in recalibrate_all(table, config):
        assert row.rmv_raw == pytest.approx(row.cmv, rel=1e-12)
        assert row.dsdr_current == pytest.approx(0.25)
        assert row.dsdr_actual == pytest.approx(0.25)
    # with presentation quantization of y_m the identity still holds to ~1e-3
    quantized = RecalibrationConfig(
        disciplines=disciplines, cmv=config.cmv, t={K.PUBLICATIONS: 5.0}
    )
    for row in recalibrate_all(table, quantized):
        assert row.rmv_raw == pytest.approx(row.cmv, rel=1e-3)


def test_recalibrate_rejects_missing_or_degenerate_apv():
    config = section_config()
    table = ref.apv_table()
    del table[("mining", K.PUBLICATIONS, INTEGER)]
    with pytest.raises(RecalibrationError, match="mining"):
        recalibrate_all(table, config)
    table = ref.apv_table()
    table[("mining", K.PUBLICATIONS, INTEGER)] = 0.0
    with pytest.raises(DegenerateDisciplineError):
        recalibrate_all(table, config)


def test_config_requires_complete_cmv_coverage():
    with pytest.raises(MissingCmvError):
        RecalibrationConfig(
            disciplines=("a", "b"),
            cmv={("a", K.PUBLICATIONS): 30.0},
            t={K.PUBLICATIONS: 5.0},
        )


def test_apv_table_round_trip(tmp_path):
    for table in (ref.apv_table(), {('a,"b" földtan', K.PUBLICATIONS, INTEGER): 0.1 + 0.2}):
        for path, fmt in ((tmp_path / "apv.csv", "dsv"), (tmp_path / "apv.jsonl", "jsonl")):
            performance = [DisciplinePerformance(*cell, apv, 8, 2) for cell, apv in table.items()]
            write_apv_table(performance, path, fmt)
            assert read_apv_table(path) == table


def test_apv_table_quotes_dsv_cells_and_writes_utf8_jsonl(tmp_path):
    cell = [DisciplinePerformance('a,"b" földtan', K.PUBLICATIONS, INTEGER, 1.5, 8, 2)]
    write_apv_table(cell, tmp_path / "apv.csv")
    write_apv_table(cell, tmp_path / "apv.jsonl", "jsonl")
    assert (tmp_path / "apv.csv").read_bytes() == (
        'discipline,kind,method,apv,population,selected\n'
        '"a,""b"" földtan",publications,integer,1.5,8,2\n'
    ).encode("utf-8")
    assert (tmp_path / "apv.jsonl").read_bytes() == (
        '{"discipline": "a,\\"b\\" földtan", "kind": "publications", "method": "integer",'
        ' "apv": "1.5", "population": "8", "selected": "2"}\n'
    ).encode("utf-8")


# --------------------------------------------------------------------------
# Derived scaling

def test_derived_scaling_published_examples():
    rows = recalibrate_all(ref.apv_table(), section_config())
    derived = derived_scaled_minimums(
        rows,
        {
            ("geology", K.FIRST_AUTHOR_PUBLICATIONS): 15.0,
            ("geochemistry", K.FIRST_AUTHOR_PUBLICATIONS): 15.0,
            ("social_geography", K.FOREIGN_LANGUAGE_PUBLICATIONS): 35.0,
        },
    )
    raw, rounded = derived[("geology", K.FIRST_AUTHOR_PUBLICATIONS)]
    assert raw == pytest.approx(18.10, abs=5e-3)
    assert rounded == 18
    raw, rounded = derived[("geochemistry", K.FIRST_AUTHOR_PUBLICATIONS)]
    assert raw == pytest.approx(16.03, abs=5e-3)
    assert rounded == 16
    # 30.51 was printed from the 3-decimal base 34.863; the pipeline carries
    # full precision, so allow the last-digit wobble.
    raw, rounded = derived[("social_geography", K.FOREIGN_LANGUAGE_PUBLICATIONS)]
    assert raw == pytest.approx(30.51, abs=1e-2)
    assert rounded == 31


def test_derived_scaling_requires_base():
    rows = recalibrate_all(ref.apv_table(), section_config())
    with pytest.raises(MissingBaseRowError):
        derived_scaled_minimums(rows, {("geology", K.WOS_INDEPENDENT_CITATIONS): 50.0})
    config = section_config(t={K.CUMULATIVE_IF: 5.0})
    if_only_rows = recalibrate_all(ref.apv_table(), config)
    with pytest.raises(MissingBaseRowError):
        derived_scaled_minimums(if_only_rows, {("geology", K.FIRST_AUTHOR_PUBLICATIONS): 15.0})


# --------------------------------------------------------------------------
# Algebraic properties

def random_apv_tables():
    value = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
    disciplines = ("alpha", "beta", "gamma", "delta")
    return st.fixed_dictionaries(
        {
            (d, K.PUBLICATIONS, m): value
            for d in disciplines
            for m in (INTEGER, FRACTIONAL)
        }
    ).map(lambda table: (disciplines, table))


def tiny_config(disciplines, cmv_values, t=5.0, **overrides):
    return RecalibrationConfig(
        disciplines=disciplines,
        cmv={(d, K.PUBLICATIONS): cmv_values[i] for i, d in enumerate(disciplines)},
        t={K.PUBLICATIONS: t},
        **overrides,
    )


@given(random_apv_tables(), st.lists(st.floats(min_value=1, max_value=200), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_recalibration_identities(table_data, cmv_values):
    disciplines, table = table_data
    config = tiny_config(disciplines, cmv_values)
    rows = recalibrate_all(table, config)
    for method in (INTEGER, FRACTIONAL):
        subset = [r for r in rows if r.method is method]
        assert sum(r.dsdr_current for r in subset) == pytest.approx(1.0, abs=1e-9)
        assert sum(r.dsdr_actual for r in subset) == pytest.approx(1.0, abs=1e-9)
        total_rmv = sum(r.rmv_raw for r in subset)
        for r in subset:
            # closed form and share identities
            assert r.rmv_raw == pytest.approx(r.apv * r.y_m / 5.0, rel=1e-9)
            assert r.rmv_raw / total_rmv == pytest.approx(r.dsdr_actual, abs=1e-9)
            # equal-time: everyone reaches their recalibrated minimum in y_m years
            assert r.rmv_raw / r.apv * 5.0 == pytest.approx(r.y_m, rel=1e-9)


@given(
    random_apv_tables(),
    st.lists(st.floats(min_value=1, max_value=200), min_size=4, max_size=4),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_t_invariance_with_exact_mean(table_data, cmv_values, factor):
    disciplines, table = table_data
    base = tiny_config(disciplines, cmv_values, ym_decimals=None)
    scaled = tiny_config(disciplines, cmv_values, t=5.0 * factor, ym_decimals=None)
    rows_base = rows_by_cell(recalibrate_all(table, base))
    rows_scaled = rows_by_cell(recalibrate_all(table, scaled))
    for cell, row in rows_base.items():
        other = rows_scaled[cell]
        assert other.rmv_raw == pytest.approx(row.rmv_raw, rel=1e-9)
        assert other.y_i == pytest.approx(row.y_i * factor, rel=1e-9)
        assert other.y_m == pytest.approx(row.y_m * factor, rel=1e-9)


def test_scale_equivariance_of_one_discipline():
    disciplines = ("alpha", "beta", "gamma")
    config = RecalibrationConfig(
        disciplines=disciplines,
        cmv={(d, K.PUBLICATIONS): 30.0 for d in disciplines},
        t={K.PUBLICATIONS: 5.0},
    )
    table = {
        (d, K.PUBLICATIONS, m): apv
        for d, apv in (("alpha", 20.0), ("beta", 35.0), ("gamma", 50.0))
        for m in (INTEGER, FRACTIONAL)
    }
    boosted = dict(table)
    for m in (INTEGER, FRACTIONAL):
        boosted[("beta", K.PUBLICATIONS, m)] *= 1.6
    before = rows_by_cell(recalibrate_all(table, config))
    after = rows_by_cell(recalibrate_all(boosted, config))
    for m in (INTEGER, FRACTIONAL):
        assert after[("beta", K.PUBLICATIONS, m)].apv > before[("beta", K.PUBLICATIONS, m)].apv
        assert after[("beta", K.PUBLICATIONS, m)].dsdr_actual > before[("beta", K.PUBLICATIONS, m)].dsdr_actual
        assert after[("beta", K.PUBLICATIONS, m)].rmv_raw > before[("beta", K.PUBLICATIONS, m)].rmv_raw
        for other in ("alpha", "gamma"):
            assert after[(other, K.PUBLICATIONS, m)].dsdr_actual < before[(other, K.PUBLICATIONS, m)].dsdr_actual


def test_fractional_rows_share_integer_mean_years():
    rows = rows_by_cell(recalibrate_all(ref.apv_table(), section_config()))
    for kind in (K.PUBLICATIONS, K.WOS_ARTICLES, K.INDEPENDENT_CITATIONS, K.CUMULATIVE_IF):
        for d in ref.DISCIPLINES:
            assert rows[(d, kind, FRACTIONAL)].y_m == rows[(d, kind, INTEGER)].y_m
