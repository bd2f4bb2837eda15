from __future__ import annotations

import math
from dataclasses import fields, replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from recal.config import ConfigError, default_config
from recal.counting import CountingMethod, CountingSettings, IndicatorKind
from recal.recalibration import (
    DEFAULT_BASE_KINDS,
    DegenerateDisciplineError,
    DisciplinePerformance,
    MissingApvError,
    RecalibrationConfig,
    RecalibrationError,
    RecalibrationRow,
    RoundingMode,
    derived_scaled_minimums,
    discipline_performance,
    dsdr,
    mean_years,
    read_apv_table,
    recalibrate_all,
    recalibrated_minimum,
    round_minimum,
    top_quartile_apv,
    write_apv_table,
    write_recalibration_rows,
    years_to_fulfill,
)
from recal.defaults import CURRENT_MINIMUMS, DEFAULT_T, DISCIPLINES

import reference_section as ref
from conftest import CITATION_WINDOW, PUB_WINDOW, publication, researcher, small_corpus

INTEGER = CountingMethod.INTEGER
FRACTIONAL = CountingMethod.FRACTIONAL
K = IndicatorKind
HALF_UP = RoundingMode.HALF_AWAY_FROM_ZERO


def section_config(**overrides) -> RecalibrationConfig:
    return RecalibrationConfig(**{"t": DEFAULT_T, **overrides})


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


@pytest.mark.parametrize("top_fraction, n, expected", [
    (0.29, 100, 29), (0.35, 180, 63), (0.7, 90, 63), (0.7, 170, 119), (0.25, 569, 142), (0.1, 9, 1),
])
def test_top_quartile_size_is_the_floor_of_the_decimal_product(top_fraction, n, expected):
    # 0.29 * 100 is 28.999999999999996 in binary floating point
    values = {f"r{i:04d}": float(i) for i in range(n)}
    apv, selected = top_quartile_apv(values, top_fraction)
    assert (apv, selected) == (sum(range(n - expected, n)) / expected, expected)


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
    assert round_minimum(2.521, K.CUMULATIVE_IF, INTEGER, HALF_UP) == 3
    assert round_minimum(22.934, K.PUBLICATIONS, INTEGER, HALF_UP) == 23
    assert round_minimum(0.916, K.CUMULATIVE_IF, FRACTIONAL, HALF_UP) is None
    assert round_minimum(13.478, K.PUBLICATIONS, FRACTIONAL, HALF_UP) == 13


def test_round_minimum_half_away_from_zero_and_none_mode():
    assert round_minimum(0.5, K.PUBLICATIONS, INTEGER, HALF_UP) == 1
    assert round_minimum(2.5, K.PUBLICATIONS, INTEGER, HALF_UP) == 3
    assert round_minimum(2.4999999, K.PUBLICATIONS, INTEGER, HALF_UP) == 2
    assert round_minimum(7.7, K.PUBLICATIONS, INTEGER, RoundingMode.NONE) is None


# --------------------------------------------------------------------------
# Full pipeline, fixture mode

def test_recalibrate_published_spot_checks():
    rows = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    cell = rows[("geochemistry", K.CUMULATIVE_IF, INTEGER)]
    assert cell.rmv_raw == pytest.approx(14.840, abs=5e-3)
    assert cell.y_m == pytest.approx(1.430, abs=5e-3)
    assert rows[("social_geography", K.CUMULATIVE_IF, INTEGER)].rmv_raw == pytest.approx(1.174, abs=5e-3)
    mining = rows[("mining", K.INDEPENDENT_CITATIONS, INTEGER)]
    assert mining.y_i == pytest.approx(9.543, abs=5e-3)
    assert mining.rmv_raw == pytest.approx(101.983, abs=5e-3)


def test_recalibrate_uniform_table_is_symmetric():
    disciplines = tuple(f"d{i}" for i in range(4))
    cmv = {(d, K.PUBLICATIONS): 30.0 for d in disciplines}
    config = RecalibrationConfig(
        t={K.PUBLICATIONS: 5.0},
        ym_decimals=None,  # the identity RMV == CMV is exact for the exact mean
    )
    table = {
        (d, K.PUBLICATIONS, m): 45.0 for d in disciplines for m in (INTEGER, FRACTIONAL)
    }
    for row in recalibrate_all(table, disciplines, cmv, config).values():
        assert row.rmv_raw == pytest.approx(row.cmv, rel=1e-12)
        assert row.dsdr_current == pytest.approx(0.25)
        assert row.dsdr_actual == pytest.approx(0.25)
    # with presentation quantization of y_m the identity still holds to ~1e-3
    quantized = RecalibrationConfig(t={K.PUBLICATIONS: 5.0})
    for row in recalibrate_all(table, disciplines, cmv, quantized).values():
        assert row.rmv_raw == pytest.approx(row.cmv, rel=1e-3)


def test_recalibrate_rejects_missing_or_degenerate_apv():
    config = section_config()
    table = ref.apv_table()
    del table[("mining", K.PUBLICATIONS, INTEGER)]
    with pytest.raises(MissingApvError, match=r"^no APV for \(mining, publications, integer\)$"):
        recalibrate_all(table, DISCIPLINES, CURRENT_MINIMUMS, config)
    table = ref.apv_table()
    table[("mining", K.PUBLICATIONS, INTEGER)] = 0.0
    with pytest.raises(DegenerateDisciplineError):
        recalibrate_all(table, DISCIPLINES, CURRENT_MINIMUMS, config)


def test_recalibrate_refuses_a_cell_with_no_cmv():
    config = RecalibrationConfig(t={K.PUBLICATIONS: 5.0})
    with pytest.raises(RecalibrationError, match=r"^no CMV for \(mining, publications\)$"):
        recalibrate_all(ref.apv_table(), ("geology", "mining"), {("geology", K.PUBLICATIONS): 30.0}, config)


@pytest.mark.parametrize("years", [math.nan, math.inf, 0.0, -1.0])
def test_recalibration_config_refuses_a_t_that_is_not_finite_and_positive(years):
    with pytest.raises(RecalibrationError) as caught:
        RecalibrationConfig(t={K.PUBLICATIONS: 5.0, K.WOS_ARTICLES: years})
    assert str(caught.value) == f"t for wos_articles must be a finite positive number, got {years}"


@pytest.mark.parametrize("t, keys", [
    ({"publications": 5.0}, "'publications'"),
    ({"publications": -1.0}, "'publications'"),  # the value's refusal would name the key by its .value
    ({K.PUBLICATIONS: 5.0, 3: 5.0, "h_index": 1.0}, "3, 'h_index'"),
])
def test_recalibration_config_refuses_a_t_key_that_is_not_a_kind(t, keys):
    with pytest.raises(RecalibrationError) as caught:
        RecalibrationConfig(t=t)
    assert str(caught.value) == f"t keys must be IndicatorKind members, got {keys}"


@pytest.mark.parametrize("knob, value, problem", [
    ("rounding", "none", "rounding must be a RoundingMode member, got 'none'"),
    ("ym_source_method", "integer", "ym_source_method must be a CountingMethod member, got 'integer'"),
    ("top_fraction", True, "top_fraction must be a number in (0, 1], got True"),
    ("top_fraction", Decimal("0.25"), "top_fraction must be a number in (0, 1], got Decimal('0.25')"),
    ("top_fraction", 2, "top_fraction must be a number in (0, 1], got 2"),
    ("t", {K.PUBLICATIONS: True}, "t for publications must be a finite positive number, got True"),
    ("t", {K.PUBLICATIONS: "5"}, "t for publications must be a finite positive number, got '5'"),
])
def test_recalibration_config_refuses_a_knob_of_the_wrong_type(knob, value, problem):
    # a string equal to an enum value is no member: "none" would still round; True would count as one year
    with pytest.raises(RecalibrationError) as caught:
        section_config(**{knob: value})
    assert str(caught.value) == problem


def test_config_requires_complete_cmv_coverage():
    config = default_config()
    with pytest.raises(ConfigError, match=r"^no CMV for \(b, publications\)$"):
        replace(
            config,
            disciplines={"a": "a", "b": "b"},
            current_minimums={("a", K.PUBLICATIONS): 30.0},
            recalibration=RecalibrationConfig(t={K.PUBLICATIONS: 5.0}),
        )


def test_apv_table_round_trip(tmp_path):
    for table in (ref.apv_table(), {('a,"b" földtan', K.PUBLICATIONS, INTEGER): 0.1 + 0.2}):
        for path, fmt in ((tmp_path / "apv.csv", "dsv"), (tmp_path / "apv.jsonl", "jsonl")):
            performance = {cell: DisciplinePerformance(apv, 8, 2) for cell, apv in table.items()}
            write_apv_table(performance, path, fmt)
            assert read_apv_table(path) == table


def test_apv_table_quotes_dsv_cells_and_writes_utf8_jsonl(tmp_path):
    cell = {('a,"b" földtan', K.PUBLICATIONS, INTEGER): DisciplinePerformance(1.5, 8, 2)}
    write_apv_table(cell, tmp_path / "apv.csv", "dsv")
    write_apv_table(cell, tmp_path / "apv.jsonl", "jsonl")
    assert (tmp_path / "apv.csv").read_bytes() == (
        'discipline,kind,method,apv,population,selected\n'
        '"a,""b"" földtan",publications,integer,1.5,8,2\n'
    ).encode("utf-8")
    assert (tmp_path / "apv.jsonl").read_bytes() == (
        '{"discipline": "a,\\"b\\" földtan", "kind": "publications", "method": "integer",'
        ' "apv": "1.5", "population": "8", "selected": "2"}\n'
    ).encode("utf-8")


@pytest.mark.parametrize("discipline, problem", [
    (" geology", "reads back as ('geology', publications, integer) with 1.5"),
    ("", "bad APV row: column 'discipline' is empty"),
    ("geo\ud800", "bad APV row: column 'discipline': 'geo\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
], ids=["padded", "empty", "surrogate"])
@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
def test_apv_table_refuses_a_discipline_the_reader_would_change(tmp_path, fmt, discipline, problem):
    performance = {
        ("mining", K.PUBLICATIONS, INTEGER): DisciplinePerformance(2.5, 8, 2),
        (discipline, K.PUBLICATIONS, INTEGER): DisciplinePerformance(1.5, 8, 2),
    }
    path = tmp_path / "apv"
    with pytest.raises(RecalibrationError) as caught:
        write_apv_table(performance, path, fmt)
    assert str(caught.value) == f"row 2 ({discipline!r}, publications, integer): {problem}"
    assert not path.exists()


@pytest.mark.parametrize("name, fmt, read_as", [
    ("apv", "jsonl", "dsv"), ("apv.csv", "jsonl", "dsv"), ("apv.json", "dsv", "jsonl"), ("apv.NDJSON", "dsv", "jsonl"),
])
def test_apv_table_refuses_a_path_the_reader_would_read_in_the_other_format(tmp_path, name, fmt, read_as):
    path = tmp_path / name
    with pytest.raises(RecalibrationError) as caught:
        write_apv_table({("mining", K.PUBLICATIONS, INTEGER): DisciplinePerformance(2.5, 8, 2)}, path, fmt)
    assert str(caught.value) == (f"{path}: the readers would read it as {read_as}, not {fmt}: "
                                 "a .jsonl, .ndjson, .json suffix means jsonl, any other dsv")
    assert not path.exists()


@pytest.mark.parametrize("apv, problem", [
    (0.0, "bad APV row: column 'apv': '0.0' is not positive"),
    (-1.5, "bad APV row: column 'apv': '-1.5' is not positive"),
    (math.nan, "bad APV row: 'nan' is not a finite number"),
    (math.inf, "bad APV row: 'inf' is not a finite number"),
], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("fmt", ["dsv", "jsonl"])
def test_apv_table_refuses_a_row_the_reader_would_refuse(tmp_path, fmt, apv, problem):
    performance = {
        ("mining", K.PUBLICATIONS, INTEGER): DisciplinePerformance(2.5, 8, 2),
        ("geology", K.PUBLICATIONS, INTEGER): DisciplinePerformance(apv, 8, 2),
    }
    path = tmp_path / "apv"
    with pytest.raises(RecalibrationError) as caught:
        write_apv_table(performance, path, fmt)
    assert str(caught.value) == f"row 2 ('geology', publications, integer): {problem}"
    assert not path.exists()


def test_tables_are_keyed_by_cell_in_output_order(tmp_path):
    rows = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    assert list(rows) == [(d, kind, m) for kind in DEFAULT_T for m in (INTEGER, FRACTIONAL) for d in DISCIPLINES]

    disciplines = ("mining", "geology")
    corpus = small_corpus([researcher("r1"), researcher("r2", "mining")], [publication("p1", ("r1", "r2"), wos=True)],
                          disciplines=disciplines)
    kinds = (K.WOS_ARTICLES, K.PUBLICATIONS)
    performance = discipline_performance(corpus, disciplines, RecalibrationConfig(t=dict.fromkeys(kinds, 5.0)),
                                         PUB_WINDOW, CITATION_WINDOW, CountingSettings())
    assert list(performance) == [(d, kind, m) for d in disciplines for kind in kinds for m in (INTEGER, FRACTIONAL)]

    # a writer keeps the order of the keys it is given, whatever it is
    reversed_rows = dict(reversed(rows.items()))
    write_recalibration_rows(reversed_rows, tmp_path / "recalibration.csv", "dsv")
    reversed_performance = dict(reversed(performance.items()))
    write_apv_table(reversed_performance, tmp_path / "apv.csv", "dsv")
    for table, path in ((reversed_rows, "recalibration.csv"), (reversed_performance, "apv.csv")):
        written = [tuple(line.split(",")[:3]) for line in (tmp_path / path).read_text().splitlines()[1:]]
        assert written == [(d, kind.value, m.value) for d, kind, m in table]


# --------------------------------------------------------------------------
# Derived scaling

def test_derived_scaling_published_examples():
    rows = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    derived = derived_scaled_minimums(
        rows,
        {
            ("geology", K.FIRST_AUTHOR_PUBLICATIONS): 15.0,
            ("geochemistry", K.FIRST_AUTHOR_PUBLICATIONS): 15.0,
            ("social_geography", K.FOREIGN_LANGUAGE_PUBLICATIONS): 35.0,
        },
        INTEGER,
        HALF_UP,
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
    # a kind with no scaling base, and a derived kind whose base was not recalibrated, are left out
    rows = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    assert derived_scaled_minimums(rows, {("geology", K.WOS_INDEPENDENT_CITATIONS): 50.0}, INTEGER, HALF_UP) == {}
    config = section_config(t={K.CUMULATIVE_IF: 5.0})
    if_only_rows = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, config)
    assert derived_scaled_minimums(if_only_rows, {("geology", K.FIRST_AUTHOR_PUBLICATIONS): 15.0}, INTEGER,
                                   HALF_UP) == {}


def filtered_then_scaled(rows, minimums, t, method, rounding):
    """The oracle: the derivable cells chosen first, by their kind's base kind
    being in ``t``, then each of them scaled, and a chosen cell without its
    base row refused."""
    derivable = {cell: value for cell, value in minimums.items() if DEFAULT_BASE_KINDS.get(cell[1]) in t}
    out = {}
    for (discipline, kind), cmv in derivable.items():
        base_kind = DEFAULT_BASE_KINDS.get(kind)
        if base_kind is None:
            raise LookupError(f"{kind.value} has no scaling base")
        base = rows.get((discipline, base_kind, method))
        if base is None:
            raise LookupError(f"no {method.value} base row ({discipline}, {base_kind.value}) for {kind.value}")
        raw = base.rmv_raw * cmv / base.cmv
        out[(discipline, kind)] = (raw, round_minimum(raw, kind, method, rounding))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_derived_scaling_of_the_current_minimums_matches_filtering_them_first(data):
    disciplines = data.draw(st.lists(st.sampled_from(("alpha", "beta", "gamma")), min_size=1, unique=True))
    t = data.draw(st.dictionaries(st.sampled_from([kind for kind in K if kind is not K.H_INDEX]),
                                  st.sampled_from((1.0, 3.0, 5.0)), min_size=1))
    # each discipline has a minimum for every recalibrated kind, and for each other kind or not; in any order
    cells = [(d, kind) for d in disciplines for kind in K if kind in t or data.draw(st.booleans())]
    minimums = {cell: data.draw(MODERATE_FLOATS) for cell in data.draw(st.permutations(cells))}
    table = {(d, kind, m): data.draw(MODERATE_FLOATS) for d in disciplines for kind in t for m in (INTEGER, FRACTIONAL)}
    rounding = data.draw(st.sampled_from(RoundingMode))
    rows = recalibrate_all(table, disciplines, minimums, RecalibrationConfig(t=t, rounding=rounding, ym_decimals=None))
    for method in (INTEGER, FRACTIONAL):
        derived = derived_scaled_minimums(rows, minimums, method, rounding)
        assert list(derived.items()) == list(filtered_then_scaled(rows, minimums, t, method, rounding).items())


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


def tiny_inputs(disciplines, cmv_values, t=5.0, **overrides):
    """The disciplines, minimums and config that ``recalibrate_all`` takes after the APV table."""
    cmv = {(d, K.PUBLICATIONS): cmv_values[i] for i, d in enumerate(disciplines)}
    return disciplines, cmv, RecalibrationConfig(t={K.PUBLICATIONS: t}, **overrides)


@given(random_apv_tables(), st.lists(st.floats(min_value=1, max_value=200), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_recalibration_identities(table_data, cmv_values):
    disciplines, table = table_data
    rows = recalibrate_all(table, *tiny_inputs(disciplines, cmv_values))
    for method in (INTEGER, FRACTIONAL):
        subset = [r for (_, _, m), r in rows.items() if m is method]
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
    base = tiny_inputs(disciplines, cmv_values, ym_decimals=None)
    scaled = tiny_inputs(disciplines, cmv_values, t=5.0 * factor, ym_decimals=None)
    rows_base = recalibrate_all(table, *base)
    rows_scaled = recalibrate_all(table, *scaled)
    for cell, row in rows_base.items():
        other = rows_scaled[cell]
        assert other.rmv_raw == pytest.approx(row.rmv_raw, rel=1e-9)
        assert other.y_i == pytest.approx(row.y_i * factor, rel=1e-9)
        assert other.y_m == pytest.approx(row.y_m * factor, rel=1e-9)


def test_scale_equivariance_of_one_discipline():
    disciplines = ("alpha", "beta", "gamma")
    inputs = (disciplines, {(d, K.PUBLICATIONS): 30.0 for d in disciplines}, RecalibrationConfig(t={K.PUBLICATIONS: 5.0}))
    table = {
        (d, K.PUBLICATIONS, m): apv
        for d, apv in (("alpha", 20.0), ("beta", 35.0), ("gamma", 50.0))
        for m in (INTEGER, FRACTIONAL)
    }
    boosted = dict(table)
    for m in (INTEGER, FRACTIONAL):
        boosted[("beta", K.PUBLICATIONS, m)] *= 1.6
    before = recalibrate_all(table, *inputs)
    after = recalibrate_all(boosted, *inputs)
    for m in (INTEGER, FRACTIONAL):
        assert after[("beta", K.PUBLICATIONS, m)].apv > before[("beta", K.PUBLICATIONS, m)].apv
        assert after[("beta", K.PUBLICATIONS, m)].dsdr_actual > before[("beta", K.PUBLICATIONS, m)].dsdr_actual
        assert after[("beta", K.PUBLICATIONS, m)].rmv_raw > before[("beta", K.PUBLICATIONS, m)].rmv_raw
        for other in ("alpha", "gamma"):
            assert after[(other, K.PUBLICATIONS, m)].dsdr_actual < before[(other, K.PUBLICATIONS, m)].dsdr_actual


def test_fractional_rows_share_integer_mean_years():
    rows = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, section_config())
    for kind in (K.PUBLICATIONS, K.WOS_ARTICLES, K.INDEPENDENT_CITATIONS, K.CUMULATIVE_IF):
        for d in ref.DISCIPLINES:
            assert rows[(d, kind, FRACTIONAL)].y_m == rows[(d, kind, INTEGER)].y_m


@pytest.mark.parametrize("decimals", [28, 400])
def test_more_places_than_y_m_holds_keep_it_as_it_is(decimals):
    # Y_m is about 5 years: rounding it to 28 places would ask Decimal for more digits than its context keeps
    exact = recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS, section_config(ym_decimals=None))
    assert recalibrate_all(ref.apv_table(), DISCIPLINES, CURRENT_MINIMUMS,
                           section_config(ym_decimals=decimals)) == exact


#: Inputs in the range the published tables use, and positive finite floats
#: over the whole range, its extremes drawn often.
MODERATE_FLOATS = st.floats(min_value=0.01, max_value=1000.0)
ANY_POSITIVE_FLOATS = st.one_of(
    st.sampled_from((5e-324, 1e-9, 1e30, 1.7e308)),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
ROW_FLOAT_FIELDS = [f.name for f in fields(RecalibrationRow) if f.type == "float"]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_algebra_returns_finite_positive_values_or_refuses(data):
    disciplines = ("alpha", "beta", "gamma")
    kinds = (K.PUBLICATIONS, K.CUMULATIVE_IF)
    # every input moderate, then up to three of them anywhere in the float range
    keys = [("apv", (d, kind, m)) for d in disciplines for kind in kinds for m in (INTEGER, FRACTIONAL)]
    keys += [("cmv", (d, kind)) for d in disciplines for kind in kinds] + [("t", kind) for kind in kinds]
    keys += [("derived", (d, K.FIRST_AUTHOR_PUBLICATIONS)) for d in disciplines]
    inputs = {key: data.draw(MODERATE_FLOATS) for key in keys}
    for key in data.draw(st.lists(st.sampled_from(keys), max_size=3)):
        inputs[key] = data.draw(ANY_POSITIVE_FLOATS)
    table, cmv, t, derived_minimums = ({key: value for (part, key), value in inputs.items() if part == name}
                                       for name in ("apv", "cmv", "t", "derived"))
    config = RecalibrationConfig(t=t, ym_decimals=data.draw(st.sampled_from((3, None))))
    # sometimes the minimums miss a cell
    missing = data.draw(st.none() | st.sampled_from(list(cmv)))
    if missing is not None:
        del cmv[missing]
        with pytest.raises(RecalibrationError, match="^no CMV for "):
            recalibrate_all(table, disciplines, cmv, config)
        return
    try:
        rows = recalibrate_all(table, disciplines, cmv, config)
    except RecalibrationError:
        return
    for row in rows.values():
        for name in ROW_FLOAT_FIELDS:
            assert 0.0 < getattr(row, name) < math.inf, (row, name)
    for method in (INTEGER, FRACTIONAL):
        try:
            derived = derived_scaled_minimums(rows, derived_minimums, method, HALF_UP)
        except RecalibrationError:
            continue
        for raw, _ in derived.values():
            assert 0.0 < raw < math.inf
