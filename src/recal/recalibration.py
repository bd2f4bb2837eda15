"""Threshold recalibration from top-quartile performance.

Vocabulary used throughout:

* CMV, current minimum value: the threshold a discipline requires today.
* APV, actual performance value: the mean indicator value of the top
  quartile of a discipline's researchers over the study window.
* Y_i: years a top performer of discipline i needs to reach the CMV at
  their APV pace, ``cmv / apv * t``.
* Y_m: the mean of Y_i over all disciplines.
* DSDR, discipline-specific distance ratio: a discipline's share of the
  section-wide total, over CMVs (current) or APVs (actual).
* RMV, recalibrated minimum value: ``cmv * y_m / y_i``, equivalently
  ``apv * y_m / t``; with it, every discipline needs exactly Y_m years, and
  the RMV shares across disciplines equal the actual DSDRs.

Y_m is quantized to ``ym_decimals`` places before it feeds the per-discipline
ratios; the published reference tables are reproduced at 3 decimals. Set it to
None for exact-mean algebra (then raw RMVs are invariant under rescaling t).
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from pathlib import Path
from statistics import fmean
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, YearWindow, _cell_required, _iter_records, finite_float, write_table
from .counting import (
    CountingError,
    CountingMethod,
    CountingSettings,
    DEFAULT_SETTINGS,
    IndicatorKind,
    indicator_matrix,
)


class RecalibrationError(Exception):
    pass


class DegenerateDisciplineError(RecalibrationError):
    """A discipline whose population or APV makes the ratios undefined."""


class MissingCmvError(RecalibrationError):
    pass


class MissingBaseRowError(RecalibrationError):
    pass


class RoundingMode(str, Enum):
    HALF_AWAY_FROM_ZERO = "half_away_from_zero"
    NONE = "none"


#: Derived indicators scale proportionally off these recalibrated base kinds.
DEFAULT_BASE_KINDS: Mapping[IndicatorKind, IndicatorKind] = {
    IndicatorKind.FIRST_AUTHOR_PUBLICATIONS: IndicatorKind.PUBLICATIONS,
    IndicatorKind.PUBLICATIONS_SINCE_DEGREE: IndicatorKind.PUBLICATIONS,
    IndicatorKind.BOOKS_AND_MONOGRAPHS: IndicatorKind.PUBLICATIONS,
    IndicatorKind.FOREIGN_LANGUAGE_PUBLICATIONS: IndicatorKind.PUBLICATIONS,
    IndicatorKind.WOS_ARTICLES_SINCE_DEGREE: IndicatorKind.WOS_ARTICLES,
}


@dataclass(frozen=True)
class RecalibrationConfig:
    """Inputs of the recalibration pipeline.

    ``cmv`` must cover every configured discipline for every kind in ``t``.
    ``ym_source_method`` names the counting method whose Y_i mean defines Y_m
    for BOTH methods (the reference tables derive it from integer counting).
    """

    disciplines: tuple[str, ...]
    cmv: Mapping[tuple[str, IndicatorKind], float]
    t: Mapping[IndicatorKind, float]
    top_fraction: float = 0.25
    ym_source_method: CountingMethod = CountingMethod.INTEGER
    rounding: RoundingMode = RoundingMode.HALF_AWAY_FROM_ZERO
    ym_decimals: int | None = 3

    def __post_init__(self) -> None:
        if not self.disciplines:
            raise RecalibrationError("no disciplines configured")
        if not 0.0 < self.top_fraction <= 1.0:
            raise RecalibrationError(f"top_fraction {self.top_fraction} outside (0, 1]")
        for kind, years in self.t.items():
            if years <= 0:
                raise RecalibrationError(f"t for {kind.value} must be positive, got {years}")
            for discipline in self.disciplines:
                if (discipline, kind) not in self.cmv:
                    raise MissingCmvError(f"no CMV for ({discipline}, {kind.value})")
                if self.cmv[(discipline, kind)] <= 0:
                    raise MissingCmvError(f"CMV for ({discipline}, {kind.value}) must be positive")

    @property
    def kinds(self) -> tuple[IndicatorKind, ...]:
        return tuple(self.t)


@dataclass(frozen=True)
class DisciplinePerformance:
    """Top-quartile mean of one (discipline, kind, method) cell."""

    discipline: str
    kind: IndicatorKind
    method: CountingMethod
    apv: float
    population: int
    selected: int


@dataclass(frozen=True)
class RecalibrationRow:
    discipline: str
    kind: IndicatorKind
    method: CountingMethod
    cmv: float
    apv: float
    y_i: float
    y_m: float
    r_y: float
    dsdr_current: float
    dsdr_actual: float
    rmv_raw: float
    rmv_rounded: int | None


#: Both counting methods, in output order.
METHODS = (CountingMethod.INTEGER, CountingMethod.FRACTIONAL)

#: APV lookup: (discipline, kind, method) -> value.
ApvTable = Mapping[tuple[str, IndicatorKind, CountingMethod], float]


def top_quartile_apv(
    values: Mapping[str, float], top_fraction: float = 0.25
) -> tuple[float, int]:
    """Mean of the top ``top_fraction`` share of a researcher-id -> value
    mapping, and the number of researchers selected.

    The selection size is ``floor(top_fraction * n)`` clamped to at least one;
    ties at the cut are broken by ascending id so the result never depends on
    input order. ``values`` is non-empty, as ``discipline_performance``
    guarantees, and ``top_fraction`` is in (0, 1], as ``RecalibrationConfig``
    guarantees.
    """
    pairs = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    k = max(1, int(top_fraction * len(pairs)))
    return fmean(value for _, value in pairs[:k]), k


def years_to_fulfill(cmv: float, apv: float, t: float) -> float:
    """Years a discipline's top performers need to reach the minimum:
    ``cmv / apv * t``. All three are positive, as ``RecalibrationConfig`` and
    ``recalibrate_all`` guarantee."""
    return cmv / apv * t


def dsdr(values: Mapping[str, float]) -> dict[str, float]:
    """Each discipline's share of the total; shares sum to one. The values
    are positive CMVs or APVs, as ``RecalibrationConfig`` and
    ``recalibrate_all`` guarantee."""
    total = 0.0
    for value in values.values():
        total += value
    return {discipline: value / total for discipline, value in values.items()}


def mean_years(years: Mapping[str, float]) -> float:
    """Arithmetic mean of the per-discipline years."""
    return fmean(years.values())


def recalibrated_minimum(cmv: float, y_m: float, y_i: float) -> float:
    """Minimum rescaled so fulfilling it takes y_m years: ``cmv * y_m / y_i``.
    ``y_i`` is positive, as ``years_to_fulfill`` of positive inputs is."""
    return cmv * y_m / y_i


def _round_half_away_from_zero(value: float) -> int:
    return int(Decimal(repr(value)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def round_minimum(
    raw: float,
    kind: IndicatorKind,
    method: CountingMethod,
    mode: RoundingMode = RoundingMode.HALF_AWAY_FROM_ZERO,
) -> int | None:
    """Presentation rounding of a raw minimum.

    Count kinds (and the integer-method cumulative impact factor) round half
    away from zero; the fractional cumulative impact factor stays unrounded,
    as do all values under mode ``none``. ``raw`` is positive, as the
    positive minimums that ``RecalibrationConfig`` and the config load
    guarantee make it.
    """
    if mode is RoundingMode.NONE:
        return None
    if kind is IndicatorKind.CUMULATIVE_IF and method is CountingMethod.FRACTIONAL:
        return None
    return _round_half_away_from_zero(raw)


def _quantize(value: float, decimals: int | None) -> float:
    if decimals is None:
        return value
    exponent = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(exponent, rounding=ROUND_HALF_UP))


def discipline_performance(
    corpus: Corpus,
    config: RecalibrationConfig,
    pub_window: YearWindow,
    citation_window: YearWindow,
    settings: CountingSettings = DEFAULT_SETTINGS,
) -> list[DisciplinePerformance]:
    """Compute APVs from a corpus: per configured discipline, kind and
    counting method, the top-quartile mean over all of the discipline's
    researchers (researchers with zero output included)."""
    members: dict[str, list[str]] = {d: [] for d in config.disciplines}
    for researcher in corpus.researchers.values():
        if researcher.discipline in members:
            members[researcher.discipline].append(researcher.researcher_id)
    for discipline, ids in members.items():
        if not ids:
            raise DegenerateDisciplineError(f"discipline {discipline!r} has no researchers")
    if IndicatorKind.H_INDEX in config.kinds:
        raise CountingError("h_index is only defined under integer counting")

    vectors = indicator_matrix(
        corpus, config.kinds, METHODS, pub_window, citation_window, settings,
        [rid for ids in members.values() for rid in ids],
    )
    values = {(v.researcher_id, v.method): v.values for v in vectors}
    performance: list[DisciplinePerformance] = []
    for discipline, ids in members.items():
        for kind in config.kinds:
            for method in METHODS:
                apv, selected = top_quartile_apv(
                    {rid: values[(rid, method)][kind] for rid in ids}, config.top_fraction
                )
                performance.append(
                    DisciplinePerformance(discipline, kind, method, apv, len(ids), selected)
                )
    return performance


def performance_as_table(performance: Iterable[DisciplinePerformance]) -> dict:
    return {(p.discipline, p.kind, p.method): p.apv for p in performance}


def recalibrate_all(apv_table: ApvTable, config: RecalibrationConfig) -> list[RecalibrationRow]:
    """Run the full recalibration over every configured (kind, method,
    discipline) cell of an APV table.

    Per kind, Y_m comes from the ``ym_source_method`` Y_i values and applies
    to both methods. Rows come out grouped by kind, then method, then
    configured discipline order.
    """
    for discipline in config.disciplines:
        for kind in config.kinds:
            for method in METHODS:
                apv = apv_table.get((discipline, kind, method))
                if apv is None:
                    raise RecalibrationError(
                        f"no APV for ({discipline}, {kind.value}, {method.value})"
                    )
                if apv <= 0:
                    raise DegenerateDisciplineError(
                        f"apv for ({discipline}, {kind.value}, {method.value}) is {apv}"
                    )

    rows: list[RecalibrationRow] = []
    for kind in config.kinds:
        t = config.t[kind]
        cmvs = {d: config.cmv[(d, kind)] for d in config.disciplines}
        dsdr_current = dsdr(cmvs)

        source_years = {
            d: years_to_fulfill(cmvs[d], apv_table[(d, kind, config.ym_source_method)], t)
            for d in config.disciplines
        }
        y_m = _quantize(mean_years(source_years), config.ym_decimals)

        for method in METHODS:
            apvs = {d: apv_table[(d, kind, method)] for d in config.disciplines}
            dsdr_actual = dsdr(apvs)
            for discipline in config.disciplines:
                y_i = years_to_fulfill(cmvs[discipline], apvs[discipline], t)
                rmv_raw = recalibrated_minimum(cmvs[discipline], y_m, y_i)
                rows.append(
                    RecalibrationRow(
                        discipline=discipline,
                        kind=kind,
                        method=method,
                        cmv=cmvs[discipline],
                        apv=apvs[discipline],
                        y_i=y_i,
                        y_m=y_m,
                        r_y=y_m / y_i,
                        dsdr_current=dsdr_current[discipline],
                        dsdr_actual=dsdr_actual[discipline],
                        rmv_raw=rmv_raw,
                        rmv_rounded=round_minimum(rmv_raw, kind, method, config.rounding),
                    )
                )
    return rows


def derived_scaled_minimums(
    base_rows: Sequence[RecalibrationRow],
    derived_cmv: Mapping[tuple[str, IndicatorKind], float],
    method: CountingMethod = CountingMethod.INTEGER,
    rounding: RoundingMode = RoundingMode.HALF_AWAY_FROM_ZERO,
) -> dict[tuple[str, IndicatorKind], tuple[float, int | None]]:
    """Scale derived indicators proportionally off their base kind's RMV.

    For each (discipline, derived kind) cell:
    ``raw = base_rmv_raw * derived_cmv / base_cmv``, then presentation
    rounding. Returns ``(discipline, kind) -> (raw, rounded)``. A kind
    outside ``DEFAULT_BASE_KINDS``, or whose base row is absent, raises
    ``MissingBaseRowError``.
    """
    base_by_cell = {
        (row.discipline, row.kind): row for row in base_rows if row.method is method
    }
    out: dict[tuple[str, IndicatorKind], tuple[float, int | None]] = {}
    for (discipline, kind), cmv in derived_cmv.items():
        base_kind = DEFAULT_BASE_KINDS.get(kind)
        if base_kind is None:
            raise MissingBaseRowError(f"{kind.value} has no scaling base")
        base = base_by_cell.get((discipline, base_kind))
        if base is None:
            raise MissingBaseRowError(
                f"no {method.value} base row ({discipline}, {base_kind.value}) for {kind.value}"
            )
        raw = base.rmv_raw * cmv / base.cmv
        out[(discipline, kind)] = (raw, round_minimum(raw, kind, method, rounding))
    return out


# --------------------------------------------------------------------------
# File formats

APV_FIELDS = ("discipline", "kind", "method", "apv")
RECALIBRATION_FIELDS = ("discipline", "kind", "method", "cmv", "apv", "y_i", "y_m", "r_y",
                        "dsdr_current", "dsdr_actual", "rmv_raw", "rmv_rounded")


def read_apv_table(path: str | Path) -> dict[tuple[str, IndicatorKind, CountingMethod], float]:
    """Read a ``discipline,kind,method,apv`` table, DSV or JSONL as the corpus
    files are (``write_apv_table`` output reads back); a cell may appear once."""
    table: dict[tuple[str, IndicatorKind, CountingMethod], float] = {}
    row_of: dict[tuple[str, IndicatorKind, CountingMethod], int] = {}
    violations = []
    for i, record in _iter_records(Path(path), APV_FIELDS, str(path), violations):
        if violations:
            break
        try:
            key = (
                _cell_required(record, "discipline"),
                IndicatorKind(_cell_required(record, "kind")),
                CountingMethod(_cell_required(record, "method")),
            )
            table[key] = finite_float(_cell_required(record, "apv"))
        except ValueError as exc:
            raise RecalibrationError(f"{path}:{i}: bad APV row: {exc}") from exc
        if key in row_of:
            raise RecalibrationError(
                f"{path}:{i}: repeats row {row_of[key]}, the APV of "
                f"({key[0]}, {key[1].value}, {key[2].value})"
            )
        row_of[key] = i
    if violations:
        raise RecalibrationError(str(violations[0]))
    return table


def write_apv_table(
    performance: Iterable[DisciplinePerformance], path: str | Path, fmt: str = "dsv"
) -> None:
    """Write each cell's APV, at full float precision so that a replay through
    ``read_apv_table`` reproduces it bit for bit, with its population and
    selection sizes."""
    rows = ((p.discipline, p.kind.value, p.method.value, repr(p.apv), str(p.population), str(p.selected))
            for p in performance)
    write_table(path, (*APV_FIELDS, "population", "selected"), rows, fmt)


def write_recalibration_rows(
    rows: Iterable[RecalibrationRow], path: str | Path, fmt: str = "dsv"
) -> None:
    """Write rows with ratios to 6 decimals and years/minimums to 3; JSONL
    keeps CMV and APV unrounded."""
    if fmt == "jsonl":
        records = (
            (r.discipline, r.kind.value, r.method.value, r.cmv, r.apv, round(r.y_i, 3),
             round(r.y_m, 3), round(r.r_y, 6), round(r.dsdr_current, 6), round(r.dsdr_actual, 6),
             round(r.rmv_raw, 3), r.rmv_rounded)
            for r in rows
        )
    else:
        records = (
            (r.discipline, r.kind.value, r.method.value, f"{r.cmv:.3f}", f"{r.apv:.3f}",
             f"{r.y_i:.3f}", f"{r.y_m:.3f}", f"{r.r_y:.6f}", f"{r.dsdr_current:.6f}",
             f"{r.dsdr_actual:.6f}", f"{r.rmv_raw:.3f}",
             "" if r.rmv_rounded is None else str(r.rmv_rounded))
            for r in rows
        )
    write_table(path, RECALIBRATION_FIELDS, records, fmt)
