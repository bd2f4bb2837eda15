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

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from pathlib import Path
from statistics import fmean
from typing import Collection, Mapping, Sequence

from .corpus import (
    Corpus, YearWindow, finite_float, read_cells, required_string, required_text, RecalError, write_cells, write_table,
)
from .counting import (
    CountingMethod,
    CountingSettings,
    IndicatorKind,
    indicator_matrix,
)


class RecalibrationError(RecalError):
    pass


class DegenerateDisciplineError(RecalibrationError):
    """A discipline whose population or APV makes the ratios undefined."""


class MissingApvError(RecalibrationError):
    """A (discipline, kind, method) cell the APV table lacks."""


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
    """Knobs of the recalibration algebra. The disciplines and their current
    minimums are the pipeline config's, passed alongside.

    ``ym_source_method`` names the counting method whose Y_i mean defines Y_m
    for BOTH methods (the reference tables derive it from integer counting).
    """

    t: Mapping[IndicatorKind, float]
    top_fraction: float = 0.25
    ym_source_method: CountingMethod = CountingMethod.INTEGER
    rounding: RoundingMode = RoundingMode.HALF_AWAY_FROM_ZERO
    ym_decimals: int | None = 3

    def __post_init__(self) -> None:
        if self.ym_decimals is not None and (type(self.ym_decimals) is not int or self.ym_decimals < 0):
            raise RecalibrationError(f"ym_decimals must be a non-negative integer or None, got {self.ym_decimals!r}")
        for name, enum in (("ym_source_method", CountingMethod), ("rounding", RoundingMode)):
            if not isinstance(getattr(self, name), enum):
                raise RecalibrationError(f"{name} must be a {enum.__name__} member, got {getattr(self, name)!r}")
        if type(self.top_fraction) not in (int, float) or not 0.0 < self.top_fraction <= 1.0:
            raise RecalibrationError(f"top_fraction must be a number in (0, 1], got {self.top_fraction!r}")
        if not self.t:
            raise RecalibrationError("t_years is empty: it names no kind to recalibrate")
        if keys := [kind for kind in self.t if not isinstance(kind, IndicatorKind)]:
            raise RecalibrationError(f"t keys must be IndicatorKind members, got {', '.join(map(repr, keys))}")
        if IndicatorKind.H_INDEX in self.t:
            raise RecalibrationError("h_index cannot be recalibrated: it is a rank statistic, not a sum over years")
        for kind, years in self.t.items():
            if type(years) not in (int, float) or not 0 < years < math.inf:
                raise RecalibrationError(f"t for {kind.value} must be a finite positive number, got {years!r}")

    @property
    def kinds(self) -> tuple[IndicatorKind, ...]:
        return tuple(self.t)


@dataclass(frozen=True)
class DisciplinePerformance:
    """Top-quartile mean of one (discipline, kind, method) cell, the key it is held under."""

    apv: float
    population: int
    selected: int


@dataclass(frozen=True)
class RecalibrationRow:
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

#: One (discipline, kind, method) cell, and the APV lookup over cells.
Cell = tuple[str, IndicatorKind, CountingMethod]
ApvTable = Mapping[Cell, float]


def top_quartile_apv(values: Mapping[str, float], top_fraction: float) -> tuple[float, int]:
    """Mean of the top ``top_fraction`` share of a researcher-id -> value
    mapping, and the number of researchers selected.

    The selection size is ``floor(top_fraction * n)`` clamped to at least one,
    the product taken in decimal (0.29 of 100 selects 29, not the 28 of the
    binary product); ties at the cut are broken by ascending id so the result
    never depends on input order. ``values`` is non-empty, as
    ``discipline_performance`` guarantees, and ``top_fraction`` is in (0, 1],
    as ``RecalibrationConfig`` guarantees.
    """
    pairs = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    k = max(1, int(Decimal(repr(top_fraction)) * len(pairs)))
    return fmean(value for _, value in pairs[:k]), k


def years_to_fulfill(cmv: float, apv: float, t: float) -> float:
    """Years a discipline's top performers need to reach the minimum:
    ``cmv / apv * t``. All three are positive: ``RecalibrationConfig`` checks
    t, ``PipelineConfig`` the minimums and ``recalibrate_all`` the APVs."""
    return cmv / apv * t


def dsdr(values: Mapping[str, float]) -> dict[str, float]:
    """Each discipline's share of the total; shares sum to one. The values
    are positive CMVs or APVs, as ``PipelineConfig`` and ``recalibrate_all``
    guarantee."""
    total = 0.0
    for value in values.values():
        total += value
    return {discipline: value / total for discipline, value in values.items()}


def mean_years(years: Mapping[str, float]) -> float:
    """Arithmetic mean of the per-discipline years."""
    return fmean(years.values())


def recalibrated_minimum(cmv: float, y_m: float, y_i: float) -> float:
    """Minimum rescaled so fulfilling it takes y_m years: ``cmv * y_m / y_i``.
    ``y_i`` is positive, as ``recalibrate_all`` checks."""
    return cmv * y_m / y_i


def _round_half_away_from_zero(value: float) -> int:
    return int(Decimal(repr(value)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def round_minimum(raw: float, kind: IndicatorKind, method: CountingMethod, mode: RoundingMode) -> int | None:
    """Presentation rounding of a raw minimum.

    Count kinds (and the integer-method cumulative impact factor) round half
    away from zero; the fractional cumulative impact factor stays unrounded,
    as do all values under mode ``none``. ``raw`` is finite and positive, as
    ``recalibrate_all`` and ``derived_scaled_minimums`` check; one with more
    digits than the ``Decimal`` context keeps raises ``InvalidOperation``.
    """
    if mode is RoundingMode.NONE:
        return None
    if kind is IndicatorKind.CUMULATIVE_IF and method is CountingMethod.FRACTIONAL:
        return None
    return _round_half_away_from_zero(raw)


def _quantize(value: float, decimals: int | None) -> float:
    """``value`` rounded half up to ``decimals`` places, or as it is if its
    repr has no more places than that: rounding then never needs more digits
    than a repr holds, however many places are asked for."""
    exact = Decimal(repr(value))
    if decimals is None or exact.as_tuple().exponent >= -decimals:
        return value
    return float(exact.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP))


def discipline_performance(
    corpus: Corpus,
    disciplines: Collection[str],
    config: RecalibrationConfig,
    pub_window: YearWindow,
    citation_window: YearWindow,
    settings: CountingSettings,
) -> dict[Cell, DisciplinePerformance]:
    """Compute APVs from a corpus, keyed by cell, by discipline, then kind, then
    method: the top-quartile mean over all of the discipline's researchers
    (researchers with zero output included)."""
    members: dict[str, list[str]] = {d: [] for d in disciplines}
    for researcher in corpus.researchers.values():
        if researcher.discipline in members:
            members[researcher.discipline].append(researcher.researcher_id)
    for discipline, ids in members.items():
        if not ids:
            raise DegenerateDisciplineError(f"discipline {discipline!r} has no researchers")

    values = indicator_matrix(
        corpus, config.kinds, METHODS, pub_window, citation_window, settings,
        [rid for ids in members.values() for rid in ids],
    )
    performance: dict[Cell, DisciplinePerformance] = {}
    for discipline, ids in members.items():
        for kind, method in itertools.product(config.kinds, METHODS):
            apv, selected = top_quartile_apv({rid: values[rid, method][kind] for rid in ids}, config.top_fraction)
            performance[discipline, kind, method] = DisciplinePerformance(apv, len(ids), selected)
    return performance


def _cell_text(cell: Cell) -> str:
    return f"({cell[0]}, {cell[1].value}, {cell[2].value})"


def _carried(values: dict[str, float], name: str, kind: IndicatorKind, method: CountingMethod) -> dict[str, float]:
    """``values``, refused naming the first discipline whose value is not finite and positive."""
    for discipline, value in values.items():
        if not 0.0 < value < math.inf:  # NaN fails too
            cell = _cell_text((discipline, kind, method))
            raise RecalibrationError(f"{cell}: {name} is {value!r}, not a finite positive number")
    return values


def _rounded(raw: float, cell: Cell, mode: RoundingMode) -> int | None:
    """``round_minimum`` of a raw minimum, refused if it has too many digits."""
    try:
        return round_minimum(raw, cell[1], cell[2], mode)
    except ArithmeticError:  # more digits than the Decimal context keeps
        raise RecalibrationError(f"{_cell_text(cell)}: rmv_raw is {raw!r}, too large to round") from None


def recalibrate_all(
    apv_table: ApvTable,
    disciplines: Collection[str],
    cmv: Mapping[tuple[str, IndicatorKind], float],
    config: RecalibrationConfig,
) -> dict[Cell, RecalibrationRow]:
    """Run the full recalibration over every (kind, method, discipline) cell
    of an APV table; ``cmv`` has a positive minimum per discipline and kind
    in ``config.t``, as ``PipelineConfig`` checks.

    Per kind, Y_m comes from the ``ym_source_method`` Y_i values and applies
    to both methods. Rows are keyed by cell, by kind, then method, then
    discipline. Before any row is built, a (discipline, kind) with no CMV, a
    cell with no APV (``MissingApvError``) and a non-positive APV are refused;
    then a Y_i, Y_m, r_y, DSDR or raw minimum that is not a finite positive
    number that rounds is refused, naming its cell.
    """
    for cell in itertools.product(disciplines, config.kinds, METHODS):
        if cell[:2] not in cmv:
            raise RecalibrationError(f"no CMV for ({cell[0]}, {cell[1].value})")
        apv = apv_table.get(cell)
        if apv is None:
            raise MissingApvError(f"no APV for {_cell_text(cell)}")
        if apv <= 0:
            raise DegenerateDisciplineError(f"apv for {_cell_text(cell)} is {apv}")

    rows: dict[Cell, RecalibrationRow] = {}
    source = config.ym_source_method
    for kind in config.kinds:
        t = config.t[kind]
        cmvs = {d: cmv[(d, kind)] for d in disciplines}
        dsdr_current = dsdr(cmvs)

        source_years = {d: years_to_fulfill(cmvs[d], apv_table[(d, kind, source)], t) for d in disciplines}
        try:
            y_m = _quantize(mean_years(_carried(source_years, "y_i", kind, source)), config.ym_decimals)
        except ArithmeticError:  # fmean's sum past the float range
            raise RecalibrationError(f"(*, {kind.value}, {source.value}): y_m, the y_i mean, is too large") from None
        _carried({"*": y_m}, "y_m", kind, source)

        for method in METHODS:
            apvs = {d: apv_table[(d, kind, method)] for d in disciplines}
            years = _carried({d: years_to_fulfill(cmvs[d], apvs[d], t) for d in disciplines}, "y_i", kind, method)
            r_y = _carried({d: y_m / years[d] for d in disciplines}, "r_y", kind, method)
            rmv_raw = _carried({d: recalibrated_minimum(cmvs[d], y_m, years[d]) for d in disciplines},
                               "rmv_raw", kind, method)
            _carried(dsdr_current, "dsdr_current", kind, method)
            dsdr_actual = _carried(dsdr(apvs), "dsdr_actual", kind, method)
            for discipline in disciplines:
                cell = (discipline, kind, method)
                rows[cell] = RecalibrationRow(
                    cmv=cmvs[discipline],
                    apv=apvs[discipline],
                    y_i=years[discipline],
                    y_m=y_m,
                    r_y=r_y[discipline],
                    dsdr_current=dsdr_current[discipline],
                    dsdr_actual=dsdr_actual[discipline],
                    rmv_raw=rmv_raw[discipline],
                    rmv_rounded=_rounded(rmv_raw[discipline], cell, config.rounding),
                )
    return rows


def derived_scaled_minimums(
    base_rows: Mapping[Cell, RecalibrationRow],
    current_minimums: Mapping[tuple[str, IndicatorKind], float],
    method: CountingMethod,
    rounding: RoundingMode,
) -> dict[tuple[str, IndicatorKind], tuple[float, int | None]]:
    """Scale each derivable current minimum proportionally off its base kind's RMV.

    A (discipline, kind) cell is derivable when its kind has a base kind in
    ``DEFAULT_BASE_KINDS`` and ``base_rows`` hold that base's ``method`` row
    for the discipline: ``raw = base_rmv_raw * cmv / base_cmv``, then
    presentation rounding. Returns ``(discipline, kind) -> (raw, rounded)``
    for the derivable cells, in the order of ``current_minimums``, and leaves
    every other cell out; a raw minimum is checked as in ``recalibrate_all``.
    """
    out: dict[tuple[str, IndicatorKind], tuple[float, int | None]] = {}
    for (discipline, kind), cmv in current_minimums.items():
        base = base_rows.get((discipline, DEFAULT_BASE_KINDS.get(kind), method))
        if base is not None:
            raw = _carried({discipline: base.rmv_raw * cmv / base.cmv}, "rmv_raw", kind, method)[discipline]
            out[(discipline, kind)] = (raw, _rounded(raw, (discipline, kind, method), rounding))
    return out


# --------------------------------------------------------------------------
# File formats

APV_FIELDS = ("discipline", "kind", "method", "apv")
RECALIBRATION_FIELDS = ("discipline", "kind", "method", "cmv", "apv", "y_i", "y_m", "r_y",
                        "dsdr_current", "dsdr_actual", "rmv_raw", "rmv_rounded")


def apv_cell(cells: Sequence) -> tuple[Cell, float]:
    """The cell and APV of an APV table row, its cells in ``APV_FIELDS``
    order; any cells after those are not read. A cell that is not a row of
    the table, or an APV that is not positive, raises ``ValueError``."""
    try:
        key = (required_string(cells[0], "discipline"), IndicatorKind(required_text(cells[1], "kind")),
               CountingMethod(required_text(cells[2], "method")))
        if (value := finite_float(text := required_text(cells[3], "apv"))) <= 0:
            raise ValueError(f"column 'apv': {text!r} is not positive")
        return key, value
    except ValueError as exc:
        raise ValueError(f"bad APV row: {exc}") from None


def read_apv_table(path: str | Path) -> dict[Cell, float]:
    """Read a ``discipline,kind,method,apv`` table, DSV or JSONL, through
    ``read_cells`` and ``apv_cell`` (``write_apv_table`` output reads back);
    the first problem raises ``RecalibrationError``."""
    return read_cells(path, APV_FIELDS, apv_cell, "the APV of ({0}, {1.value}, {2.value})", RecalibrationError)


def write_apv_table(performance: Mapping[Cell, DisciplinePerformance], path: str | Path, fmt: str) -> None:
    """Write each cell's APV, in key order, at full float precision so that a
    replay through ``read_apv_table`` reproduces it bit for bit, with its
    population and selection sizes, through ``write_cells``: a row that
    ``apv_cell`` would refuse or read back as another cell or APV, and then a
    ``path`` that the reader would read in the other format, raise
    ``RecalibrationError`` naming it before the file is opened."""
    rows = ((discipline, kind.value, method.value, repr(p.apv), str(p.population), str(p.selected))
            for (discipline, kind, method), p in performance.items())
    write_cells(path, (*APV_FIELDS, "population", "selected"), rows,
                ((cell, p.apv) for cell, p in performance.items()), fmt, apv_cell, RecalibrationError)


def write_recalibration_rows(rows: Mapping[Cell, RecalibrationRow], path: str | Path, fmt: str) -> None:
    """Write each cell's row, in key order, with ratios to 6 decimals and
    years/minimums to 3; JSONL keeps CMV and APV unrounded."""
    if fmt == "jsonl":
        records = (
            (discipline, kind.value, method.value, r.cmv, r.apv, round(r.y_i, 3),
             round(r.y_m, 3), round(r.r_y, 6), round(r.dsdr_current, 6), round(r.dsdr_actual, 6),
             round(r.rmv_raw, 3), r.rmv_rounded)
            for (discipline, kind, method), r in rows.items()
        )
    else:
        records = (
            (discipline, kind.value, method.value, f"{r.cmv:.3f}", f"{r.apv:.3f}",
             f"{r.y_i:.3f}", f"{r.y_m:.3f}", f"{r.r_y:.6f}", f"{r.dsdr_current:.6f}",
             f"{r.dsdr_actual:.6f}", f"{r.rmv_raw:.3f}",
             "" if r.rmv_rounded is None else str(r.rmv_rounded))
            for (discipline, kind, method), r in rows.items()
        )
    write_table(path, RECALIBRATION_FIELDS, records, fmt)
