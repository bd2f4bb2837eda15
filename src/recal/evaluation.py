"""Scoring a candidate's indicator values against a threshold table.

Every indicator required for the candidate's discipline must reach its
minimum; the per-indicator score is the plain ratio value/minimum, so
over-fulfillment earns proportionally more than 1.0. Scores are not combined
into a composite.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .corpus import (
    LONE_SURROGATE, finite_float, has_lone_surrogate, required_string, required_text, text_not_kept, write_table,
)
from .counting import CountingMethod, IndicatorKind


class EvaluationError(Exception):
    pass


def _refused_minimum(discipline: str, kind: IndicatorKind, minimum: float) -> str | None:
    """Why a threshold table, built in Python or read from a file, refuses ``minimum``, or None."""
    if not 0 < minimum < math.inf:
        return f"minimum for ({discipline}, {kind.value}) must be a finite positive number, got {minimum}"


@dataclass(frozen=True)
class ThresholdTable:
    """Minimum values per (discipline, kind); absent cells are not required."""

    label: str
    minimums: Mapping[tuple[str, IndicatorKind], float]

    def __post_init__(self) -> None:
        for (discipline, kind), minimum in self.minimums.items():
            if refused := _refused_minimum(discipline, kind, minimum):
                raise EvaluationError(refused)

    def required_kinds(self, discipline: str) -> list[IndicatorKind]:
        return [kind for kind in IndicatorKind if (discipline, kind) in self.minimums]


@dataclass(frozen=True)
class IndicatorScore:
    kind: IndicatorKind
    value: float
    minimum: float
    fulfilled: bool
    score: float


@dataclass(frozen=True)
class EvaluationResult:
    researcher_id: str
    discipline: str
    method: str
    table_label: str
    scores: tuple[IndicatorScore, ...]
    overall_fulfilled: bool

    def to_dict(self) -> dict:
        return {
            "researcher_id": self.researcher_id,
            "discipline": self.discipline,
            "method": self.method,
            "table_label": self.table_label,
            "overall_fulfilled": self.overall_fulfilled,
            "indicators": [
                {
                    "kind": s.kind.value,
                    "value": s.value,
                    "minimum": s.minimum,
                    "fulfilled": s.fulfilled,
                    "score": s.score,
                }
                for s in self.scores
            ],
        }


def evaluate_candidate(researcher_id: str, method: CountingMethod, values: Mapping[IndicatorKind, float],
                       discipline: str, table: ThresholdTable) -> EvaluationResult:
    """Score one candidate's values under one method, a row of the value table,
    against the table's requirements for a discipline.

    ``values`` must hold every required kind; indicators the table does not
    require are left out of the result.
    """
    required = table.required_kinds(discipline)
    if not required:
        raise EvaluationError(f"table {table.label!r} has no entries for {discipline!r}")
    scores = []
    for kind in required:
        if kind not in values:
            raise EvaluationError(f"values for {researcher_id!r} are missing required kind {kind.value}")
        value = values[kind]
        minimum = table.minimums[(discipline, kind)]
        scores.append(
            IndicatorScore(
                kind=kind,
                value=value,
                minimum=minimum,
                fulfilled=value >= minimum,
                score=value / minimum,
            )
        )
    return EvaluationResult(
        researcher_id=researcher_id,
        discipline=discipline,
        method=method.value,
        table_label=table.label,
        scores=tuple(scores),
        overall_fulfilled=all(s.fulfilled for s in scores),
    )


@dataclass(frozen=True)
class CellDiff:
    """Change of one threshold cell between two tables."""

    delta: float | None  # None when the cell exists in only one table
    added: bool = False
    removed: bool = False


def diff_tables(a: ThresholdTable, b: ThresholdTable) -> dict[tuple[str, IndicatorKind], CellDiff]:
    """Per-cell signed change ``b - a``; cells present in only one table are
    flagged added (only in b) or removed (only in a)."""
    diffs: dict[tuple[str, IndicatorKind], CellDiff] = {}
    for cell in sorted(set(a.minimums) | set(b.minimums), key=lambda c: (c[0], c[1].value)):
        in_a, in_b = cell in a.minimums, cell in b.minimums
        if in_a and in_b:
            diffs[cell] = CellDiff(delta=b.minimums[cell] - a.minimums[cell])
        elif in_b:
            diffs[cell] = CellDiff(delta=None, added=True)
        else:
            diffs[cell] = CellDiff(delta=None, removed=True)
    return diffs


# --------------------------------------------------------------------------
# File format: a `label,<text>` line, a column header, then one row per cell.

def _format_minimum(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def save_threshold_table(table: ThresholdTable, path: str | Path) -> None:
    """Write the table: its ``label,<text>`` line, as a table with no rows,
    then the ``discipline,kind,minimum`` table, each minimum to 6 decimals.
    A cell that ``load_threshold_table`` would change or refuse raises
    ``EvaluationError`` naming it before the file is opened: a discipline
    that ``text_not_kept`` names, a lone surrogate in the label (UTF-8 cannot
    encode one), or a minimum that rounds to ``0`` at 6 decimals, as ``1e-7``
    does."""
    if has_lone_surrogate(table.label):
        raise EvaluationError(f"label {table.label!r} {LONE_SURROGATE}")
    if bad := text_not_kept([discipline for discipline, _ in table.minimums]):
        kind = next(kind for discipline, kind in table.minimums if discipline == bad[0])
        raise EvaluationError(f"({bad[0]!r}, {kind.value}): the discipline {bad[1]}")
    cells = []
    for (discipline, kind), minimum in table.minimums.items():
        text = _format_minimum(minimum)
        if text == "0":  # a finite positive minimum saves as a finite number, and the reader refuses 0
            raise EvaluationError(f"minimum for ({discipline}, {kind.value}) is {minimum!r}, which saves as {text!r}:"
                                  " not a finite positive number")
        cells.append((discipline, kind.value, text))
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        write_table(handle, ("label", table.label), ())
        write_table(handle, ("discipline", "kind", "minimum"), cells)


def load_threshold_table(path: str | Path) -> ThresholdTable:
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows = [(reader.line_num, cells) for cells in reader if any(cell.strip() for cell in cells)]
    except UnicodeDecodeError as exc:
        raise EvaluationError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # a cell past the csv module's size limit: a quote left open
        raise EvaluationError(f"{path}:{reader.line_num}: unreadable: {exc}") from None
    if len(rows) < 2 or len(rows[0][1]) != 2 or rows[0][1][0] != "label":
        raise EvaluationError(f"{path}: expected a 'label,<text>' first line")
    label = rows[0][1][1]
    if rows[1][1] != ["discipline", "kind", "minimum"]:
        raise EvaluationError(f"{path}: expected header discipline,kind,minimum")
    minimums: dict[tuple[str, IndicatorKind], float] = {}
    line_of: dict[tuple[str, IndicatorKind], int] = {}
    for i, cells in rows[2:]:
        if len(cells) != 3:
            raise EvaluationError(f"{path}:{i}: expected 3 cells")
        try:
            cell = (required_string(cells[0], "discipline"), IndicatorKind(required_text(cells[1], "kind")))
            minimum = finite_float(cells[2])
            if refused := _refused_minimum(*cell, minimum):
                raise ValueError(refused)
        except ValueError as exc:
            raise EvaluationError(f"{path}:{i}: {exc}") from exc
        if cell in line_of:
            raise EvaluationError(
                f"{path}:{i}: repeats line {line_of[cell]}, the minimum of ({cell[0]}, {cell[1].value})"
            )
        minimums[cell], line_of[cell] = minimum, i
    return ThresholdTable(label=label, minimums=minimums)
