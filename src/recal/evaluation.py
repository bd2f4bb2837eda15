"""Scoring a candidate's indicator values against a threshold table.

Every indicator required for the candidate's discipline must reach its
minimum; the per-indicator score is the plain ratio value/minimum, so
over-fulfillment earns proportionally more than 1.0. Scores are not combined
into a composite. A threshold file is read through ``corpus.read_cells`` and
written through ``corpus.write_cells``, as an APV table is, so both refuse a
bad row or a repeated cell in the same words, when written or when read.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import (
    LONE_SURROGATE, finite_float, has_lone_surrogate, misnamed_table, read_cells, required_string, required_text,
    RecalError, write_cells,
)
from .counting import CountingMethod, IndicatorKind


class EvaluationError(RecalError):
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
        """The evaluation document: the fields in order, ``scores`` last and named ``indicators``."""
        document = asdict(self)
        document["indicators"] = document.pop("scores")
        return document


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


def diff_tables(a: ThresholdTable, b: ThresholdTable) -> dict[tuple[str, IndicatorKind], float | None]:
    """Per cell of ``b``, the signed change ``b - a``, or None where ``a``
    lacks the cell."""
    return {cell: minimum - a.minimums[cell] if cell in a.minimums else None for cell, minimum in b.minimums.items()}


# --------------------------------------------------------------------------
# File format: a `label,<text>` line, a column header, then one row per cell.

THRESHOLD_FIELDS = ("discipline", "kind", "minimum")


def _format_minimum(value: float) -> str:
    return f"{value:.6f}".rstrip("0").rstrip(".") or "0"


def minimum_cell(cells: Sequence) -> tuple[tuple[str, IndicatorKind], float]:
    """The cell and minimum of a threshold table row, its cells in
    ``THRESHOLD_FIELDS`` order; a cell that is not a row of the table, or a
    minimum that ``ThresholdTable`` refuses, raises ``ValueError``."""
    cell = (required_string(cells[0], "discipline"), IndicatorKind(required_text(cells[1], "kind")))
    if refused := _refused_minimum(*cell, minimum := finite_float(cells[2])):
        raise ValueError(refused)
    return cell, minimum


def save_threshold_table(table: ThresholdTable, path: str | Path) -> None:
    """Write the table: its ``label,<text>`` line, then the
    ``discipline,kind,minimum`` table, each minimum to 6 decimals, through
    ``write_cells`` with the reader's ``minimum_cell``, which refuses a
    minimum that rounds to ``0``; each refusal is an ``EvaluationError``. The
    reader takes the label as written, so only a lone surrogate in it, which
    UTF-8 cannot encode, is refused, first."""
    if has_lone_surrogate(table.label):
        raise EvaluationError(f"label {table.label!r} {LONE_SURROGATE}")
    rows = [(discipline, kind.value, _format_minimum(value)) for (discipline, kind), value in table.minimums.items()]
    write_cells(path, THRESHOLD_FIELDS, rows, ((cell, float(row[2])) for cell, row in zip(table.minimums, rows)),
                "dsv", minimum_cell, EvaluationError, ("label", table.label))


def load_threshold_table(path: str | Path) -> ThresholdTable:
    """Read what ``save_threshold_table`` writes, the label as written, each
    row through ``minimum_cell``; the first problem raises
    ``EvaluationError``."""
    if reason := misnamed_table(path, "dsv"):
        raise EvaluationError(reason)
    label: list[str] = []

    def label_line(cells: list[str] | None) -> None:
        if not cells or len(cells) != 2 or cells[0] != "label":
            raise EvaluationError(f"{path}: expected a 'label,<text>' first line")
        label.append(cells[1])

    minimums = read_cells(path, THRESHOLD_FIELDS, minimum_cell, "the minimum of ({0}, {1.value})", EvaluationError,
                          label_line)
    return ThresholdTable(label=label[0], minimums=minimums)
