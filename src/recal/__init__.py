"""Discipline-aware recalibration of minimum bibliometric requirements.

The pipeline computes per-researcher indicator values under integer and
fractional author counting, derives each discipline's actual performance from
its top-quartile researchers, and rescales the minimum thresholds so every
discipline needs the same number of years to fulfill them.
"""
from .corpus import (
    CitationLink,
    CoauthorshipStats,
    Corpus,
    CorpusError,
    CorpusValidationError,
    DisciplineCoauthorship,
    PublicationRecord,
    PubType,
    ResearcherProfile,
    YearWindow,
    build_corpus,
    corpus_stats,
    independent_citations,
    load_corpus,
    save_corpus,
)
from .counting import (
    CORE_KINDS,
    CountingMethod,
    CountingSettings,
    IndicatorKind,
    IndicatorVector,
    h_index,
    indicator_matrix,
    indicator_value,
)
from .evaluation import (
    EvaluationResult,
    ThresholdTable,
    diff_tables,
    evaluate_candidate,
    load_threshold_table,
    save_threshold_table,
)
from .recalibration import (
    DegenerateDisciplineError,
    DisciplinePerformance,
    RecalibrationConfig,
    RecalibrationRow,
    RoundingMode,
    derived_scaled_minimums,
    dsdr,
    mean_years,
    recalibrate_all,
    recalibrated_minimum,
    round_minimum,
    top_quartile_apv,
    years_to_fulfill,
)
from .synthgen import SynthDisciplineParams, SynthSpec, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "CitationLink",
    "CoauthorshipStats",
    "Corpus",
    "CorpusError",
    "CorpusValidationError",
    "CORE_KINDS",
    "CountingMethod",
    "CountingSettings",
    "DegenerateDisciplineError",
    "DisciplineCoauthorship",
    "DisciplinePerformance",
    "EvaluationResult",
    "IndicatorKind",
    "IndicatorVector",
    "PublicationRecord",
    "PubType",
    "RecalibrationConfig",
    "RecalibrationRow",
    "ResearcherProfile",
    "RoundingMode",
    "SynthDisciplineParams",
    "SynthSpec",
    "ThresholdTable",
    "YearWindow",
    "build_corpus",
    "corpus_stats",
    "derived_scaled_minimums",
    "diff_tables",
    "dsdr",
    "evaluate_candidate",
    "generate_corpus",
    "h_index",
    "independent_citations",
    "indicator_matrix",
    "indicator_value",
    "load_corpus",
    "load_threshold_table",
    "mean_years",
    "recalibrate_all",
    "recalibrated_minimum",
    "round_minimum",
    "save_corpus",
    "save_threshold_table",
    "top_quartile_apv",
    "years_to_fulfill",
]
