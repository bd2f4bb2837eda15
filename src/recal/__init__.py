"""Discipline-aware recalibration of minimum bibliometric requirements.

The pipeline computes per-researcher indicator values under integer and
fractional author counting, derives each discipline's actual performance from
its top-quartile researchers, and rescales the minimum thresholds so every
discipline needs the same number of years to fulfill them.

The package re-exports nothing: import each name from the module that defines
it (``recal.corpus``, ``recal.counting``, ``recal.recalibration``,
``recal.evaluation``, ``recal.config``, ``recal.synthgen``).
"""

__version__ = "0.1.0"
