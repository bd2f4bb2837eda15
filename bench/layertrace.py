"""Per-layer tracing from outside the program.

``LayerTracer.install`` wraps the public entry points of every recal layer and
``uninstall`` puts the originals back; an untraced run never installs one, so
it patches nothing. The modules import these names by value (``recal.cli``
holds its own ``scan_corpus``, ``recal.recalibration`` its own
``indicator_value``), so every module binding of an entry point is replaced,
and the index properties of ``Corpus`` are swapped on the class.

Each wrapped call charges its time to its layer: a layer's self time is its
calls' duration minus the part covered by calls into other wrapped entry
points. Outer entry points also record a span (name, start, end, parent span,
op id). The hot inner functions (``independent_citations``,
``indicator_value``, ``h_index``), called more than once per researcher, are
timed and counted but record no span.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

SPAN, COUNT = True, False


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _after_generate(tracer, args, kwargs, result):
    tracer.counts["synthgen.pubs"] += len(result.publications)


def _after_scan(tracer, args, kwargs, result):
    corpus = result[0]
    if corpus is not None:
        tracer.counts["corpus.ingest.rows"] += (
            len(corpus.researchers) + len(corpus.publications) + len(corpus.citations)
        )


def _after_independent_citations(tracer, args, kwargs, result):
    tracer.counts["corpus.index.citation_scans"] += 1
    corpus = _arg(args, kwargs, 0, "corpus")
    pub = _arg(args, kwargs, 1, "pub")
    tracer.scanned.add((tracer.op_id, id(corpus), pub.pub_id))


def _after_indicator_value(tracer, args, kwargs, result):
    tracer.counts["counting.indicator_calls"] += 1


def _after_top_quartile(tracer, args, kwargs, result):
    tracer.counts["counting.values_consumed"] += len(_arg(args, kwargs, 0, "values"))


def _after_evaluate(tracer, args, kwargs, result):
    tracer.counts["counting.values_consumed"] += len(result.scores)


def _after_performance(tracer, args, kwargs, result):
    tracer.counts["recalibration.apv.cells"] += len(result)


def _after_algebra(tracer, args, kwargs, result):
    tracer.counts["recalibration.algebra.rows"] += len(result)


def _after_writer(tracer, args, kwargs, result):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            tracer.counts["writers.bytes"] += os.path.getsize(value)


#: (module, function, layer, records a span, hook run on the result)
ENTRY_POINTS = (
    ("recal.synthgen", "generate_corpus", "synthgen", SPAN, _after_generate),
    ("recal.corpus", "load_corpus", "corpus.ingest", SPAN, None),
    ("recal.corpus", "scan_corpus", "corpus.ingest", SPAN, _after_scan),
    ("recal.corpus", "validate_corpus", "corpus.validate", SPAN, None),
    ("recal.corpus", "independent_citations", "corpus.index", COUNT, _after_independent_citations),
    ("recal.counting", "indicator_value", "counting", COUNT, _after_indicator_value),
    ("recal.counting", "h_index", "counting", COUNT, None),
    ("recal.counting", "indicator_matrix", "counting", SPAN, None),
    ("recal.recalibration", "discipline_performance", "recalibration.apv", SPAN, _after_performance),
    ("recal.recalibration", "top_quartile_apv", "recalibration.apv", SPAN, _after_top_quartile),
    ("recal.recalibration", "recalibrate_all", "recalibration.algebra", SPAN, _after_algebra),
    ("recal.recalibration", "derived_scaled_minimums", "recalibration.algebra", SPAN, _after_algebra),
    ("recal.evaluation", "evaluate_candidate", "evaluation", SPAN, _after_evaluate),
    ("recal.evaluation", "load_threshold_table", "evaluation", SPAN, None),
    ("recal.evaluation", "diff_tables", "evaluation", SPAN, None),
    ("recal.corpus", "save_corpus", "writers", SPAN, _after_writer),
    ("recal.recalibration", "write_recalibration_rows", "writers", SPAN, _after_writer),
    ("recal.recalibration", "write_apv_table", "writers", SPAN, _after_writer),
    ("recal.evaluation", "save_threshold_table", "writers", SPAN, _after_writer),
    ("recal.cli", "main", "cli", SPAN, None),
)

#: Lazily built indexes of ``recal.corpus.Corpus``; the wrapped function runs
#: only on the first access per corpus, so its spans time the index build.
INDEX_PROPERTIES = ("publications_of", "citations_of")
INDEX_BUILD = "corpus.index.build"


class LayerTracer:
    """Spans, self time per layer and counts for the calls made while installed."""

    def __init__(self, clock_origin: float = 0.0):
        self.clock_origin = clock_origin
        self.op_id: int | None = None
        self.spans: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.scanned: set[tuple] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, record_span: bool, after):
        tracer = self
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if record_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent_span
            frame = [0.0, span_id]  # time spent in wrapped callees, nearest span
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_s[layer] += elapsed - frame[0]
                tracer.inclusive_s[name] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                if record_span:
                    spans[span_id] = (
                        name,
                        start - tracer.clock_origin,
                        end - tracer.clock_origin,
                        parent_span,
                        tracer.op_id,
                    )
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for module_name, module in list(sys.modules.items())
            if module is not None and (module_name == "recal" or module_name.startswith("recal."))
        ]
        for module_name, function, layer, record_span, after in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._wrap(original, layer, f"{layer}/{function}", record_span, after)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, value))
                        setattr(module, binding, wrapper)

        corpus_class = sys.modules["recal.corpus"].Corpus
        for prop_name in INDEX_PROPERTIES:
            original = corpus_class.__dict__[prop_name]
            build = self._wrap(original.func, "corpus.index", INDEX_BUILD, SPAN, None)
            replacement = cached_property(build)
            replacement.__set_name__(corpus_class, prop_name)
            self._patches.append((corpus_class, prop_name, original))
            setattr(corpus_class, prop_name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, binding, original = self._patches.pop()
            setattr(owner, binding, original)

    # ------------------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
