"""Benchmark of the recal pipeline: one workload per process, one thread, a
closed loop with one client calling ``recal.cli.main`` in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed`` and written to files the
program then reads. With ``--trace 0`` the run measures the end-to-end
metrics with nothing patched; with ``--trace 1`` it alternates untraced and
traced rounds of a fixed command list and reports per-layer metrics and the
tracing overhead. Outputs are checked after the timed loop, and the last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.
Run artifacts (result.json, trace.json) go to ``bench/.work/<run>/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

_import_start = perf_counter()
import recal  # noqa: E402
import workloads  # noqa: E402  (imports every recal module the workloads drive)
from layertrace import LayerTracer  # noqa: E402
from speed import SpeedGauge  # noqa: E402

IMPORT_S = perf_counter() - _import_start

#: Times the inputs are set up in one run; setup_s takes the median.
SETUP_REPEATS = 3
#: Kept out of every tuning run, for checking a claimed gain on unseen data.
HELD_OUT_SEED = 2006

END_TO_END_UNITS = {"op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_op(value):
    return lambda tracer, ops: value(tracer) / ops


def _self(layer):
    return _per_op(lambda t: t.self_s[layer])


def _count(name):
    return _per_op(lambda t: t.counts[name])


#: name -> ((numerator, value), (denominator, value)), over one traced round.
RATIOS = {
    "corpus.index.distinct_scan_ratio": (
        ("distinct publications scanned per op", lambda t: len(t.scanned)),
        ("citation scans", lambda t: t.counts["corpus.index.citation_scans"]),
    ),
    "counting.useful_ratio": (
        ("indicator values consumed", lambda t: t.counts["counting.values_consumed"]),
        ("indicator values computed", lambda t: t.counts["counting.indicator_calls"]),
    ),
}


def _ratio(name):
    (_, numerator), (_, denominator) = RATIOS[name]
    return lambda t, ops: numerator(t) / denominator(t) if denominator(t) else 0.0


#: name -> (unit, value from one traced round of ``ops`` timing units).
#: Times and counts are per timing unit.
LAYER_METRICS = {
    "synthgen.self_s": ("s", _self("synthgen")),
    "synthgen.pubs": ("count", _count("synthgen.pubs")),
    "writers.self_s": ("s", _self("writers")),
    "writers.bytes": ("bytes", _count("writers.bytes")),
    "corpus.ingest.self_s": ("s", _self("corpus.ingest")),
    "corpus.ingest.rows": ("count", _count("corpus.ingest.rows")),
    "corpus.validate.self_s": ("s", _self("corpus.validate")),
    "corpus.index.self_s": ("s", _self("corpus.index")),
    "corpus.index.build_s": ("s", _per_op(lambda t: t.inclusive_s["corpus.index.build"])),
    "corpus.index.citation_scans": ("count", _count("corpus.index.citation_scans")),
    "corpus.index.distinct_scan_ratio": ("ratio", _ratio("corpus.index.distinct_scan_ratio")),
    "counting.self_s": ("s", _self("counting")),
    "counting.indicator_calls": ("count", _count("counting.indicator_calls")),
    "counting.useful_ratio": ("ratio", _ratio("counting.useful_ratio")),
    "recalibration.apv.self_s": ("s", _self("recalibration.apv")),
    "recalibration.apv.cells": ("count", _count("recalibration.apv.cells")),
    "recalibration.algebra.self_s": ("s", _self("recalibration.algebra")),
    "recalibration.algebra.rows": ("count", _count("recalibration.algebra.rows")),
    "evaluation.self_s": ("s", _self("evaluation")),
    "cli.self_s": ("s", _self("cli")),
}
OVERHEAD = "trace.overhead_ratio"


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond
    it, and its nearest-rank value; (None, None) below twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None, None


def run_units(units, outcomes: list, samples: list, clock=perf_counter, tracer=None, first_op: int = 0) -> float:
    """Execute the units in order; appends one ``(seconds, wall start, wall
    end)`` latency sample per unit and returns the seconds they took.

    Each unit starts from a fully collected heap, so its garbage-collector
    work does not depend on what ran before it."""
    total = 0.0
    for op, unit in enumerate(units, start=first_op):
        gc.collect()
        if tracer is not None:
            tracer.op_id = op
        start = perf_counter()
        results = [workloads.execute(command, clock) for command in unit]
        samples.append((sum(o.seconds for o in results), start, perf_counter()))
        outcomes.extend(results)
        total += samples[-1][0]
    return total


def measure(workload, seconds: float, outcomes: list, samples: list, clock) -> None:
    """Closed loop over rounds until the next round would mostly fall past
    the deadline; at least one round."""
    start = perf_counter()
    index = 0
    while True:
        round_start = perf_counter()
        run_units(workload.round(index), outcomes, samples, clock)
        index += 1
        now = perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            return


def measure_traced(workload, seconds: float, outcomes: list, origin: float):
    """Alternate untraced and traced runs of the fixed trace round, swapping
    which goes first on every pair. Returns the seconds of the untraced and
    of the traced rounds, the tracers and the units per round."""
    plain, traced, tracers = [], [], []
    units = workload.trace_round()
    start = perf_counter()
    op = 0
    while True:
        pair_start = perf_counter()
        for tracing in (False, True) if len(tracers) % 2 == 0 else (True, False):
            if not tracing:
                plain.append(run_units(units, outcomes, [], first_op=op))
            else:
                tracer = LayerTracer(origin)
                tracer.install()
                try:
                    traced.append(run_units(units, outcomes, [], tracer=tracer, first_op=op))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            op += len(units)
        now = perf_counter()
        if now - start + (now - pair_start) / 2 > seconds:
            return plain, traced, tracers, len(units)


def digest_problems(outcomes) -> list[str]:
    seen: dict[str, str] = {}
    problems = []
    for outcome in outcomes:
        first = seen.setdefault(outcome.command.key, outcome.digest)
        if outcome.digest != first:
            problems.append(f"{outcome.command.key}: output differs between repetitions")
    return sorted(set(problems))


def failure_summary(outcomes) -> list[dict]:
    groups: dict[str, dict] = {}
    for outcome in outcomes:
        if outcome.failed:
            entry = groups.setdefault(
                outcome.command.label,
                {"operation": outcome.command.label, "count": 0, "message": outcome.message},
            )
            entry["count"] += 1
    return list(groups.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, scale: int | None = None) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    origin = perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](work, seed)
    if scale is not None:
        workload.scale = scale

    setup: list = []  # the set-ups, then the warm-up unit
    warm_up: list = []
    outcomes: list = []
    samples: list = []
    with SpeedGauge() as gauge:
        for _ in range(SETUP_REPEATS):
            start, net_start = perf_counter(), gauge.clock()
            records = workload.prepare()
            setup.append((gauge.clock() - net_start, start, perf_counter()))
            gc.collect()
        inputs = {path.relative_to(work).as_posix(): workloads.sha256_file(path) for path in workload.inputs()}
        run_units(workload.round(0)[:1], warm_up, setup, gauge.clock)
        if not trace:
            measure(workload, seconds, outcomes, samples, gauge.clock)
    if trace:
        plain, traced, tracers, ops = measure_traced(workload, seconds, outcomes, origin)

    setup_scaled = [gauge.scaled(*s) for s in setup]
    import_scaled = gauge.scaled(IMPORT_S, *setup[0][1:])
    setup_s = import_scaled + statistics.median(setup_scaled[:SETUP_REPEATS]) + setup_scaled[-1]

    problems = digest_problems(warm_up + outcomes) + workload.check(outcomes)
    failed = sum(o.failed for o in outcomes)
    result = {
        "metadata": {
            "workload": name,
            "seed": seed,
            "held_out_seed": HELD_OUT_SEED,
            "trace": int(trace),
            "seconds": seconds,
            "scale": workload.scale,
            "records": records,
            "inputs_sha256": inputs,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "checks": problems,
        "failures": failure_summary(outcomes),
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        per_layer = {
            metric: statistics.median(value(t, ops) for t in tracers)
            for metric, (_, value) in LAYER_METRICS.items()
        }
        result["metrics"] = {
            **{m: {"value": per_layer[m], "unit": unit} for m, (unit, _) in LAYER_METRICS.items()},
            OVERHEAD: {"value": statistics.median(traced) / statistics.median(plain) - 1.0, "unit": "ratio"},
        }
        result["trace"] = {
            "rounds": len(tracers),
            "units_per_round": ops,
            "untraced_round_s": plain,
            "traced_round_s": traced,
            "ratio_bases": {
                metric: {
                    "numerator": numerator,
                    "denominator": denominator,
                    "per_round": [[num(t), den(t)] for t in tracers],
                }
                for metric, ((numerator, num), (denominator, den)) in RATIOS.items()
            },
        }
        write_json(work / "trace.json", {
            "rounds": [
                {
                    "self_s": dict(t.self_s),
                    "inclusive_s": dict(t.inclusive_s),
                    "counts": dict(t.counts),
                    "distinct_scanned": len(t.scanned),
                    "spans": t.span_records(),
                }
                for t in tracers
            ]
        })
    else:
        raw = [net for net, _, _ in samples]
        scaled = [gauge.scaled(*sample) for sample in samples]
        named = [o.seconds for o in outcomes] if workload.named_per_command else raw
        tail_p, tail_value = tail(named)
        per_unit = 1.0 if workload.p50_unit == "s" else 1000.0
        result["named"] = {
            workload.p50_name: {"value": statistics.median(named) * per_unit, "unit": workload.p50_unit},
            workload.tail_name: {
                "value": None if tail_value is None else tail_value * per_unit,
                "unit": workload.p50_unit,
                "percentile": tail_p,
            },
            "setup_s": {
                "value": IMPORT_S + statistics.median(s[0] for s in setup[:SETUP_REPEATS]) + setup[-1][0],
                "unit": "s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "error_rate": {"value": failed / len(outcomes), "unit": "ratio"},
            "samples": {"value": len(named), "unit": "command" if workload.named_per_command else workload.unit},
        }
        values = {
            "op_p50_ms": statistics.median(scaled) * 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
        result["samples"] = {"raw_s": raw, "scaled_s": scaled}
    result["setup"] = {
        "import_s": IMPORT_S,
        "raw_s": [s[0] for s in setup],
        "scaled_s": setup_scaled,
        "probe_s": gauge.tick_s,
    }
    write_json(work / "result.json", result)
    for bulky in ("inputs", "out"):
        shutil.rmtree(work / bulky, ignore_errors=True)
    return result


def write_json(path: Path, document: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def report_lines(result: dict, work: Path) -> list[str]:
    meta = result["metadata"]
    lines = [
        f"workload {meta['workload']}  seed {meta['seed']} (held-out seed {meta['held_out_seed']})  "
        f"trace {meta['trace']}  scale {meta['scale']}x  records {meta['records']}",
        f"python {meta['python']}  cpus {meta['cpu_count']}  inputs "
        + ", ".join(f"{name} {digest[:12]}" for name, digest in meta["inputs_sha256"].items()),
    ]
    if "named" in result:
        lines.append("  unscaled wall-clock figures (the JSON below carries the scaled times):")
    for name, metric in result.get("named", {}).items():
        value = metric["value"]
        text = "n/a (fewer than 20 samples)" if value is None else f"{value:.6g} {metric['unit']}"
        if metric.get("percentile") is not None:
            text += f"  (p{metric['percentile']:g})"
        lines.append(f"  {name:<34} {text}")
    if "trace" in result:
        for name, metric in result["metrics"].items():
            lines.append(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
        for name, base in result["trace"]["ratio_bases"].items():
            numerator, denominator = base["per_round"][0]
            lines.append(f"  {name} = {base['numerator']} / {base['denominator']} = {numerator} / {denominator}")
    lines.append(f"  operations {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"]:
        lines.append(f"  failed {failure['count']}x {failure['operation']}: {failure['message']}")
    for problem in result["checks"]:
        lines.append(f"  CHECK FAILED {problem}")
    lines.append(f"  artifacts in {work.relative_to(ROOT) if work.is_relative_to(ROOT) else work}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(recal.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported recal from {recal.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    for line in report_lines(result, work):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
