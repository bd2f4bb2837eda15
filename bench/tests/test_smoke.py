"""Smoke test of the benchmark: every workload reports every metric named in
BENCHMARK.json, with its unit, and passes its output checks. Asserts no
timing. The corpus workloads run at 1x here to stay quick.

    python -m pytest bench/tests
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reports_every_metric_and_passes_checks(name, trace, tmp_path):
    scale = 1 if run.workloads.WORKLOADS[name].scale else None
    result = run.run_workload(name, seed=3, seconds=0.1, trace=bool(trace), work=tmp_path, scale=scale)

    assert result["checks"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    metadata = result["metadata"]
    assert metadata["seed"] == 3 and metadata["held_out_seed"] != 3
    assert metadata["inputs_sha256"] and metadata["python"] and metadata["cpu_count"]
    if trace:
        rounds = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))["rounds"]
        assert rounds and all(r["spans"] for r in rounds)
        assert {"name", "start", "end", "parent", "op"} <= set(rounds[0]["spans"][0])
    else:
        workload = run.workloads.WORKLOADS[name]
        named = result["named"]
        assert {workload.p50_name, workload.tail_name, "setup_s", "peak_rss_mb", "error_rate"} <= set(named)
        assert named["error_rate"]["value"] == result["failed"] / result["attempted"]
    assert result["failed"] == sum(f["count"] for f in result["failures"])

