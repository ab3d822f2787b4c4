"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random

import pytest
import run

run.prepare()

import tracing  # noqa: E402  (needs the src/ path that prepare() adds)
import workloads  # noqa: E402
from eulerchar import graph, spectrum  # noqa: E402

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _result_line(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_declared_metrics_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    declared = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert declared == run.E2E_METRICS
    declared = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert declared == tracing.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_printed_metric_names_match_benchmark_json(capsys):
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "experiment", "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)])
        result = _result_line(capsys)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in doc[key]}


def test_spectrum_count_error_is_counted_not_raised(monkeypatch):
    def stub(g, count, method="secular"):
        raise spectrum.SpectrumCountError("stub: count leaves the Weyl window")

    monkeypatch.setattr(spectrum, "spectrum_with_count", stub)
    op = workloads.recover_op("lasso", graph.preset("lasso"), workloads.CHI["lasso"], 7)
    bench = workloads.Workload("stub", lambda: None, lambda ctx, rng: [op])
    outcomes, _wall, cycles = run.measure(bench, None, 0.0, seed=1, min_cycles=1)
    assert cycles == 1
    assert [(o.name, o.status) for o in outcomes] == [("lasso", "error")]
    assert outcomes[0].detail.startswith("SpectrumCountError: stub")


def test_timings_are_host_scaled_and_op_s_p50_is_the_median_of_kind_medians():
    def ops(name, *seconds, status="ok", scale=1.0):
        return [run.Outcome(name, x, status, busy=x, scale=scale) for x in seconds]

    outcomes = (ops("small", 1.0, 1.1, 9.0) + ops("mid", 4.0, 4.4, 4.8, scale=0.5)
                + ops("big", 5.0, 6.0, 7.0) + ops("k8", 0.5, 0.5, status="error"))
    assert run.op_s_p50(outcomes) == (2.2, 9)
    assert run.ops_per_s(outcomes) == pytest.approx(9 / (11.1 + 6.6 + 18.0 + 1.0))
    assert run.host_scale(0.002, 0.006) == pytest.approx(run.REFERENCE_S / 0.004)


def _mixed_workload() -> workloads.Workload:
    lasso = graph.preset("lasso")
    s = spectrum.secular_spectrum(lasso, 20.0)

    def cycle(ctx, rng: random.Random):
        return [
            workloads.recover_op("lasso", lasso, workloads.CHI["lasso"], rng.getrandbits(32)),
            workloads.trace_op("lasso", lasso, s, 0.5),
            workloads.Op("raises", lambda: 1 / 0, lambda r: None),
            workloads.Op("wrong", lambda: 1, lambda r: f"got {r}, expected 2"),
        ]

    return workloads.Workload("mixed", lambda: None, cycle)


def test_traced_and_untraced_runs_give_identical_outcomes():
    mixed = _mixed_workload()
    plain, _wall, _cycles = run.measure(mixed, None, 0.0, seed=3, min_cycles=1)
    original = spectrum.secular_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectrum.secular_matrix is not original
        traced, _wall, cycles = run.measure(mixed, None, 0.0, seed=3, tracer=tracer, min_cycles=1)
    finally:
        tracer.uninstall()
    assert spectrum.secular_matrix is original
    key = [(o.name, o.status, o.detail) for o in plain]
    assert key == [(o.name, o.status, o.detail) for o in traced]
    assert [o.status for o in plain] == ["ok", "ok", "error", "wrong"]
    metrics = tracer.layer_metrics(cycles, 0.0)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["spectrum.secular.calls"] >= 1
    assert metrics["estimator.recover.s"] > 0.0
    assert metrics["orbits.count"] > 0


def test_self_time_subtracts_covered_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["op.x", 0.0, 10.0, -1, 0, True],
        ["spectrum.secular", 1.0, 8.0, 0, 0, True],
        ["spectrum.matrix", 2.0, 5.0, 1, 0, True],
        ["spectrum.matrix", 6.0, 7.0, 1, 0, True],
    ]
    assert tracer.self_times() == {"op.x": 3.0, "spectrum.secular": 3.0, "spectrum.matrix": 4.0}
