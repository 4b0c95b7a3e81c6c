"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
import run

assert run.use_checkout_source()

import driver  # noqa: E402
from fleet_workloads import (  # noqa: E402
    WORKLOADS,
    BatchedStream,
    PopulationAffinity,
    TieredDag,
)
from measure import (  # noqa: E402
    CheckFailed,
    check_conservation,
    from_fleet_report,
    from_trace_report,
    pool,
)
from spans import Tracer  # noqa: E402


# -- metric extraction ------------------------------------------------------
def test_fleet_report_extraction_matches_the_report():
    workload = BatchedStream(requests=300)
    stream = workload.generate(3, 0)
    prepared = workload.build(stream)
    report = prepared.call()
    outcome = from_fleet_report(report)
    metrics = pool([outcome])
    assert outcome.completed == report.completed == 300
    assert metrics["p50_latency_s"] == report.latency_percentile(50)
    assert metrics["p99_latency_s"] == report.latency_percentile(99)
    on_time = sum(r.latency_s <= workload.deadline_s for r in report.served)
    assert metrics["slo_attainment"] == on_time / report.offered
    assert metrics["energy_per_request_j"] == report.energy_per_request_j
    assert metrics["served_share"] == 1.0
    assert np.all(outcome.ttft_s >= outcome.queue_wait_s)


def test_trace_report_extraction_matches_the_report():
    workload = PopulationAffinity(requests=2000)
    trace = workload.generate(3, 0)
    prepared = workload.build(trace)
    with workload.capture() as rows:
        report = prepared.call()
    assert len(rows) == 1
    outcome = from_trace_report(report, rows[0])
    metrics = pool([outcome])
    assert metrics["p50_latency_s"] == report.p50_latency_s
    assert metrics["p99_latency_s"] == report.p99_latency_s
    # Nothing is shed here, so the two denominators agree.
    assert metrics["slo_attainment"] == pytest.approx(
        report.deadline_hit_rate, abs=1e-12)
    with pytest.raises(CheckFailed):
        from_trace_report(report, rows[0][:-1])


def test_slo_attainment_counts_shed_requests_as_misses():
    workload = BatchedStream(requests=200)
    report = workload.build(workload.generate(3, 0)).call()
    served = pool([from_fleet_report(report)])
    # Five more offered requests, all shed at the gateway.
    doctored = dataclasses.replace(report, offered=report.offered + 5,
                                   gateway_shed=5)
    shed = pool([from_fleet_report(doctored)])
    assert shed["slo_attainment"] == pytest.approx(
        served["slo_attainment"] * 200 / 205)
    assert shed["served_share"] == 200 / 205


# -- conservation -----------------------------------------------------------
def test_conservation_holds_on_real_reports():
    workload = TieredDag(jobs=40, sessions=8)
    outcome, _, _ = driver.serve(workload,
                                 workload.build(workload.generate(3, 0)))
    check_conservation(outcome)
    assert outcome.tiering.children_offered == outcome.offered


def test_conservation_fires_on_a_doctored_report():
    workload = BatchedStream(requests=200)
    report = workload.build(workload.generate(3, 0)).call()
    doctored = dataclasses.replace(report, offered=report.offered + 1)
    with pytest.raises(CheckFailed, match="conservation"):
        check_conservation(from_fleet_report(doctored))


def test_conservation_fires_on_a_doctored_tiering_section():
    workload = TieredDag(jobs=30, sessions=6)
    report = workload.build(workload.generate(3, 0)).call()
    tiering = dataclasses.replace(
        report.tiering, children_offered=report.offered - 1)
    doctored = dataclasses.replace(report, tiering=tiering)
    with pytest.raises(CheckFailed, match="DAG children"):
        check_conservation(from_fleet_report(doctored))


# -- seed plumbing ----------------------------------------------------------
def test_seed_reaches_the_inputs():
    workload = BatchedStream(requests=50)

    def arrivals(seed, index):
        return [f.arrival_s for f in workload.generate(seed, index)]

    assert arrivals(5, 0) == arrivals(5, 0)
    assert arrivals(5, 0) != arrivals(6, 0)
    assert arrivals(5, 0) != arrivals(5, 1)


def test_command_line_seed():
    args = driver.parse_args(["--workload", "tiered_dag", "--seed", "7",
                              "--seconds", "3", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == (
        "tiered_dag", 7, 3, 1)
    assert driver.parse_args(["--workload", "tiered_dag"]).seed == \
        driver.DEFAULT_SEED
    with pytest.raises(SystemExit):
        driver.parse_args(["--workload", "no_such_workload"])


def test_untraced_run_is_seeded_and_reports_every_metric():
    first = driver.run_untraced(BatchedStream(requests=300), 4, 1)
    again = driver.run_untraced(BatchedStream(requests=300), 4, 1)
    other = driver.run_untraced(BatchedStream(requests=300), 5, 1)
    names = [name for name, _ in driver.END_TO_END]
    assert sorted(first["metrics"]) == sorted(names)
    assert all(first["metrics"][name] > 0 for name in names)
    simulated = ("p50_latency_s", "p99_latency_s", "slo_attainment",
                 "energy_per_request_j")
    assert all(first["metrics"][m] == again["metrics"][m] for m in simulated)
    assert any(first["metrics"][m] != other["metrics"][m] for m in simulated)
    assert first["oracle"] == 300


# -- tracing ----------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 2],
                    ["b", 5.0, 6.0, 0, 0], ["a", 2.0, 3.0, 1, 1]]
    totals = tracer.totals()
    assert totals["root"]["self_s"] == 6.0
    assert totals["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0,
                           "count": 3}


def test_traced_run_restores_entry_points_and_writes_chrome_trace(tmp_path):
    from repro.fleet import FleetGateway

    original = FleetGateway.run
    path = tmp_path / "trace.json"
    result = driver.run_traced(BatchedStream(requests=200), 3, 1, path)
    assert FleetGateway.run is original
    names = [name for name, _ in driver.PER_LAYER]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["vector_run.requests"] == 400
    events = json.loads(path.read_text())["traceEvents"]
    assert {"FleetGateway.run", "VectorServingRun.execute"} <= {
        e["name"] for e in events}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_benchmark_json_lists_the_driver_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        driver.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        driver.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
