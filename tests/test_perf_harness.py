"""Tests for the perf-regression harness behind ``repro perf``."""

from __future__ import annotations

import json

import pytest

import repro.perf.harness as harness
from repro.perf.harness import (
    BENCH_FILES,
    BenchResult,
    compare_to_baseline,
    list_workloads,
    load_baseline,
    run_benchmarks,
    write_bench_files,
)


def _result(name="serving_fixed_qps", group="engine", value=1.0,
            unit="s", meta=None):
    return BenchResult(name=name, group=group, value=value,
                       repeats=(value,), unit=unit, meta=meta or {})


class TestBenchFiles:
    def test_round_trip(self, tmp_path):
        results = [
            _result("pipeline_cold_smoke", "pipeline", 2.5),
            _result("serving_fixed_qps", "engine", 0.03),
            _result("serving_span_speedup", "engine", 12.0, unit="x",
                    meta={"min": 3.0}),
        ]
        written = write_bench_files(results, tmp_path)
        assert set(written) == {"pipeline", "engine"}
        merged = load_baseline(tmp_path)
        assert merged["pipeline_cold_smoke"]["value"] == 2.5
        assert merged["serving_span_speedup"]["unit"] == "x"
        assert merged["serving_span_speedup"]["meta"]["min"] == 3.0

    def test_filtered_run_keeps_other_group_file(self, tmp_path):
        # A pipeline-only rerun must not clobber BENCH_engine.json.
        write_bench_files([_result("serving_fixed_qps", "engine", 0.03)],
                          tmp_path)
        write_bench_files([_result("pipeline_cold_smoke", "pipeline", 2.0)],
                          tmp_path)
        assert (tmp_path / BENCH_FILES["engine"]).is_file()
        assert (tmp_path / BENCH_FILES["pipeline"]).is_file()

    def test_payload_schema(self, tmp_path):
        write_bench_files([_result()], tmp_path)
        payload = json.loads((tmp_path / BENCH_FILES["engine"]).read_text())
        assert payload["schema"] == 1
        assert "python" in payload["environment"]
        assert "serving_fixed_qps" in payload["workloads"]


class TestBaselineGate:
    def test_passes_within_threshold(self, tmp_path):
        write_bench_files([_result(value=1.0)], tmp_path)
        assert compare_to_baseline([_result(value=1.2)], tmp_path,
                                   threshold=0.25) == []

    def test_fails_beyond_threshold(self, tmp_path):
        write_bench_files([_result(value=1.0)], tmp_path)
        problems = compare_to_baseline([_result(value=1.5)], tmp_path,
                                       threshold=0.25)
        assert len(problems) == 1
        assert "serving_fixed_qps" in problems[0]

    def test_micro_workload_jitter_tolerated(self, tmp_path):
        # Sub-millisecond workloads get absolute slack on top of the
        # fractional threshold, so scheduler noise cannot flap the gate.
        write_bench_files([_result(value=0.0009)], tmp_path)
        assert compare_to_baseline([_result(value=0.003)], tmp_path) == []

    def test_missing_baseline_passes(self, tmp_path):
        assert compare_to_baseline([_result(value=99.0)], tmp_path) == []

    def test_ratio_floor_from_result_meta(self, tmp_path):
        ratio = _result("serving_span_speedup", value=2.0, unit="x",
                        meta={"min": 3.0})
        problems = compare_to_baseline([ratio], tmp_path)
        assert len(problems) == 1
        assert "floor" in problems[0]

    def test_ratio_floor_takes_max_with_baseline(self, tmp_path):
        write_bench_files([_result("serving_span_speedup", value=12.0,
                                   unit="x", meta={"min": 5.0})], tmp_path)
        current = _result("serving_span_speedup", value=4.0, unit="x",
                          meta={"min": 3.0})
        problems = compare_to_baseline([current], tmp_path)
        assert len(problems) == 1
        assert "5.00x floor" in problems[0]

    def test_ratio_above_floor_passes(self, tmp_path):
        ratio = _result("serving_span_speedup", value=10.0, unit="x",
                        meta={"min": 3.0})
        assert compare_to_baseline([ratio], tmp_path) == []


class TestRunBenchmarks:
    def test_only_filter_runs_one_workload(self):
        lines = []
        results = run_benchmarks(repeats=1, only=("evaluator_mmlu_redux",),
                                 log=lines.append)
        assert [r.name for r in results] == ["evaluator_mmlu_redux"]
        assert results[0].value > 0
        assert len(lines) == 1

    def test_unknown_workload_rejected(self):
        # A typo'd --only must not pass the CI gate vacuously.
        with pytest.raises(ValueError, match="unknown perf workload"):
            run_benchmarks(repeats=1, only=("nonsense",))

    def test_serving_speedup_meets_floor(self):
        results = run_benchmarks(repeats=1, only=("serving_span_speedup",))
        (ratio,) = results
        assert ratio.unit == "x"
        # The perf_opt acceptance gate: span pricing >= 3x per-token.
        assert ratio.value >= ratio.meta["min"] == 3.0

    def test_fleet_vector_speedup_meets_floor(self):
        # Two repeats: the bench takes best-of, so one scheduler stall
        # inside the short vector window cannot flap the gate.
        results = run_benchmarks(repeats=2, only=("fleet_vector_speedup",))
        (ratio,) = results
        assert ratio.unit == "x"
        assert ratio.group == "fleet100k"
        # The vectorized event-loop acceptance gate: >= 10x scalar.
        assert ratio.value >= ratio.meta["min"] == 10.0

    def test_fleet_batched_vector_speedup_meets_floor(self):
        results = run_benchmarks(repeats=2,
                                 only=("fleet_batched_vector_speedup",))
        (ratio,) = results
        assert ratio.unit == "x"
        assert ratio.group == "fleet100k"
        assert ratio.meta["max_batch_size"] == 8
        # The batched busy-period kernel's gate: >= 15x scalar.
        assert ratio.value >= ratio.meta["min"] == 15.0

    def test_fleet_tiered_pricing_speedup_meets_floor(self):
        # Three interleaved repeats: single runs on a shared host vary
        # by about 15%, against a ~3.9x ratio and a 2.5x floor.
        results = run_benchmarks(repeats=3,
                                 only=("fleet_tiered_pricing_speedup",))
        (ratio,) = results
        assert ratio.unit == "x"
        assert ratio.group == "tiering"
        # The tiered auto path's gate: table pricing, resumed spans and
        # quiet-tick skipping >= 2.5x the oracle, byte-identical reports.
        assert ratio.value >= ratio.meta["min"] == 2.5


class TestWorkloadCatalog:
    def test_catalog_groups_have_bench_files(self):
        for _, group, _ in list_workloads():
            assert group in BENCH_FILES

    def test_list_workloads_matches_dispatch(self):
        names = [name for name, _, _ in list_workloads()]
        assert names == sorted(set(names), key=names.index)
        assert "fleet_100k" in names
        assert "fleet_vector_speedup" in names
        assert "fleet_batched_vector_speedup" in names
        # The unknown-name error advertises exactly this set.
        with pytest.raises(ValueError) as err:
            run_benchmarks(repeats=1, only=("bogus",))
        for name in names:
            assert name in str(err.value)


class TestBudgetGate:
    def test_budget_blown_fails_without_baseline(self, tmp_path):
        over = _result("fleet_100k", "fleet100k", 99.0,
                       meta={"budget_s": 30.0})
        problems = compare_to_baseline([over], tmp_path)
        assert problems and "budget" in problems[0]

    def test_budget_respected_passes(self, tmp_path):
        under = _result("fleet_100k", "fleet100k", 6.0,
                        meta={"budget_s": 30.0})
        assert compare_to_baseline([under], tmp_path) == []


class TestStageMeta:
    def test_fleet_100k_copies_the_gateway_stages(self, monkeypatch):
        from types import SimpleNamespace

        stages = {"collect": 0.5, "assign": 0.1, "drain": 2.0,
                  "assemble": 0.25}
        counters = {"boundary_repairs": 0, "busy_periods": 7}
        built = []

        def paced_fleet(*_):
            gateway = SimpleNamespace(last_mode=None, last_stages=None,
                                      last_counters=None)

            def run(stream):
                gateway.last_mode, gateway.last_stages = "vector", stages
                gateway.last_counters = counters
                return SimpleNamespace(completed=len(stream))

            gateway.run = run
            return gateway, 1.0

        def paced_stream(qps, requests):
            built.append(requests)
            return range(requests)

        monkeypatch.setattr(harness, "_paced_fleet", paced_fleet)
        monkeypatch.setattr(harness, "_paced_stream", paced_stream)
        meta = harness.bench_fleet_100k(3).meta
        assert meta["stages"] == stages
        assert meta["counters"] == counters
        # One stream for every repeat, built outside the timed region.
        assert built == [100_000]
        assert meta["generate_s"] >= 0.0
