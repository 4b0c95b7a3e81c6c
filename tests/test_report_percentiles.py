"""Percentile edge cases: all-shed and zero-served reports.

Before ``core/stats.nan_percentile``, each report class hand-rolled its
percentile guard and an empty ``served`` list could crash
``np.percentile`` (or worse, return a misleading 0.0).  These
regressions pin the shared helper's contract across both report
types: empty populations yield ``nan``, canonical JSON renders it as
the string ``"nan"``, and real percentiles still come out of
``np.percentile`` untouched.
"""

import json
import math

import numpy as np
import pytest

from repro.core.stats import nan_percentile
from repro.engine.server import ResilienceReport
from repro.fleet.report import FleetReport


class TestNanPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(nan_percentile([], 95))

    def test_matches_numpy_on_data(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert nan_percentile(values, 50) == float(np.percentile(values, 50))

    def test_single_value(self):
        assert nan_percentile([2.5], 95) == 2.5

    @pytest.mark.parametrize("q", [-1.0, 101.0])
    def test_rejects_out_of_range_q(self, q):
        with pytest.raises(ValueError):
            nan_percentile([1.0], q)


class TestZeroServedServingReport:
    def _empty(self):
        return ResilienceReport(served=[], wallclock_s=0.0,
                                energy_joules=0.0, offered_qps=0.0)

    def test_percentiles_are_nan(self):
        report = self._empty()
        assert math.isnan(report.latency_percentile(50))
        assert math.isnan(report.latency_percentile(95))

    def test_hit_rate_is_nan(self):
        assert math.isnan(self._empty().deadline_hit_rate)

    def test_json_renders_nan_strings(self):
        payload = json.loads(self._empty().to_json())
        assert payload["p50_latency_s"] == "nan"
        assert payload["p95_latency_s"] == "nan"
        assert payload["deadline_hit_rate"] == "nan"


class TestAllShedResilienceReport:
    def _all_shed(self, offered=5):
        return ResilienceReport(served=[], wallclock_s=1.0,
                                energy_joules=0.0, offered_qps=5.0,
                                offered=offered, shed=offered)

    def test_percentiles_are_nan(self):
        report = self._all_shed()
        assert math.isnan(report.latency_percentile(95))

    def test_json_is_valid_and_tallies(self):
        report = self._all_shed()
        payload = json.loads(report.to_json())
        assert payload["shed"] == 5
        assert payload["completed"] == 0
        assert payload["p95_latency_s"] == "nan"


class TestZeroServedFleetReport:
    def _empty_fleet(self):
        return FleetReport(policy="round-robin", offered=0, rerouted=0,
                           devices=())

    def test_percentiles_are_nan(self):
        report = self._empty_fleet()
        assert math.isnan(report.latency_percentile(50))
        assert math.isnan(report.latency_percentile(95))
        assert math.isnan(report.deadline_hit_rate)
        assert math.isnan(report.energy_per_request_j)

    def test_json_renders_nan_strings(self):
        payload = json.loads(self._empty_fleet().to_json())
        assert payload["p50_latency_s"] == "nan"
        assert payload["p95_latency_s"] == "nan"
        assert payload["deadline_hit_rate"] == "nan"
        assert payload["lost"] == 0

    def test_gateway_shed_only_run(self):
        """A fleet that shed everything still balances conservation."""
        report = FleetReport(policy="round-robin", offered=7, rerouted=0,
                             devices=(), gateway_shed=7)
        assert report.completed == 0
        assert report.lost == 0
        assert math.isnan(report.latency_percentile(95))
