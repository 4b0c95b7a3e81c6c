"""Both fleet reports fold one set of winners: hedged traces count once.

Under hedging both copies of a request can finish before the loser is
cancelled.  ``run_trace`` falls back to the scalar core there, and its
trace report must count each request once, exactly as ``run`` does on
the same materialized requests.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    BrownoutConfig,
    FleetGateway,
    HedgeConfig,
    build_fleet,
    trace_report_from_fleet,
)
from repro.workloads import PopulationConfig, population_trace

DEVICES = 3


def _trace(seed, requests=400):
    config = PopulationConfig(requests=requests, mean_turns=3.0, users=200,
                              base_sessions_per_s=2.0,
                              peak_sessions_per_s=3.0, period_s=600.0,
                              deadline_s=30.0)
    return population_trace(np.random.default_rng(seed), config)


def _gateway(*, hedge=True, brownout=False, crashes=0, horizon_s=60.0):
    faults = None
    if crashes:
        faults = FleetFaultSchedule(
            [f"edge-{i:02d}" for i in range(DEVICES)],
            FleetFaultConfig(horizon_s=horizon_s, device_crashes=crashes),
            seed=0)
    fleet = build_fleet(DEVICES, mix="balanced", max_batch_size=2,
                        prefix_cache_mb=8.0, faults=faults)
    return FleetGateway(
        fleet, policy="prefix-affinity", faults=faults,
        hedge=HedgeConfig(min_age_s=0.5, age_factor=1.0) if hedge else None,
        brownout=BrownoutConfig() if brownout else None)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_trace_matches_run(trace, **kwargs):
    """Serve ``trace`` through both entry points; return run's report
    and the trace gateway's core."""
    gateway = _gateway(**kwargs)
    traced = gateway.run_trace(trace)
    report = _gateway(**kwargs).run(trace.materialize())

    assert traced.lost == 0
    assert report.lost == 0
    for field in ("completed", "shed", "failed", "energy_joules",
                  "deadline_hit_rate"):
        assert _same(getattr(traced, field), getattr(report, field)), field
    for q in (50, 95, 99):
        assert _same(getattr(traced, f"p{q}_latency_s"),
                     report.latency_percentile(q))
    assert traced.completed == sum(d.completed for d in traced.devices)
    assert traced.to_json() == trace_report_from_fleet(report).to_json()
    return report, gateway.last_mode


def test_hedged_trace_counts_each_request_once():
    report, mode = _check_trace_matches_run(_trace(0))
    assert mode == "scalar"
    # The scenario must race copies to the finish, or it checks nothing.
    assert report.hedge_wins > 0
    assert (sum(d.report.completed for d in report.devices)
            > report.completed)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 20), hedge=st.booleans(),
       brownout=st.booleans(), crashes=st.integers(0, 2))
def test_trace_and_run_agree_across_control_planes(seed, hedge, brownout,
                                                   crashes):
    trace = _trace(seed, requests=120)
    _check_trace_matches_run(
        trace, hedge=hedge, brownout=brownout, crashes=crashes,
        horizon_s=float(trace.arrival_s[-1]))
