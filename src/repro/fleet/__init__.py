"""Multi-device fleet serving: gateway routing over heterogeneous edges.

The paper characterizes one Jetson; this package answers the fleet
question its Section III-B cost analysis implies — what N heterogeneous
edge boxes behind a gateway deliver.  The pieces:

* :class:`DeviceSpec` / :class:`FleetDevice` — one edge box
  (model x power mode x thermal x prefix cache) wrapping a per-device
  :class:`~repro.engine.server.ServingSimulator` driven incrementally;
* :class:`FleetGateway` — the deterministic global event loop with
  pluggable routing (:data:`ROUTING_POLICIES`) and crash re-routing
  against a :class:`~repro.faults.FleetFaultSchedule`;
* :class:`FleetReport` — fleet SLO attainment, energy, throughput, and
  cost-per-Mtok, canonically serializable for byte-identity gates.

Helpers :func:`build_fleet` and :func:`poisson_stream` construct the
standard heterogeneous fleets and seeded arrival streams the CLI,
experiments, and planner share.
"""

from __future__ import annotations

import numpy as np

from repro.engine.request import GenerationRequest
from repro.fleet.autoscale import (
    LEGAL_TRANSITIONS,
    AutoscaleConfig,
    AutoscaleController,
    AutoscaleReport,
    LifecycleState,
)
from repro.fleet.brownout import BrownoutConfig, BrownoutController
from repro.fleet.device import DeviceSpec, FleetDevice
from repro.fleet.gateway import (
    ROUTING_POLICIES,
    FleetGateway,
    FleetRequest,
    HedgeConfig,
)
from repro.fleet.health import (
    BreakerState,
    CircuitBreaker,
    HealthConfig,
)
from repro.fleet.report import DeviceOutcome, FleetReport
from repro.fleet.trace import (
    FleetTraceReport,
    TraceDeviceSummary,
    trace_report_from_fleet,
)
from repro.workloads.arrivals import poisson_arrivals

#: Power-mode cycles for the named fleet mixes.
FLEET_MIXES: dict[str, tuple[str, ...]] = {
    "maxn": ("MAXN",),
    "balanced": ("MAXN", "30W"),
    "efficiency": ("30W", "15W"),
}


def build_fleet(count: int, mix: str = "balanced",
                model: str = "dsr1-qwen-1.5b",
                max_batch_size: int = 8,
                prefix_cache_mb: float = 0.0,
                faults: "object | None" = None,
                name_prefix: str = "edge",
                models: "tuple[str, ...] | None" = None
                ) -> list[FleetDevice]:
    """Construct ``count`` devices cycling the mix's power modes.

    ``faults`` is an optional
    :class:`~repro.faults.FleetFaultSchedule`; each device receives its
    own derate injector (brownouts + thermal caps) from it.  ``models``
    cycles heterogeneous registry models across the fleet (overriding
    ``model``) — the overload studies use this to include quantized
    downgrade-variant replicas for brownout tier 2.  Device names are
    ``prefix-NN`` so sorted order equals construction order here, but
    nothing downstream relies on that.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if models is not None and not models:
        raise ValueError("models must be non-empty when given")
    try:
        modes = FLEET_MIXES[mix]
    except KeyError:
        raise ValueError(f"unknown mix {mix!r}; choose from "
                         f"{sorted(FLEET_MIXES)}") from None
    devices = []
    for i in range(count):
        spec = DeviceSpec(
            name=f"{name_prefix}-{i:02d}",
            model=models[i % len(models)] if models is not None else model,
            power_mode=modes[i % len(modes)],
            max_batch_size=max_batch_size,
            prefix_cache_mb=prefix_cache_mb,
        )
        injector = faults.injector_for(spec.name) if faults is not None \
            else None
        devices.append(FleetDevice(spec, faults=injector))
    return devices


def poisson_stream(rng: np.random.Generator, qps: float, num_requests: int,
                   prompt_tokens: int = 150, output_tokens: int = 192,
                   deadline_s: float | None = None,
                   sessions: int = 0,
                   prefix_tokens: int = 0) -> list[FleetRequest]:
    """A seeded Poisson arrival stream for the gateway.

    ``sessions > 0`` tags each request with a session key drawn uniformly
    from that many sticky sessions (for prefix-affinity studies), each
    sharing a ``prefix_tokens``-token prompt prefix.
    """
    arrivals = poisson_arrivals(rng, qps, num_requests)
    session_ids = (rng.integers(sessions, size=num_requests)
                   if sessions > 0 else None)
    stream = []
    for i in range(num_requests):
        stream.append(FleetRequest(
            request=GenerationRequest(i, prompt_tokens, output_tokens),
            arrival_s=float(arrivals[i]),
            deadline_s=deadline_s,
            session=(f"session-{int(session_ids[i])}"
                     if session_ids is not None else None),
            prefix_tokens=prefix_tokens if session_ids is not None else 0,
        ))
    return stream


__all__ = [
    "AutoscaleConfig",
    "AutoscaleController",
    "AutoscaleReport",
    "BreakerState",
    "BrownoutConfig",
    "BrownoutController",
    "CircuitBreaker",
    "DeviceOutcome",
    "DeviceSpec",
    "FLEET_MIXES",
    "FleetDevice",
    "FleetGateway",
    "FleetReport",
    "FleetRequest",
    "FleetTraceReport",
    "HealthConfig",
    "HedgeConfig",
    "LEGAL_TRANSITIONS",
    "LifecycleState",
    "ROUTING_POLICIES",
    "TraceDeviceSummary",
    "build_fleet",
    "poisson_stream",
    "trace_report_from_fleet",
]
