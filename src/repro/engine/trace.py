"""Chrome-trace export of simulated generations.

Writes `chrome://tracing` / Perfetto-compatible JSON so a simulated
request can be inspected span-by-span: one span for prefill, one per
decode step (batched into visual groups), with power as a counter
track.  Useful when debugging why a configuration misses its budget.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.engine.engine import InferenceEngine
from repro.engine.request import GenerationRequest

#: Decode steps per aggregated trace span (one span per token is noisy).
STEPS_PER_SPAN = 16


def build_trace(engine: InferenceEngine,
                request: GenerationRequest) -> list[dict]:
    """Build Chrome-trace events for one request.

    Returns the ``traceEvents`` list: duration events (ph="X") for the
    phases and counter events (ph="C") for instantaneous power.
    """
    if request.n != 1:
        raise ValueError("tracing supports single-sample requests")
    stop = request.stop_lengths()[0]
    prefill = engine.kernels.prefill(engine.profile, request.prompt_tokens)
    prefill_s = prefill.seconds * engine.framework.prefill_multiplier
    steps = engine.kernels.decode_step_times(
        engine.profile, request.prompt_tokens, stop)
    steps = steps + engine.framework.decode_step_overhead(1)
    powers = np.asarray(engine.power.decode_power(
        np.arange(1, stop + 1, dtype=float)))

    events: list[dict] = []

    def span(name: str, start_s: float, dur_s: float, **args) -> None:
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": start_s * 1e6, "dur": dur_s * 1e6, "args": args,
        })

    def counter(ts_s: float, watts: float) -> None:
        events.append({
            "name": "power", "ph": "C", "pid": 1,
            "ts": ts_s * 1e6, "args": {"watts": watts},
        })

    span("prefill", 0.0, prefill_s,
         tokens=request.prompt_tokens,
         bandwidth_util=round(prefill.bandwidth_utilization, 3))
    counter(0.0, float(engine.power.prefill_power(request.prompt_tokens)))

    clock = prefill_s
    for start in range(0, stop, STEPS_PER_SPAN):
        end = min(start + STEPS_PER_SPAN, stop)
        duration = float(steps[start:end].sum())
        span(f"decode[{start}:{end}]", clock, duration,
             tokens=end - start,
             mean_tbt_ms=round(duration / (end - start) * 1e3, 3))
        counter(clock, float(powers[start]))
        clock += duration
    counter(clock, engine.power.idle_power())
    return events


def save_trace(engine: InferenceEngine, request: GenerationRequest,
               path: str | Path) -> Path:
    """Write a Chrome-trace JSON file for one request."""
    path = Path(path)
    payload = {
        "traceEvents": build_trace(engine, request),
        "displayTimeUnit": "ms",
        "otherData": {
            "model": engine.model.display_name,
            "device": engine.soc.name,
        },
    }
    path.write_text(json.dumps(payload))
    return path
