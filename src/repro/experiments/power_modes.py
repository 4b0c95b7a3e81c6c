"""Ablation: how Jetson power modes reshape the latency frontier.

The paper runs everything in MAXN but documents the 15 W / 30 W / 50 W
envelopes (Section IV-B).  This ablation re-characterizes the DSR1
models under each mode: reduced clocks stretch TBT and prefill, shifting
every accuracy-latency operating point right — quantifying what a
thermally-constrained deployment gives up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.engine import InferenceEngine
from repro.engine.request import GenerationRequest
from repro.experiments.report import Table
from repro.hardware.soc import PowerMode, jetson_orin_agx_64gb
from repro.models.registry import get_model

MODES = (PowerMode.MODE_15W, PowerMode.MODE_30W, PowerMode.MODE_50W,
         PowerMode.MAXN)
MODELS = ("dsr1-qwen-1.5b", "dsr1-llama-8b", "dsr1-qwen-14b")


@dataclass(frozen=True)
class PowerModePoint:
    """One (model, power mode) operating point."""

    model: str
    mode: str
    tbt_s: float
    prefill_512_s: float
    query_latency_s: float  # 150-token prompt, 800-token generation


def run_power_mode_study(seed: int = 0) -> list[PowerModePoint]:
    """Measure TBT / prefill / query latency per (model, mode)."""
    base_soc = jetson_orin_agx_64gb()
    points = []
    for name in MODELS:
        model = get_model(name)
        for mode in MODES:
            engine = InferenceEngine(model, soc=base_soc.at_mode(mode))
            tbt = engine.kernels.mean_tbt(engine.profile, 512)
            prefill = engine.kernels.prefill(engine.profile, 512).seconds
            result = engine.generate(GenerationRequest(0, 150, 800))
            points.append(PowerModePoint(
                model=name,
                mode=mode.value,
                tbt_s=tbt,
                prefill_512_s=prefill,
                query_latency_s=result.total_seconds,
            ))
    return points


def power_mode_table(points: list[PowerModePoint] | None = None,
                     seed: int = 0) -> Table:
    """Format the power-mode ablation with slowdowns vs MAXN."""
    points = points if points is not None else run_power_mode_study(seed)
    maxn = {p.model: p for p in points if p.mode == "MAXN"}
    table = Table(
        "Power-mode ablation: latency vs envelope (query = 150 in / 800 out)",
        ["Model", "Mode", "TBT (ms)", "Prefill@512 (s)", "Query (s)",
         "Slowdown vs MAXN"],
    )
    for point in points:
        table.add_row(point.model, point.mode, point.tbt_s * 1e3,
                      point.prefill_512_s, point.query_latency_s,
                      point.query_latency_s / maxn[point.model].query_latency_s)
    return table
