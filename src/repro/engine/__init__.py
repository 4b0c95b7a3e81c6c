"""vLLM-style inference engine simulator.

Turns (model, prompt length, generation plan, batch) into latency, power,
energy, and utilization using the hardware substrate.  The engine follows
the serving structure of vLLM: requests with per-sequence stop
conditions, a paged KV cache, a batch scheduler, and per-step decode
execution — but kernel *timing* comes from :mod:`repro.hardware` instead
of a GPU.
"""

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.frameworks import FrameworkProfile, framework_profile
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.request import GenerationRequest, GenerationResult, SequenceResult
from repro.engine.sampler import SamplingParams
from repro.engine.scheduler import BatchScheduler, ScheduledBatch
from repro.engine.prefix_cache import (
    PrefixCache,
    prefill_with_prefix,
    prefix_caching_speedup,
)
from repro.engine.server import (
    ResilienceReport,
    ServedRequest,
    ServingSimulator,
)
from repro.engine.streaming import (
    StreamingMetrics,
    TokenEvent,
    stream,
    streaming_metrics,
)

__all__ = [
    "BatchScheduler",
    "EngineConfig",
    "FrameworkProfile",
    "GenerationRequest",
    "GenerationResult",
    "InferenceEngine",
    "KVCacheConfig",
    "PagedKVCache",
    "SamplingParams",
    "ResilienceReport",
    "ScheduledBatch",
    "PrefixCache",
    "SequenceResult",
    "ServedRequest",
    "ServingSimulator",
    "StreamingMetrics",
    "TokenEvent",
    "framework_profile",
    "prefill_with_prefix",
    "prefix_caching_speedup",
    "stream",
    "streaming_metrics",
]
