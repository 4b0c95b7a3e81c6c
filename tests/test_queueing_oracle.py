"""A queueing-theory oracle for batch-1 FCFS devices.

A fault-free batch-1 FCFS device is a single-server queue: request
``k`` (in ready order) starts at ``max(arrival_k, finish_{k-1})`` and
holds the server for its own service time.  This module prices every
service time on its own — closed-form prefill (the suffix prefill on a
warm prefix, from an independent LRU pass) plus the closed-form decode
span ``KernelEngine.decode_span_seconds`` — runs Lindley's recursion
over those prices, and holds both serving cores to it.  It shares no
span, table or clock code with either core, so a core that drops,
repeats or misprices one decode step fails here even if the two cores
agree with each other.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.engine.prefix_cache import prefill_with_prefix
from repro.engine.request import GenerationRequest
from repro.fleet import FleetGateway, FleetRequest, build_fleet

RTOL = 1e-9


def _stream(seed, n, load):
    """Batch-1 requests over a few sessions, each with a shared prefix."""
    rng = np.random.default_rng(seed)
    sessions = rng.integers(0, 6, n)
    prefix = rng.integers(16, 300, 6)[sessions]
    prompt = prefix + rng.integers(1, 300, n)
    output = rng.integers(1, 260, n)
    # Mean gap over the mean service time (~3.4 s at MAXN).
    arrivals = np.cumsum(rng.exponential(3.4 / load, n))
    return [FleetRequest(GenerationRequest(i, int(prompt[i]),
                                           int(output[i])),
                         float(arrivals[i]), session=f"s{sessions[i]}",
                         prefix_tokens=int(prefix[i]))
            for i in range(n)]


def _service_times(engine, stream, cache_bytes):
    """Each request's service time, by an independent LRU pass."""
    lru: OrderedDict[str, int] = OrderedDict()
    per_token = engine.model.kv_bytes_per_token
    service = {}
    for freq in sorted(stream, key=lambda f: f.arrival_s):
        request = freq.request
        prompt = request.prompt_tokens
        cached = 0
        prefix = min(freq.prefix_tokens, prompt - 1)
        if cache_bytes and prefix > 0:
            # A lookup refreshes recency even when the length differs.
            held = lru.get(freq.session)
            if held is not None:
                lru.move_to_end(freq.session)
            if held == prefix:
                cached = prefix
            elif prefix * per_token <= cache_bytes:
                # Evict least recent first (the stale entry still counts).
                while sum(lru.values(), prefix) * per_token > cache_bytes:
                    lru.popitem(last=False)
                lru.pop(freq.session, None)
                lru[freq.session] = prefix
        steps = max(max(request.stop_lengths()), 1)
        service[request.request_id] = (
            prefill_with_prefix(engine, prompt, cached).seconds
            + engine.kernels.decode_span_seconds(engine.profile, prompt,
                                                 steps))
    return service


def _lindley(stream, service):
    """(start, finish) per request id from the single-server recursion."""
    finish_prev = 0.0
    clocks = {}
    for freq in sorted(stream, key=lambda f: f.arrival_s):
        rid = freq.request.request_id
        start = max(freq.arrival_s, finish_prev)
        finish_prev = start + service[rid]
        clocks[rid] = (start, finish_prev)
    return clocks


@pytest.mark.parametrize("prefix_cache_mb", [0.0, 8.0, 64.0])
@pytest.mark.parametrize("seed,load", [(0, 0.3), (1, 0.7), (2, 0.95)])
def test_both_cores_obey_lindley(seed, load, prefix_cache_mb):
    stream = _stream(seed, 150, load)
    expected = None
    for mode in ("scalar", "auto"):
        gateway = FleetGateway(
            build_fleet(1, max_batch_size=1,
                        prefix_cache_mb=prefix_cache_mb),
            policy="prefix-affinity", mode=mode)
        report = gateway.run(stream)
        assert gateway.last_mode == mode.replace("auto", "vector")
        if expected is None:
            engine = gateway.devices[0].engine
            expected = _lindley(stream, _service_times(
                engine, stream, prefix_cache_mb * 1e6))
        served = report.devices[0].report.served
        assert len(served) == len(stream)
        got = np.array([(r.start_s, r.finish_s) for r in served])
        want = np.array([expected[r.request_id] for r in served])
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)
    if prefix_cache_mb:
        assert report.devices[0].prefix_hits > 0
