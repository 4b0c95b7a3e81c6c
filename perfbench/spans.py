"""Span tracing from outside the program, for the traced run only.

:class:`Tracer` wraps the program's public entry points (see
:data:`ENTRY_POINTS`) while it is installed and records one span per
call: name, start, end, parent span and, for entry points that report
one, a work count read from the call's result.  Spans stay in memory
and are written once, as Chrome-trace JSON that Perfetto opens, after
the run ends.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections.abc import Callable, Iterator
from pathlib import Path

import repro.fleet.gateway as gateway_module
import repro.fleet.trace as trace_module
from repro.engine.vector_run import VectorServingRun
from repro.fleet import FleetDevice, FleetGateway
from repro.tiering.dag import DagRun
from repro.workloads import agentic, population

#: (owner, attribute, span name, work count read from the result).
ENTRY_POINTS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (population, "population_trace", "population_trace", None),
    (agentic, "agentic_suite", "agentic_suite", None),
    (FleetGateway, "run_trace", "FleetGateway.run_trace", None),
    (FleetGateway, "run", "FleetGateway.run", None),
    (VectorServingRun, "execute_arrays", "VectorServingRun.execute_arrays",
     lambda arrays: arrays.n),
    (VectorServingRun, "execute", "VectorServingRun.execute",
     lambda report: report.offered),
    (gateway_module, "assemble_trace_report", "assemble_trace_report",
     None),
    (trace_module, "assemble_trace_report", "assemble_trace_report", None),
    (FleetDevice, "advance_to", "FleetDevice.advance_to", None),
    (FleetDevice, "inject", "FleetDevice.inject", None),
    (DagRun, "admit", "DagRun.admit", None),
    (DagRun, "ready_children", "DagRun.ready_children", None),
    (DagRun, "aggregate", "DagRun.aggregate", None),
)


class Tracer:
    """In-memory span recorder; single-threaded, strictly nested."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent index, count]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[4] = count(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Wrap every entry point; restore the originals on exit."""
        originals = [(owner, attribute, vars(owner)[attribute])
                     for owner, attribute, _, _ in ENTRY_POINTS]
        try:
            for (owner, attribute, name, count), (_, _, fn) in zip(
                    ENTRY_POINTS, originals):
                setattr(owner, attribute, self.wrap(name, fn, count))
            yield self
        finally:
            for owner, attribute, fn in originals:
                setattr(owner, attribute, fn)

    # -- reductions -----------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts.

        A span's self time is its duration minus the time its child
        spans cover; children of one parent never overlap here.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, count) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[index]
            entry["count"] += count
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome-trace "complete" events."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": index, "parent": parent, "count": count}}
            for index, (name, start, end, parent, count)
            in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
