"""Experiment registry facade: run any paper artifact by id.

The registry itself is declarative and lives in
:mod:`repro.pipeline.registry`; each artifact names the shared
intermediates (characterizations, the tradeoff grid, evaluator runs) it
depends on.  This module keeps the historical entry points:

* ``list_experiments()`` — all artifact ids;
* ``run_experiment(id, **kwargs)`` — one artifact, deps resolved through
  a memoizing :class:`~repro.pipeline.store.ArtifactStore`;
* ``run_all(jobs=N)`` — every artifact through the DAG pipeline, shared
  intermediates computed exactly once, independent artifacts scheduled
  concurrently, deterministic output ordering at any job count;
* ``run_all_timed`` — same, returning the per-artifact timing /
  cache-instrumentation report alongside the outputs;
* ``executors_agree(id, seed)`` — whether thread and process pipelines
  render one artifact byte-identically.
"""

from __future__ import annotations

from typing import Any

from repro.pipeline.registry import ARTIFACTS, default_graph
from repro.pipeline.runner import PipelineReport, run_pipeline
from repro.pipeline.store import ArtifactStore


def list_experiments() -> tuple[str, ...]:
    """All artifact ids in the registry."""
    return tuple(sorted(ARTIFACTS))


def run_experiment(artifact_id: str, seed: int = 0,
                   store: ArtifactStore | None = None,
                   smoke: bool = False, **kwargs: Any) -> Any:
    """Run one artifact by id.

    Passing a ``store`` shares memoized intermediates across calls
    (e.g. ``repro reproduce`` builds many artifacts against one store);
    without one, each call uses a fresh in-memory store.
    """
    result = run_pipeline((artifact_id,), seed=seed, store=store,
                          smoke=smoke, extra_kwargs=kwargs)
    return result.outputs[artifact_id]


def render(output: Any) -> str:
    """Render an experiment output (Table/Figure or tuple of them)."""
    if isinstance(output, tuple):
        return "\n\n".join(render(part) for part in output)
    if hasattr(output, "to_text"):
        return output.to_text()
    return str(output)


def executors_agree(artifact_id: str, seed: int) -> bool:
    """Whether thread and process pipelines render one artifact alike.

    Runs ``artifact_id`` (smoke tier, two jobs) through the pipeline
    under each executor and compares the rendered text — the chaos
    gates' executor-identity probe.  Artifacts that embed a report sha
    make byte-equal text mean byte-equal reports.
    """
    rendered = [
        render(run_pipeline([artifact_id], seed=seed, smoke=True, jobs=2,
                            executor=executor).outputs[artifact_id])
        for executor in ("thread", "process")
    ]
    return rendered[0] == rendered[1]


def run_all(seed: int = 0, jobs: int = 1,
            store: ArtifactStore | None = None,
            smoke: bool = False, executor: str = "thread",
            **kwargs: Any) -> dict[str, Any]:
    """Run every artifact; returns id -> output in registry order.

    Every registered callable must accept ``seed`` plus any extra
    ``kwargs``; a mismatch raises :class:`TypeError` naming the artifact
    before anything runs, instead of failing mid-sweep.
    """
    outputs, _ = run_all_timed(seed=seed, jobs=jobs, store=store,
                               smoke=smoke, executor=executor, **kwargs)
    return outputs


def run_all_timed(seed: int = 0, jobs: int = 1,
                  store: ArtifactStore | None = None,
                  smoke: bool = False,
                  keep_going: bool = False,
                  retries: int = 0,
                  timeout_s: float | None = None,
                  faults: Any = None,
                  journal: Any = None,
                  resume: bool = False,
                  executor: str = "thread",
                  **kwargs: Any,
                  ) -> tuple[dict[str, Any], PipelineReport]:
    """``run_all`` plus the pipeline's timing / cache report.

    The supervision knobs (``keep_going``, ``retries``, ``timeout_s``,
    ``faults``, ``journal``, ``resume``) and the ``executor`` selection
    pass straight through to
    :func:`repro.pipeline.runner.run_pipeline`.
    """
    result = run_pipeline(None, seed=seed, jobs=jobs, store=store,
                          smoke=smoke, graph=default_graph(),
                          extra_kwargs=kwargs, keep_going=keep_going,
                          retries=retries, timeout_s=timeout_s,
                          faults=faults, journal=journal, resume=resume,
                          executor=executor)
    return result.outputs, result.report
