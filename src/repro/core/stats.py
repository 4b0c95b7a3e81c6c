"""Small shared statistics helpers for report aggregation.

Every report class (:class:`~repro.engine.server.ResilienceReport`,
:class:`~repro.fleet.report.FleetReport`) needs the same nan-guarded
percentile: a run that served nothing has *no* latency distribution,
and a 0.0 placeholder would read as an impossibly good measurement.
Keeping the guard in one place means the all-shed / zero-served edge
case cannot drift between report types.  The same holds for SLO
attainment: each report counts its own hits and deadline population,
and :func:`slo_attainment` applies the one rule that turns the counts
into a rate.  :func:`json_number` spells the resulting nans the one way
every canonical report JSON renders them.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def nan_percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (q in [0, 100]).

    Returns ``nan`` for an empty sample instead of raising or
    fabricating 0.0 — an empty distribution has no percentiles.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    data = values if isinstance(values, (list, tuple, np.ndarray)) \
        else list(values)
    if len(data) == 0:
        return float("nan")
    return float(np.percentile(data, q))


def slo_attainment(hits: int, with_deadline: int, unserved: int,
                   completed: int) -> float:
    """On-time completions over the deadline-carrying population.

    ``hits`` of the ``with_deadline`` served requests that carried a
    deadline met it; ``unserved`` deadline-carrying requests ended
    without being served (shed, failed, expired).  With no
    deadline-carrying request at all the rate is vacuously 1.0 when
    anything ``completed``, and ``nan`` otherwise: an empty run has no
    evidence either way.
    """
    denominator = with_deadline + unserved
    if denominator == 0:
        return 1.0 if completed else float("nan")
    return hits / denominator


def json_number(value):
    """``value`` as a canonical report JSON field: a float nan becomes
    the string ``"nan"`` (JSON has no nan literal); anything else,
    ``None`` included, passes through unchanged."""
    return "nan" if isinstance(value, float) and math.isnan(value) else value
