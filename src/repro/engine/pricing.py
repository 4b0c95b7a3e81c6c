"""Exact memoized decode and prefill prices, shared by both cores.

One :class:`Pricing` belongs to each :class:`~repro.engine.server.
ServingSimulator`.  It memoizes only when the simulator is pure (no
faults, thermal model, degradation policy, or power noise), where every
price is a pure function of integer inputs:

* decode: a batch of ``b`` sequences prices step ``j`` at mean context
  ``(ctx_sum + b*j) / b``, and ``decode_step_seconds``/``decode_power``
  are elementwise in it, so dense per-batch tables indexed by the
  integer numerator hold each grid point's price, computed once by the
  very ufunc a direct evaluation calls (scalar and array calls agree
  bitwise);
* prefill: the kernel jitter is a stateless hash, so a batch-1 prefill
  prices equally for equal ``(prompt, cached prefix)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.prefix_cache import prefill_with_prefix

#: Keys above this bypass the tables (no huge tables for no reuse).
_TABLE_KEY_LIMIT = 1 << 22

# ndarray.sum() adds two Python wrapper frames around this very
# reduction, measurable at one call per lookup.
_sum = np.add.reduce


def integrate_span(now: float, energy: float, base: np.ndarray,
                   power: np.ndarray, cut: float) -> tuple[int, float, float]:
    """Spend a priced span; returns ``(steps taken, clock, energy)``.

    Bit-identical to the loop ``now += base[j]; energy += base[j] *
    power[j]`` that stops before any step ``j > 0`` once ``now >= cut``:
    ``cumsum`` adds strictly left to right (unlike ``np.sum``'s pairwise
    tree), a prefix sum does not depend on the steps after it, and the
    nondecreasing clock path puts the first crossing at one binary
    search.
    """
    span = base.shape[0]
    paths = np.empty((2, span + 1))
    paths[0, 0] = now
    paths[0, 1:] = base
    paths[1, 0] = energy
    np.multiply(base, power, out=paths[1, 1:])
    paths.cumsum(axis=1, out=paths)
    taken = span
    if cut < math.inf:
        pos = int(paths[0, 1:span].searchsorted(cut))
        if pos < span - 1:
            taken = pos + 1
    return taken, float(paths[0, taken]), float(paths[1, taken])


class Pricing:
    """One engine's prefill and decode prices, memoized when ``pure``."""

    def __init__(self, engine, pure: bool):
        self.engine = engine
        self.pure = pure
        self._prefill: dict[tuple[int, int], tuple[float, float]] = {}
        #: Per-batch (seconds, watts) arrays keyed by the integer
        #: numerator of the mean context / generated count; NaN = unset.
        self.tables: tuple[dict, dict] = ({}, {})

    def prefill(self, prompt: int, prefix: int = 0) -> tuple[float, float]:
        """(base seconds, watts) of a batch-1 prefill of ``prompt``
        tokens whose first ``prefix`` tokens are cached."""
        key = (prompt, prefix)
        cost = self._prefill.get(key)
        if cost is None:
            stats = prefill_with_prefix(self.engine, prompt, prefix)
            cost = (stats.seconds,
                    self.engine.power.prefill_power(prompt - prefix))
            if self.pure:
                self._prefill[key] = cost
        return cost

    def span(self, batch: int, ctx_sum: int, gen_sum: int,
             steps: int) -> tuple[np.ndarray, np.ndarray]:
        """(seconds, watts) of ``steps`` steps of a stable batch with
        summed context ``ctx_sum`` and summed generated count (this
        step's token included) ``gen_sum``; pure pricing only.  One step
        is a one-key table read.  The arrays may be views into the
        tables: read them, never write them."""
        engine = self.engine
        base = self._lookup(
            self.tables[0], batch, ctx_sum, steps,
            lambda k: engine.kernels.decode_step_seconds(
                engine.profile, k / batch, batch))
        # Clamping at ``batch`` is the direct path's max(mean, 1.0).
        power = self._lookup(
            self.tables[1], batch, gen_sum, steps,
            lambda k: engine.power.decode_power(np.maximum(k, batch) / batch,
                                                batch))
        return base, power

    @staticmethod
    def _lookup(table: dict[int, np.ndarray], batch: int, first: int,
                steps: int, price) -> np.ndarray:
        """Prices of the grid keys ``first + batch*j`` for ``j < steps``:
        a strided slice of the dense per-batch table, where
        ``price(keys)`` fills each never-seen key once."""
        last = first + batch * (steps - 1)
        if last >= _TABLE_KEY_LIMIT:
            return np.asarray(price(np.arange(first, last + 1, batch)),
                              dtype=np.float64)
        tbl = table.get(batch)
        if tbl is None or last >= tbl.shape[0]:
            size = max(last + 257, 0 if tbl is None else 2 * tbl.shape[0])
            grown = np.full(size, np.nan)
            if tbl is not None:
                grown[:tbl.shape[0]] = tbl
            table[batch] = tbl = grown
        vals = tbl[first:last + 1:batch]
        total = _sum(vals)  # nan probe: one reduction beats isnan+any
        if total != total:
            keys = np.arange(first, last + 1, batch)[np.isnan(vals)]
            tbl[keys] = price(keys)
        return vals
