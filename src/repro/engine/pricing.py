"""Exact memoized decode and prefill prices, shared by both cores.

Every pure :class:`~repro.engine.server.ServingSimulator` (no faults,
thermal model, degradation policy, or power noise) prices through
:meth:`Pricing.shared`: one memoizing instance per engine spec
``(model, soc, config)`` for the life of the process, so fresh
simulators and fleets of an equal spec reuse each other's prices.  Its
tables only grow, each bounded per batch size by ``_TABLE_KEY_LIMIT``.
An impure simulator keeps a private instance that memoizes nothing.
Memoizing is exact because on a pure engine every price is a pure
function of integer inputs:

* decode: a batch of ``b`` sequences prices step ``j`` at mean context
  ``(ctx_sum + b*j) / b``, and ``decode_step_seconds``/``decode_power``
  are elementwise in it, so dense per-batch tables indexed by the
  integer numerator hold each grid point's price, computed once by the
  very ufunc a direct evaluation calls (scalar and array calls agree
  bitwise);
* prefill: the kernel jitter is a stateless hash, so a batch-1 prefill
  prices equally for equal ``(prompt, cached prefix)``, and dense tables
  hold those prices: one ``(2, size)`` (seconds, watts) table per cached
  prefix, indexed by prompt, NaN = unset, each priced key computed once
  by the calls a direct evaluation makes.  They cost 16 bytes per
  prompt up to the largest prompt seen (at most twice that after a
  geometric growth), per cached prefix value; prompts past
  ``_TABLE_KEY_LIMIT`` are priced directly and stored nowhere.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.engine import InferenceEngine
from repro.engine.prefix_cache import prefill_with_prefix

#: Keys above this bypass the tables (no huge tables for no reuse).
_TABLE_KEY_LIMIT = 1 << 22

# ndarray.sum() adds two Python wrapper frames around this very
# reduction, measurable at one call per lookup.
_sum = np.add.reduce


def span_path(now: float, energy: float, base: np.ndarray,
              power: np.ndarray) -> np.ndarray:
    """The clock/energy path of a priced span: a ``(2, L + 1)`` array
    whose column ``j`` is ``(clock, energy)`` after ``j`` steps.

    Bit-identical to the loop ``now += base[j]; energy += base[j] *
    power[j]``: ``cumsum`` adds strictly left to right (unlike
    ``np.sum``'s pairwise tree), and a prefix sum does not depend on the
    steps after it.  The same keys continued from an equal column
    therefore give an equal path, which is what lets a run resume a
    stored path instead of pricing the rest of it again.
    """
    span = base.shape[0]
    path = np.empty((2, span + 1))
    path[0, 0] = now
    path[0, 1:] = base
    path[1, 0] = energy
    np.multiply(base, power, out=path[1, 1:])
    path.cumsum(axis=1, out=path)
    return path


def cut_span(path: np.ndarray, start: int, stop: int, cut: float) -> int:
    """Column where a spend from column ``start`` of ``path`` stops.

    Step ``start`` always runs; each later step ``j < stop`` runs only
    while the clock before it, ``path[0, j]``, is below ``cut``.  The
    clock path is nondecreasing, so the first crossing is one binary
    search.
    """
    if cut < math.inf:
        end = start + 1 + int(path[0, start + 1:stop].searchsorted(cut))
        if end < stop:
            return end
    return stop


def integrate_span(now: float, energy: float, base: np.ndarray,
                   power: np.ndarray, cut: float) -> tuple[int, float, float]:
    """Spend a priced span; returns ``(steps taken, clock, energy)``:
    :func:`span_path` cut from its first column by :func:`cut_span`."""
    path = span_path(now, energy, base, power)
    taken = cut_span(path, 0, base.shape[0], cut)
    return taken, float(path[0, taken]), float(path[1, taken])


class Pricing:
    """One engine's prefill and decode prices, memoized when ``pure``.

    Engines with equal model, SoC and config price equally, so one
    instance may serve several simulators, on several threads at once:
    a race at worst prices a key twice or fills a table that a
    concurrent growth then drops, and every write stores the same bits.
    """

    #: :meth:`shared`'s instances, keyed by engine spec.
    _registry: dict[tuple, "Pricing"] = {}

    def __init__(self, engine, pure: bool):
        self.engine = engine
        self.pure = pure
        #: Per cached prefix, the batch-1 prefill table: a ``(2, size)``
        #: (seconds, watts) array indexed by prompt, NaN = unset, and a
        #: memoryview of each row, whose reads give Python floats.
        self.prefill_tables: dict[
            int, tuple[np.ndarray, memoryview, memoryview]] = {}
        #: Per-batch (seconds, watts) arrays keyed by the integer
        #: numerator of the mean context / generated count; NaN = unset.
        self.tables: tuple[dict, dict] = ({}, {})

    @classmethod
    def shared(cls, engine) -> "Pricing":
        """The process-wide memoizing pricing of ``engine``'s spec.

        One instance per ``(model, soc, config)``, all three frozen
        dataclasses that fix every price.  It prices through its own
        engine, built from that spec, so the memory-traffic telemetry
        of its memo misses lands there and on no caller's engine.
        Threads that race to create an entry all get the winner.
        """
        if engine.config.power_noise_std != 0:
            raise ValueError("a noisy engine's prices are not pure")
        key = (engine.model, engine.soc, engine.config)
        pricing = cls._registry.get(key)
        if pricing is None:
            pricing = cls._registry.setdefault(key, cls(
                InferenceEngine(engine.model, engine.soc, engine.config),
                pure=True))
        return pricing

    def prefill(self, prompt: int, prefix: int = 0) -> tuple[float, float]:
        """(base seconds, watts) of a batch-1 prefill of ``prompt``
        tokens whose first ``prefix`` tokens are cached: a one-key read
        of the prefill tables (a miss prices and stores the key)."""
        try:
            _, seconds, watts = self.prefill_tables[prefix]
            cost = seconds[prompt]
        except (KeyError, IndexError):
            cost = math.nan
        if cost == cost:
            return cost, watts[prompt]
        cost = self._price_prefill(prompt, prefix)
        if self.pure and prompt < _TABLE_KEY_LIMIT:
            self._prefill_table(prefix, prompt)[:, prompt] = cost
        return cost

    def prefills(self, prompt: np.ndarray,
                 cached: np.ndarray) -> np.ndarray:
        """``(2, n)`` prefill (seconds, watts): :meth:`prefill` of each
        ``(prompt[k], cached[k])``, bit for bit, with one gather per
        distinct cached prefix.  Each never-seen key is priced once."""
        prices = np.empty((2, prompt.shape[0]))
        if not prompt.shape[0]:
            return prices
        if not self.pure or int(prompt.max()) >= _TABLE_KEY_LIMIT:
            prefill = self.prefill
            for k, key in enumerate(zip(prompt.tolist(), cached.tolist())):
                prices[:, k] = prefill(*key)
            return prices
        # Cached prefixes are shorter than their prompts: a small count.
        values = np.flatnonzero(np.bincount(cached)).tolist()
        for value in values:
            rows = (np.flatnonzero(cached == value) if len(values) > 1
                    else slice(None))
            keys = prompt[rows]
            table = self._prefill_table(value, int(keys.max()))
            got = table[:, keys]
            total = _sum(got[0])  # nan probe, as in ``_lookup``
            if total != total:
                for key in np.unique(keys[np.isnan(got[0])]).tolist():
                    table[:, key] = self._price_prefill(key, value)
                got = table[:, keys]
            prices[:, rows] = got
        return prices

    def _price_prefill(self, prompt: int, cached: int) -> tuple[float, float]:
        """A batch-1 prefill's (seconds, watts), priced directly."""
        return (prefill_with_prefix(self.engine, prompt, cached).seconds,
                self.engine.power.prefill_power(prompt - cached))

    def _prefill_table(self, cached: int, last: int) -> np.ndarray:
        """The prefill table of ``cached``, grown to hold prompt
        ``last`` (geometrically, as :meth:`_lookup` grows)."""
        entry = self.prefill_tables.get(cached)
        if entry is not None and last < entry[0].shape[1]:
            return entry[0]
        size = max(last + 257, 0 if entry is None else 2 * entry[0].shape[1])
        table = np.full((2, size), np.nan)
        if entry is not None:
            table[:, :entry[0].shape[1]] = entry[0]
        self.prefill_tables[cached] = (table, memoryview(table[0]),
                                       memoryview(table[1]))
        return table

    def span(self, batch: int, ctx_sum: int, gen_sum: int, steps: int,
             stride: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(seconds, watts) of ``steps`` steps of a stable batch with
        summed context ``ctx_sum`` and summed generated count (this
        step's token included) ``gen_sum``; pure pricing only.  One step
        is a one-key table read.  ``stride=1`` reads ``steps``
        consecutive keys of each table instead of one span's keys (step
        ``j`` of a span is key ``+ batch*j``).  The arrays may be views
        into the tables: read them, never write them."""
        engine = self.engine
        stride = batch if stride is None else stride
        base = self._lookup(
            self.tables[0], batch, ctx_sum, steps, stride,
            lambda k: engine.kernels.decode_step_seconds(
                engine.profile, k / batch, batch))
        # Clamping at ``batch`` is the direct path's max(mean, 1.0).
        power = self._lookup(
            self.tables[1], batch, gen_sum, steps, stride,
            lambda k: engine.power.decode_power(np.maximum(k, batch) / batch,
                                                batch))
        return base, power

    @staticmethod
    def _lookup(table: dict[int, np.ndarray], batch: int, first: int,
                steps: int, stride: int, price) -> np.ndarray:
        """Prices of the grid keys ``first + stride*j`` for ``j < steps``:
        a strided slice of the dense per-batch table, where
        ``price(keys)`` fills each never-seen key once."""
        last = first + stride * (steps - 1)
        if last >= _TABLE_KEY_LIMIT:
            return np.asarray(price(np.arange(first, last + 1, stride)),
                              dtype=np.float64)
        tbl = table.get(batch)
        if tbl is None or last >= tbl.shape[0]:
            size = max(last + 257, 0 if tbl is None else 2 * tbl.shape[0])
            grown = np.full(size, np.nan)
            if tbl is not None:
                grown[:tbl.shape[0]] = tbl
            table[batch] = tbl = grown
        vals = tbl[first:last + 1:stride]
        total = _sum(vals)  # nan probe: one reduction beats isnan+any
        if total != total:
            keys = np.arange(first, last + 1, stride)[np.isnan(vals)]
            tbl[keys] = price(keys)
        return vals
