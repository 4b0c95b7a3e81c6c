"""SLO-aware gateway admission: the brownout degradation ladder.

Under a flash crowd the gateway should degrade service in deliberate
steps rather than letting queues grow without bound.  The
:class:`BrownoutController` watches fleet *pressure* — outstanding
requests per unit of up-capacity — and walks a tier ladder with
hysteresis (enter thresholds above exit thresholds, so the controller
does not chatter at a boundary):

* **tier 0** — normal service.
* **tier 1** — trim reasoning-token budgets: each admitted request's
  ``max_new_tokens`` is capped at ``trim_fraction`` of its stop length,
  reusing the paper's token-budget control (Section V) as a load-shed
  valve that costs accuracy, not availability.
* **tier 2** — downgrade the model: routing prefers devices serving a
  quantized/smaller registry variant (e.g. ``dsr1-qwen-1.5b-awq-w4``),
  and budgets are trimmed harder.
* **tier 3** — shed: the gateway refuses admission with an explicit
  ``shed`` disposition rather than queueing work it cannot finish.

The hysteresis itself is :class:`PressureLadder`, which the tiered DAG
scheduler (:class:`~repro.tiering.dag.DagRun`) walks with its own
thresholds.  Every tier change is appended to
:attr:`PressureLadder.transitions` (time, from, to); time-to-SLO-recovery
after a storm is read off this log as the last return to tier 0.  The
ladder is pure arithmetic on observed pressure — no wall clock, no RNG —
so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.engine.request import GenerationRequest

#: Number of degradation tiers above normal service.
MAX_TIER = 3


def check_ladder(enter_pressure, exit_pressure) -> None:
    """Validate a :class:`PressureLadder`'s thresholds.

    Each side needs one ascending threshold per tier, and each exit
    threshold must sit strictly below its enter threshold.
    """
    for name, rungs in (("enter_pressure", enter_pressure),
                        ("exit_pressure", exit_pressure)):
        if len(rungs) != MAX_TIER:
            raise ValueError(f"{name} needs {MAX_TIER} thresholds")
        if list(rungs) != sorted(rungs):
            raise ValueError(f"{name} must be ascending")
    for exit_p, enter_p in zip(exit_pressure, enter_pressure):
        if not exit_p < enter_p:
            raise ValueError(
                "each exit_pressure must sit below its enter_pressure")


class PressureLadder:
    """Hysteretic tier ladder driven by observed pressure.

    ``config`` supplies validated ``enter_pressure``/``exit_pressure``
    thresholds (a :class:`BrownoutConfig` or a
    :class:`~repro.tiering.policy.TieringConfig`).
    """

    def __init__(self, config) -> None:
        self.config = config
        self.tier = 0
        self.transitions: list[tuple[float, int, int]] = []

    def observe(self, t: float, pressure: float) -> int:
        """Fold one pressure sample; returns the tier now in force.

        Moves at most one tier per observation in each direction, so a
        pressure spike walks the ladder step-by-step (each step visible
        in the transition log) instead of teleporting to shed.
        """
        cfg = self.config
        tier = self.tier
        if tier < MAX_TIER and pressure >= cfg.enter_pressure[tier]:
            tier += 1
        elif tier > 0 and pressure < cfg.exit_pressure[tier - 1]:
            tier -= 1
        if tier != self.tier:
            self.transitions.append((t, self.tier, tier))
            self.tier = tier
        return self.tier

    def should_shed(self) -> bool:
        """Whether the current tier refuses admission outright."""
        return self.tier >= MAX_TIER

    def max_tier_reached(self) -> int:
        """Deepest tier the ladder ever engaged."""
        return max((to for _, _, to in self.transitions), default=self.tier)


@dataclass(frozen=True)
class BrownoutConfig:
    """Thresholds and knobs for the degradation ladder.

    Pressure is ``outstanding / (devices_up * max_batch_size)`` — the
    number of full fleet batches queued.  The defaults enter tier 1 at
    ~2 batches of backlog and shed only past ~6.
    """

    #: Pressure at which each tier engages (ascending).
    enter_pressure: tuple[float, float, float] = (2.0, 4.0, 6.0)
    #: Pressure below which each tier disengages (hysteresis gap).
    exit_pressure: tuple[float, float, float] = (1.5, 3.0, 4.5)
    #: Token-budget multiplier at tier 1.
    trim_fraction: float = 0.6
    #: Harsher token-budget multiplier at tier 2+.
    deep_trim_fraction: float = 0.4
    #: Floor on a trimmed budget (tokens).
    min_budget_tokens: int = 16
    #: Registry model names preferred while downgrading (tier 2+).
    downgrade_models: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_ladder(self.enter_pressure, self.exit_pressure)
        if not 0 < self.deep_trim_fraction <= self.trim_fraction <= 1:
            raise ValueError(
                "need 0 < deep_trim_fraction <= trim_fraction <= 1")
        if self.min_budget_tokens < 1:
            raise ValueError("min_budget_tokens must be at least 1")


class BrownoutController(PressureLadder):
    """The pressure ladder plus each tier's admission action."""

    def __init__(self, config: BrownoutConfig | None = None):
        super().__init__(config or BrownoutConfig())
        #: Requests whose budgets were trimmed (tiers 1-2).
        self.trimmed = 0
        #: Requests steered toward downgrade models (tier 2).
        self.downgraded = 0
        #: Requests refused admission (tier 3).
        self.shed = 0

    # ------------------------------------------------------------------
    def prefers_downgrade(self) -> bool:
        """Whether routing should steer toward downgrade models."""
        return self.tier >= 2 and bool(self.config.downgrade_models)

    def admit(self, request: GenerationRequest) -> GenerationRequest:
        """Apply the current tier's budget trim to one admitted request.

        Tier 0 returns the request unchanged; tiers 1-2 cap
        ``max_new_tokens`` at a fraction of the request's longest stop
        length (never below ``min_budget_tokens``, never *raising* an
        existing budget).
        """
        if self.tier == 0:
            return request
        cfg = self.config
        fraction = (cfg.trim_fraction if self.tier == 1
                    else cfg.deep_trim_fraction)
        stop = max(request.stop_lengths())
        budget = max(int(stop * fraction), cfg.min_budget_tokens)
        if request.max_new_tokens is not None:
            budget = min(budget, request.max_new_tokens)
        if budget >= stop and request.max_new_tokens is None:
            return request
        self.trimmed += 1
        return dataclasses.replace(request, max_new_tokens=budget)

    # ------------------------------------------------------------------
    def recovered_at(self) -> float | None:
        """Time of the last return to tier 0 (None if never degraded
        or still degraded)."""
        if self.tier != 0 or not self.transitions:
            return None
        t, _, to = self.transitions[-1]
        return t if to == 0 else None
