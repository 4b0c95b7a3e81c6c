"""Per-(model, benchmark) accuracy profiles.

We cannot run the real model weights, so each model's *measured*
accuracy-vs-token behaviour from the paper's evaluation (Tables X-XV and
Figs. 6-9, 14) is encoded as anchor points and interpolated.  Everything
downstream — tradeoff frontiers, budget planning, parallel-scaling
voting — exercises real code against this empirical landscape.

Three curves per profile:

* ``completed`` — accuracy as a function of *naturally completed*
  generation length (Base and soft-budget "NC" configurations).
* ``hard`` — accuracy as a function of a *hard-enforced* token budget,
  where mid-thought truncation forces answer extraction from an
  incomplete chain (the paper's ``[n]T`` configurations).  For small
  models this dips below random guessing because truncated outputs often
  fail to parse (e.g. DSR1-Qwen-1.5B at 128T scores 15.9% on 4-choice
  MMLU-Redux).
* single anchors for the ``NR`` no-thinking mode and for ``direct``
  (non-reasoning) generation.

Per-question heterogeneity: a question of difficulty ``d`` succeeds with
probability ``sigmoid(logit(acc) + beta * (0.5 - d) + delta)`` where
``delta`` is solved numerically so the population mean stays at the
anchored accuracy.  The heterogeneity plus a difficulty-dependent modal
distractor drives the parallel-scaling (majority voting) behaviour of
Fig. 9, including the degradation voting causes for small models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator


@dataclass(frozen=True)
class AnchorPoint:
    """One measured (mean tokens, accuracy) point from the paper."""

    tokens: float
    accuracy: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.tokens <= 0:
            raise ValueError(f"tokens must be positive, got {self.tokens}")


class AccuracyCurve:
    """Interpolates accuracy over token counts (log-token PCHIP).

    Shape-preserving interpolation keeps the curve inside the anchor
    envelope; outside the anchored range the curve clamps to the end
    values.  Curves need not be monotone — the 1.5B model's accuracy
    *declines* with longer generations (overthinking).
    """

    def __init__(self, anchors: tuple[AnchorPoint, ...] | list[AnchorPoint]):
        if len(anchors) == 0:
            raise ValueError("need at least one anchor")
        ordered = sorted(anchors, key=lambda a: a.tokens)
        tokens = [a.tokens for a in ordered]
        if len(set(tokens)) != len(tokens):
            raise ValueError("anchor token counts must be distinct")
        self.anchors = tuple(ordered)
        self._lo = ordered[0]
        self._hi = ordered[-1]
        if len(ordered) >= 2:
            self._interp = PchipInterpolator(
                np.log([a.tokens for a in ordered]),
                [a.accuracy for a in ordered],
                extrapolate=False,
            )
        else:
            self._interp = None

    def __call__(self, tokens: np.ndarray | float) -> np.ndarray | float:
        """Accuracy (fraction) at the given generation length(s)."""
        arr = np.asarray(tokens, dtype=np.float64)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.empty_like(arr)
        below = arr <= self._lo.tokens
        above = arr >= self._hi.tokens
        mid = ~(below | above)
        out[below] = self._lo.accuracy
        out[above] = self._hi.accuracy
        if self._interp is not None and mid.any():
            out[mid] = self._interp(np.log(arr[mid]))
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out

    @property
    def peak_accuracy(self) -> float:
        """Best accuracy over the anchored range."""
        return max(a.accuracy for a in self.anchors)

    @property
    def saturation_tokens(self) -> float:
        """Token count where 95% of the accuracy range is reached.

        The paper's Section V-C inflection points (~300 tokens for 1.5B,
        ~400 for 8B/14B) beyond which sequential scaling shows
        diminishing returns.
        """
        lo = min(a.accuracy for a in self.anchors)
        target = lo + 0.95 * (self.peak_accuracy - lo)
        grid = np.geomspace(self._lo.tokens, self._hi.tokens, 512)
        values = np.atleast_1d(self(grid))
        hits = np.nonzero(values >= target)[0]
        if hits.size == 0:
            return self._hi.tokens
        return float(grid[hits[0]])


@dataclass(frozen=True)
class CapabilityProfile:
    """A model's accuracy behaviour on one benchmark."""

    model: str
    benchmark: str
    completed: AccuracyCurve
    hard: AccuracyCurve
    #: (tokens, accuracy) under the NR thinking-bypass prompt, if measured.
    nr: AnchorPoint | None = None
    #: (tokens, accuracy) for direct non-reasoning generation, if measured.
    direct: AnchorPoint | None = None
    #: Spread of per-question success logits with difficulty.
    difficulty_beta: float = 2.5
    #: Modal-distractor concentration: fraction of wrong-answer mass on
    #: the strongest distractor is ``base + slope * difficulty``.
    distractor_base: float = 0.25
    distractor_slope: float = 0.30
    #: How badly truncation mangles this model's answers: the fraction of
    #: wrong outputs that are unparseable garbage when a hard budget cuts
    #: the chain (small distilled models suffer most; budget-aware L1
    #: always emits well-formed answers).  Drives the Fig. 9 differences
    #: between model classes under parallel voting.
    parse_failure_severity: float = 0.25
    #: Baseline probability that a question's outcome is identical across
    #: parallel samples (rises further as budgets stop truncating; see
    #: the evaluator).  Budget-adherent models like L1 produce nearly the
    #: same short answer every sample, so theirs is high.
    determinism_base: float = 0.20
    #: Answer-choice count (0 means free-form / exact match).
    num_choices: int = 4

    def accuracy_for_mode(self, mode: str, tokens: float) -> float:
        """Mean accuracy for a generation mode at a token count.

        ``mode`` is one of ``"completed"`` (Base / soft budgets),
        ``"hard"`` (enforced truncation at ``tokens``), ``"nr"``, or
        ``"direct"``.
        """
        if mode == "completed":
            return float(self.completed(tokens))
        if mode == "hard":
            return float(self.hard(tokens))
        if mode == "nr":
            if self.nr is None:
                raise ValueError(f"{self.model} has no NR anchor on {self.benchmark}")
            return self.nr.accuracy
        if mode == "direct":
            if self.direct is None:
                raise ValueError(
                    f"{self.model} has no direct anchor on {self.benchmark}")
            return self.direct.accuracy
        raise ValueError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------
# per-question probability machinery
# ----------------------------------------------------------------------
def _logit(p: float) -> float:
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _solve_rows(mean_accuracies, difficulties: np.ndarray, betas,
                iterations: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every ``(accuracy, beta)`` curve's mean offset at once.

    Returns ``(base, delta)``: row ``i`` of the ``(curves, questions)``
    array ``base`` is ``logit(acc) + beta * (0.5 - d)``, and
    ``delta[i]`` makes ``mean(sigmoid(base[i] + delta[i]))`` hit
    ``acc``.  Each row takes exactly the steps a one-row solve takes:
    its mean is the same pairwise sum along the contiguous axis.
    """
    targets = np.asarray(mean_accuracies, dtype=np.float64)
    logits = np.array([_logit(float(a)) for a in targets])
    betas = np.asarray(betas, dtype=np.float64)
    base = logits[:, None] + betas[:, None] * (0.5 - difficulties)
    lo = np.full(targets.shape, -10.0)
    hi = np.full(targets.shape, 10.0)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = _sigmoid(base + mid[:, None]).mean(axis=1) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return base, 0.5 * (lo + hi)


def solve_mean_offset(mean_accuracy: float, difficulties: np.ndarray,
                      beta: float, iterations: int = 25) -> float:
    """Offset ``delta`` making the population mean hit ``mean_accuracy``.

    Solves ``mean(sigmoid(logit(acc) + beta * (0.5 - d) + delta)) = acc``
    by bisection; vectorized over the difficulty population.
    """
    difficulties = np.asarray(difficulties, dtype=np.float64)
    return float(_solve_rows([mean_accuracy], difficulties, [beta],
                             iterations)[1][0])


def question_success_probabilities(mean_accuracies, difficulties: np.ndarray,
                                   betas) -> np.ndarray:
    """:func:`question_success_probability` of several ``(accuracy,
    beta)`` curves at once: a ``(curves, questions)`` array whose row
    ``i`` equals the one-curve call bit for bit."""
    difficulties = np.asarray(difficulties, dtype=np.float64)
    base, delta = _solve_rows(mean_accuracies, difficulties, betas)
    return _sigmoid(base + delta[:, None])


def question_success_probability(mean_accuracy: float, difficulties: np.ndarray,
                                 beta: float = 2.5,
                                 calibrate_mean: bool = True) -> np.ndarray:
    """Per-question success probabilities around an anchored mean.

    Easy questions (low difficulty) succeed more often, hard ones less,
    with the population mean preserved at ``mean_accuracy``.
    """
    if calibrate_mean:
        return question_success_probabilities([mean_accuracy], difficulties,
                                              [beta])[0]
    difficulties = np.asarray(difficulties, dtype=np.float64)
    return _sigmoid(_logit(mean_accuracy) + beta * (0.5 - difficulties))


def distractor_shares(profile: CapabilityProfile,
                      difficulties: np.ndarray) -> np.ndarray:
    """Fraction of each question's wrong-answer mass on its modal distractor.

    Hard questions pull the model toward one systematic wrong answer, so
    majority voting converges to that distractor — this is what caps (and
    for small models, reverses) the parallel-scaling gains of Fig. 9.
    """
    difficulties = np.asarray(difficulties, dtype=np.float64)
    share = profile.distractor_base + profile.distractor_slope * difficulties
    return np.clip(share, 0.0, 0.95)


# ----------------------------------------------------------------------
# the anchor tables (paper Tables X-XV, Fig. 14)
# ----------------------------------------------------------------------
def _curve(*points: tuple[float, float]) -> AccuracyCurve:
    return AccuracyCurve([AnchorPoint(t, a) for t, a in points])


def _profile(model: str, benchmark: str, completed: AccuracyCurve,
             hard: AccuracyCurve, nr: tuple[float, float] | None = None,
             direct: tuple[float, float] | None = None,
             **kwargs) -> CapabilityProfile:
    return CapabilityProfile(
        model=model,
        benchmark=benchmark,
        completed=completed,
        hard=hard,
        nr=AnchorPoint(*nr) if nr else None,
        direct=AnchorPoint(*direct) if direct else None,
        **kwargs,
    )


def _build_profiles() -> dict[tuple[str, str], CapabilityProfile]:
    profiles: list[CapabilityProfile] = []

    # ------------------------------------------------------------------
    # MMLU-Redux, 3k questions (Tables X and XI, Figs. 6-8)
    # ------------------------------------------------------------------
    mmlu_redux = "mmlu-redux"
    profiles += [
        _profile(
            "dsr1-qwen-1.5b", mmlu_redux,
            # Base 740.2 -> 38.3%; NC256 734.8 -> 39.4%; NC128 1474 -> 35.5%
            # (longer is *worse*: overthinking in very small models).
            completed=_curve((64, 0.28), (300, 0.365), (737, 0.389), (1474, 0.355)),
            # 128T -> 15.9% (below 25% random: truncated outputs fail to parse).
            hard=_curve((128, 0.159), (256, 0.232), (512, 0.31), (740, 0.383)),
            nr=(234.9, 0.410),
            parse_failure_severity=0.45,
            distractor_base=0.20,
            distractor_slope=0.42,
        ),
        _profile(
            "dsr1-llama-8b", mmlu_redux,
            # NC128 437 -> 60.4%; Base 811 -> 61.7%; NC256 933 -> 64.3%.
            completed=_curve((150, 0.52), (437, 0.604), (811, 0.617),
                             (933, 0.643), (1500, 0.648)),
            hard=_curve((128, 0.379), (256, 0.412), (512, 0.50), (811, 0.617)),
            nr=(182.9, 0.510),
            parse_failure_severity=0.20,
            distractor_base=0.32,
            distractor_slope=0.42,
        ),
        _profile(
            "dsr1-qwen-14b", mmlu_redux,
            # NC256 374 -> 77.2%; NC128 599 -> 76.9%; Base 1318 -> 80.6%.
            completed=_curve((150, 0.68), (374, 0.772), (599, 0.769), (1318, 0.806)),
            hard=_curve((128, 0.461), (256, 0.586), (512, 0.70), (1318, 0.806)),
            nr=(180.7, 0.690),
            parse_failure_severity=0.15,
            distractor_base=0.25,
            distractor_slope=0.35,
        ),
        _profile(
            "l1-max", mmlu_redux,
            # L1 adheres to budgets, so its hard and completed behaviour
            # coincide; it is excessively conservative at small budgets.
            completed=_curve((40.7, 0.162), (48.9, 0.183), (62.3, 0.171),
                             (312.6, 0.438), (600, 0.45)),
            hard=_curve((40.7, 0.162), (48.9, 0.183), (62.3, 0.171),
                        (312.6, 0.438), (600, 0.45)),
            parse_failure_severity=0.03,
            distractor_base=0.45,
            distractor_slope=0.50,
            determinism_base=0.80,
        ),
        _profile(
            "deepscaler-1.5b", mmlu_redux,
            completed=_curve((300, 0.37), (740, 0.39), (1474, 0.36)),
            hard=_curve((128, 0.16), (256, 0.23), (740, 0.39)),
        ),
        # Direct (non-reasoning) baselines, Table X bottom block.
        _profile("qwen2.5-7b-it", mmlu_redux,
                 completed=_curve((40.2, 0.609)), hard=_curve((40.2, 0.609)),
                 direct=(40.2, 0.609)),
        _profile("gemma-7b-it", mmlu_redux,
                 completed=_curve((44.7, 0.339)), hard=_curve((44.7, 0.339)),
                 direct=(44.7, 0.339)),
        _profile("llama3.1-8b-it", mmlu_redux,
                 completed=_curve((63.5, 0.583)), hard=_curve((63.5, 0.583)),
                 direct=(63.5, 0.583)),
        _profile("qwen2.5-1.5b-it", mmlu_redux,
                 completed=_curve((25, 0.40)), hard=_curve((25, 0.40)),
                 direct=(25, 0.40)),
        _profile("qwen2.5-14b-it", mmlu_redux,
                 completed=_curve((45, 0.74)), hard=_curve((45, 0.74)),
                 direct=(45, 0.74)),
        # AWQ-W4 quantized variants (Table X, Fig. 14): relative accuracy
        # losses of 1.04% / 6.16% / 0.62% and shorter generations.
        _profile(
            "dsr1-qwen-1.5b-awq-w4", mmlu_redux,
            completed=_curve((300, 0.36), (698.5, 0.379), (1400, 0.35)),
            hard=_curve((128, 0.155), (256, 0.225), (698, 0.379)),
            nr=(225, 0.405),
        ),
        _profile(
            "dsr1-llama-8b-awq-w4", mmlu_redux,
            completed=_curve((150, 0.50), (400, 0.565), (549.1, 0.579), (900, 0.60)),
            hard=_curve((128, 0.37), (256, 0.40), (549, 0.579)),
            nr=(175, 0.48),
        ),
        _profile(
            "dsr1-qwen-14b-awq-w4", mmlu_redux,
            completed=_curve((150, 0.67), (370, 0.765), (1235.8, 0.801)),
            hard=_curve((128, 0.455), (256, 0.58), (1236, 0.801)),
            nr=(178, 0.685),
        ),
    ]

    # ------------------------------------------------------------------
    # MMLU, 15k questions (Table XII)
    # ------------------------------------------------------------------
    mmlu = "mmlu"
    profiles += [
        _profile("dsr1-qwen-1.5b", mmlu,
                 completed=_curve((300, 0.35), (1141.6, 0.4167)),
                 hard=_curve((128, 0.246), (256, 0.296), (1141, 0.4167))),
        _profile("dsr1-llama-8b", mmlu,
                 completed=_curve((150, 0.52), (345.6, 0.6038), (800, 0.62)),
                 hard=_curve((128, 0.3103), (256, 0.418), (800, 0.6038))),
        _profile("dsr1-qwen-14b", mmlu,
                 completed=_curve((200, 0.70), (1145.4, 0.8659)),
                 hard=_curve((128, 0.283), (256, 0.377), (1145, 0.8659))),
        _profile("dsr1-qwen-1.5b-awq-w4", mmlu,
                 completed=_curve((300, 0.34), (984.4, 0.3773)),
                 hard=_curve((128, 0.246), (256, 0.291), (984, 0.3773))),
        _profile("dsr1-llama-8b-awq-w4", mmlu,
                 completed=_curve((150, 0.52), (455.4, 0.6044), (900, 0.615)),
                 hard=_curve((128, 0.321), (256, 0.435), (900, 0.6044))),
        _profile("dsr1-qwen-14b-awq-w4", mmlu,
                 completed=_curve((200, 0.70), (1148.4, 0.8669)),
                 hard=_curve((128, 0.271), (256, 0.371), (1148, 0.8669))),
    ]

    # ------------------------------------------------------------------
    # AIME2024 / MATH500 (Table III: DeepScaleR vs o1-preview)
    # ------------------------------------------------------------------
    profiles += [
        _profile("deepscaler-1.5b", "aime2024",
                 completed=_curve((2000, 0.30), (6520, 0.431)),
                 hard=_curve((1024, 0.10), (4096, 0.33), (6520, 0.431)),
                 num_choices=0),
        _profile("deepscaler-1.5b", "math500",
                 completed=_curve((1000, 0.70), (4000, 0.878)),
                 hard=_curve((512, 0.45), (2048, 0.80), (4000, 0.878)),
                 num_choices=0),
        _profile("dsr1-qwen-1.5b", "aime2024",
                 completed=_curve((2000, 0.18), (6500, 0.288)),
                 hard=_curve((1024, 0.05), (6500, 0.288)),
                 num_choices=0),
    ]

    # ------------------------------------------------------------------
    # Natural-Plan tasks (Tables XIII-XV); free-form answers.
    # ------------------------------------------------------------------
    plan = [
        # (task, model, base_toks, base_acc, nr512_toks, nr512_acc)
        ("calendar", "dsr1-qwen-1.5b", 2792, 0.006, 511, 0.020),
        ("meeting", "dsr1-qwen-1.5b", 3880, 0.010, 425, 0.019),
        ("trip", "dsr1-qwen-1.5b", 2490, 0.0125, 507, 0.0),
        ("calendar", "dsr1-llama-8b", 2798, 0.090, 67, 0.081),
        ("meeting", "dsr1-llama-8b", 2866, 0.100, 284, 0.119),
        ("trip", "dsr1-llama-8b", 2251, 0.0788, 398, 0.039),
        ("calendar", "dsr1-qwen-14b", 2297, 0.117, 40, 0.126),
        ("meeting", "dsr1-qwen-14b", 1494, 0.193, 341, 0.190),
        ("trip", "dsr1-qwen-14b", 2340, 0.1388, 380, 0.109),
    ]
    for task, model, base_toks, base_acc, nr_toks, nr_acc in plan:
        benchmark = f"naturalplan-{task}"
        low = min(base_acc, nr_acc)
        profiles.append(_profile(
            model, benchmark,
            completed=_curve((max(nr_toks, 32), max(nr_acc, 1e-4)),
                             (base_toks, max(base_acc, 1e-4))),
            hard=_curve((512, max(nr_acc * 0.9, 1e-4)),
                        (base_toks, max(base_acc, 1e-4))),
            nr=(nr_toks, nr_acc),
            num_choices=0,
            difficulty_beta=3.0 if low < 0.05 else 2.5,
        ))
    plan_direct = [
        ("calendar", "qwen2.5-1.5b-it", 22, 0.053),
        ("meeting", "qwen2.5-1.5b-it", 271, 0.094),
        ("trip", "qwen2.5-1.5b-it", 242, 0.025),
        ("calendar", "qwen2.5-14b-it", 28, 0.319),
        ("meeting", "qwen2.5-14b-it", 283, 0.272),
        ("trip", "qwen2.5-14b-it", 259, 0.0644),
    ]
    for task, model, toks, acc in plan_direct:
        benchmark = f"naturalplan-{task}"
        profiles.append(_profile(
            model, benchmark,
            completed=_curve((toks, acc)), hard=_curve((toks, acc)),
            direct=(toks, acc), num_choices=0,
        ))

    return {(p.model, p.benchmark): p for p in profiles}


_PROFILES = _build_profiles()


def capability_profile(model: str, benchmark: str) -> CapabilityProfile:
    """Look up the capability profile for a (model, benchmark) pair."""
    try:
        return _PROFILES[(model.lower(), benchmark.lower())]
    except KeyError:
        raise KeyError(
            f"no capability profile for model={model!r} on benchmark="
            f"{benchmark!r}; known pairs: {sorted(_PROFILES)}"
        ) from None


def has_profile(model: str, benchmark: str) -> bool:
    """Whether a profile exists for the pair."""
    return (model.lower(), benchmark.lower()) in _PROFILES


def profiles_for_benchmark(benchmark: str) -> tuple[CapabilityProfile, ...]:
    """All profiles measured on one benchmark."""
    return tuple(
        profile for (model, bench), profile in sorted(_PROFILES.items())
        if bench == benchmark.lower()
    )
