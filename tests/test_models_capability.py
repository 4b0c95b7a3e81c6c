"""Tests for the capability profiles and per-question probability model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.capability import (
    AccuracyCurve,
    AnchorPoint,
    capability_profile,
    distractor_shares,
    has_profile,
    _logit,
    _sigmoid,
    profiles_for_benchmark,
    question_success_probabilities,
    question_success_probability,
    solve_mean_offset,
)


def _one_curve(accuracy, difficulties, beta):
    """The one-curve bisection written out: ``(delta, probabilities)``."""
    base = _logit(accuracy) + beta * (0.5 - difficulties)
    lo, hi = -10.0, 10.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if float(_sigmoid(base + mid).mean()) < accuracy:
            lo = mid
        else:
            hi = mid
    delta = 0.5 * (lo + hi)
    return delta, _sigmoid(base + delta)


class TestAnchorPoint:
    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ValueError):
            AnchorPoint(100, 1.2)

    def test_rejects_non_positive_tokens(self):
        with pytest.raises(ValueError):
            AnchorPoint(0, 0.5)


class TestAccuracyCurve:
    def test_hits_anchor_points(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(1000, 0.6)])
        assert curve(100) == pytest.approx(0.3)
        assert curve(1000) == pytest.approx(0.6)

    def test_clamps_outside_range(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(1000, 0.6)])
        assert curve(10) == pytest.approx(0.3)
        assert curve(50_000) == pytest.approx(0.6)

    def test_interpolation_stays_in_envelope(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(400, 0.5),
                               AnchorPoint(1000, 0.6)])
        grid = np.geomspace(100, 1000, 64)
        values = np.atleast_1d(curve(grid))
        assert (values >= 0.3 - 1e-9).all()
        assert (values <= 0.6 + 1e-9).all()

    def test_vectorized_call(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(1000, 0.6)])
        values = curve(np.array([50.0, 100.0, 1000.0, 2000.0]))
        assert values.shape == (4,)

    def test_single_anchor_is_constant(self):
        curve = AccuracyCurve([AnchorPoint(40, 0.61)])
        assert curve(5) == curve(40) == curve(5000) == pytest.approx(0.61)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(100, 0.4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AccuracyCurve([])

    def test_saturation_tokens_within_range(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(400, 0.55),
                               AnchorPoint(1500, 0.6)])
        sat = curve.saturation_tokens
        assert 100 <= sat <= 1500


class TestPaperAnchors:
    """The profiles must reproduce the paper's measured accuracies."""

    @pytest.mark.parametrize("model,tokens,accuracy", [
        ("dsr1-qwen-1.5b", 740.2, 0.383),
        ("dsr1-llama-8b", 811.1, 0.617),
        ("dsr1-qwen-14b", 1317.8, 0.806),
    ])
    def test_base_accuracy(self, model, tokens, accuracy):
        profile = capability_profile(model, "mmlu-redux")
        assert profile.completed(tokens) == pytest.approx(accuracy, abs=0.01)

    @pytest.mark.parametrize("model,budget,accuracy", [
        ("dsr1-qwen-1.5b", 128, 0.159),
        ("dsr1-qwen-1.5b", 256, 0.232),
        ("dsr1-llama-8b", 128, 0.379),
        ("dsr1-qwen-14b", 256, 0.586),
    ])
    def test_hard_budget_accuracy(self, model, budget, accuracy):
        profile = capability_profile(model, "mmlu-redux")
        assert profile.hard(budget) == pytest.approx(accuracy, abs=0.005)

    def test_nr_anchor(self):
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        assert profile.nr.accuracy == pytest.approx(0.510)

    def test_1p5b_overthinking_declines(self):
        # NC-128 makes the 1.5B ramble to 1474 tokens and LOSE accuracy.
        profile = capability_profile("dsr1-qwen-1.5b", "mmlu-redux")
        assert profile.completed(1474) < profile.completed(737)

    def test_nr_beats_base_for_1p5b(self):
        # Takeaway: suppressing reasoning helps very small models.
        profile = capability_profile("dsr1-qwen-1.5b", "mmlu-redux")
        assert profile.nr.accuracy > profile.completed(740.2)

    def test_direct_anchor_llama(self):
        profile = capability_profile("llama3.1-8b-it", "mmlu-redux")
        assert profile.direct.accuracy == pytest.approx(0.583)

    def test_accuracy_for_mode_dispatch(self):
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        assert profile.accuracy_for_mode("completed", 811) == pytest.approx(
            0.617, abs=0.01)
        assert profile.accuracy_for_mode("hard", 128) == pytest.approx(0.379)
        assert profile.accuracy_for_mode("nr", 0) == pytest.approx(0.510)

    def test_missing_direct_raises(self):
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        with pytest.raises(ValueError):
            profile.accuracy_for_mode("direct", 0)

    def test_unknown_mode_raises(self):
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        with pytest.raises(ValueError):
            profile.accuracy_for_mode("weird", 0)

    def test_unknown_pair_raises(self):
        with pytest.raises(KeyError):
            capability_profile("dsr1-llama-8b", "no-such-benchmark")

    def test_has_profile(self):
        assert has_profile("dsr1-llama-8b", "mmlu-redux")
        assert not has_profile("dsr1-llama-8b", "naturalplan-nothing")

    def test_profiles_for_benchmark(self):
        profiles = profiles_for_benchmark("mmlu")
        assert len(profiles) == 6  # 3 fp16 + 3 AWQ

    def test_mmlu15k_anchors(self):
        profile = capability_profile("dsr1-qwen-14b", "mmlu")
        assert profile.completed(1145.4) == pytest.approx(0.8659, abs=0.005)
        assert profile.hard(128) == pytest.approx(0.283, abs=0.005)

    def test_naturalplan_anchor(self):
        profile = capability_profile("dsr1-qwen-14b", "naturalplan-meeting")
        assert profile.completed(1494) == pytest.approx(0.193, abs=0.01)
        assert profile.num_choices == 0


class TestQuestionProbabilities:
    def test_mean_preserved(self, rng):
        difficulties = rng.beta(2.0, 2.0, size=4000)
        p = question_success_probability(0.45, difficulties, beta=2.5)
        assert p.mean() == pytest.approx(0.45, abs=0.01)

    def test_easy_questions_more_likely(self, rng):
        difficulties = np.array([0.1, 0.9])
        p = question_success_probability(0.5, difficulties, beta=2.5)
        assert p[0] > p[1]

    def test_zero_beta_is_uniform(self, rng):
        difficulties = rng.random(100)
        p = question_success_probability(0.3, difficulties, beta=0.0)
        assert np.allclose(p, 0.3, atol=1e-6)

    def test_probabilities_in_unit_interval(self, rng):
        difficulties = rng.random(500)
        p = question_success_probability(0.9, difficulties, beta=5.0)
        assert (p > 0).all() and (p < 1).all()

    def test_solve_mean_offset_converges(self, rng):
        difficulties = rng.beta(2.6, 2.0, size=2000)
        delta = solve_mean_offset(0.6, difficulties, beta=3.0)
        p = question_success_probability(0.6, difficulties, beta=3.0)
        assert abs(float(p.mean()) - 0.6) < 0.01
        assert -10 < delta < 10

    @pytest.mark.parametrize("size", [1, 7, 129, 2000, 9000])
    def test_row_solves_equal_one_curve_bisection_bitwise(self, rng, size):
        difficulties = rng.beta(2.4, 2.2, size=size)
        accuracies = np.append(rng.random(11), [0.0, 1.0, 0.5])
        betas = rng.choice([0.0, 1.3, 2.5, 4.0], size=accuracies.size)
        rows = question_success_probabilities(accuracies, difficulties, betas)
        assert rows.shape == (accuracies.size, size)
        for row, accuracy, beta in zip(rows, accuracies.tolist(),
                                       betas.tolist()):
            delta, want = _one_curve(accuracy, difficulties, beta)
            assert solve_mean_offset(accuracy, difficulties, beta) == delta
            assert row.tobytes() == want.tobytes()
            assert question_success_probability(
                accuracy, difficulties, beta).tobytes() == want.tobytes()

    def test_distractor_shares_clipped(self):
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        shares = distractor_shares(profile, np.array([0.0, 0.5, 1.0, 5.0 / 5]))
        assert (shares >= 0).all() and (shares <= 0.95).all()

    def test_distractor_grows_with_difficulty(self):
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        shares = distractor_shares(profile, np.array([0.1, 0.9]))
        assert shares[1] > shares[0]


class TestCurveEdges:
    def test_zero_tokens_clamp_to_low_anchor(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(1000, 0.6)])
        assert curve(0) == pytest.approx(0.3)

    def test_negative_tokens_clamp_to_low_anchor(self):
        curve = AccuracyCurve([AnchorPoint(100, 0.3), AnchorPoint(1000, 0.6)])
        assert curve(-64) == pytest.approx(0.3)
        vec = curve(np.array([-1.0, 0.0, 99.9]))
        assert np.allclose(vec, 0.3)

    def test_mode_dispatch_at_zero_tokens(self):
        # A fully truncated chain (0 granted tokens) must price as the
        # curve's low anchor, not blow up in the log-token interpolator.
        profile = capability_profile("dsr1-llama-8b", "mmlu-redux")
        assert profile.accuracy_for_mode("hard", 0) == pytest.approx(
            profile.hard.anchors[0].accuracy)
        assert 0.0 <= profile.accuracy_for_mode("completed", 0) <= 1.0


class TestCurveMonotonicityProperty:
    """PCHIP on log-tokens must preserve each segment's direction."""

    @given(accs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           frac_a=st.floats(0.0, 1.0), frac_b=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_between_adjacent_anchors(self, accs, frac_a, frac_b):
        tokens = (100.0, 400.0, 1600.0)
        curve = AccuracyCurve(
            [AnchorPoint(t, a) for t, a in zip(tokens, accs)])
        lo, hi = sorted((frac_a, frac_b))
        for (t0, a0), (t1, a1) in zip(
                zip(tokens, accs), zip(tokens[1:], accs[1:])):
            # Two probe points inside this segment, log-spaced like the
            # interpolator itself, with x0 <= x1.
            x0 = t0 * (t1 / t0) ** lo
            x1 = t0 * (t1 / t0) ** hi
            y0, y1 = curve(x0), curve(x1)
            if a0 <= a1:
                assert y1 >= y0 - 1e-9
            else:
                assert y1 <= y0 + 1e-9
            assert min(a0, a1) - 1e-9 <= y0 <= max(a0, a1) + 1e-9
