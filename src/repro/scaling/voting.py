"""Majority-voting aggregation for parallel test-time scaling.

Each question has a per-sample correctness probability ``p`` and — for
multiple-choice suites — a *modal distractor* holding a share ``w`` of
the wrong-answer mass (hard questions pull the model toward one
systematic wrong answer).  Voting over ``k`` samples then behaves as the
paper observes (Fig. 9):

* when ``p`` beats every wrong-answer probability, voting amplifies
  toward 1 — the 1.5-1.8x gains at a 128-token budget;
* when the modal distractor beats ``p`` (small models, hard questions),
  voting converges to the *wrong* answer, explaining the degradation of
  small models at large scaling factors;
* free-form answers rarely collide, so wrong votes do not accumulate and
  self-consistency gains saturate quickly.

Answer encoding: 0 is the correct answer, 1 the modal distractor,
``2..num_choices-1`` the remaining choices.  Free-form suites
(``num_choices == 0``) give every wrong sample a unique negative id.
"""

from __future__ import annotations

import numpy as np


def _validated_stats(p_correct, distractor_share, garbage_share,
                     determinism) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]:
    """Validate the per-question stat arrays shared by every voter.

    Returns ``(p, w, g, det)`` as float64 arrays broadcast to ``p``'s
    shape, rejecting out-of-range probabilities and shape mismatches
    with messages that name the offending argument (a raw numpy
    broadcast error names neither).
    """
    p = np.asarray(p_correct, dtype=np.float64)
    w = np.asarray(distractor_share, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(
            f"p_correct must be a 1-d per-question array, got shape "
            f"{p.shape}")
    if p.shape != w.shape:
        raise ValueError(
            f"p_correct and distractor_share must align: got shapes "
            f"{p.shape} vs {w.shape}")
    broadcast = {}
    for name, value in (("garbage_share", garbage_share),
                        ("determinism", determinism)):
        arr = np.asarray(value, dtype=np.float64)
        try:
            broadcast[name] = np.broadcast_to(arr, p.shape)
        except ValueError:
            raise ValueError(
                f"{name} must be a scalar or match p_correct's shape "
                f"{p.shape}, got shape {arr.shape}") from None
    g, det = broadcast["garbage_share"], broadcast["determinism"]
    for name, arr in (("p_correct", p), ("distractor_share", w),
                      ("garbage_share", g), ("determinism", det)):
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError(f"{name} must lie in [0, 1]")
    return p, w, g, det


def sample_answer_matrix(p_correct: np.ndarray, distractor_share: np.ndarray,
                         num_choices: int, k: int,
                         rng: np.random.Generator,
                         garbage_share: np.ndarray | float = 0.0,
                         determinism: np.ndarray | float = 0.0) -> np.ndarray:
    """Sample a (questions, k) matrix of answer ids.

    ``p_correct[q]`` is the chance a single sample answers question ``q``
    correctly.  The wrong mass splits three ways: a ``garbage_share``
    fraction is unparseable output (truncated chains, malformed answers)
    that votes as a *unique* id and never accumulates; of the remainder,
    ``distractor_share`` lands on the modal distractor and the rest
    spreads evenly over the other choices.

    ``determinism`` is the chance a question's outcome is *shared* by all
    parallel samples: a completed reasoning chain is near-deterministic
    (the model either can or cannot solve the problem), so voting cannot
    improve it, whereas truncation injects per-sample randomness voting
    can average out.  This is what makes parallel-scaling gains plateau
    at generous token budgets (Fig. 9b).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    check_num_choices(num_choices)
    p, w, g, det = _validated_stats(p_correct, distractor_share,
                                    garbage_share, determinism)
    return draw_answer_matrix(p, w, num_choices, k, rng, g, det)


def check_num_choices(num_choices: int) -> None:
    """Reject an answer space no voter can sample: a negative size, or
    multiple choice with a single choice."""
    if num_choices < 0:
        raise ValueError(f"num_choices must be non-negative, got "
                         f"{num_choices}")
    if num_choices == 1:
        raise ValueError("multiple choice requires num_choices >= 2")


def draw_answer_matrix(p: np.ndarray, w: np.ndarray, num_choices: int,
                       k: int, rng: np.random.Generator, g: np.ndarray,
                       det: np.ndarray) -> np.ndarray:
    """:func:`sample_answer_matrix` without its checks.

    ``p, w, g, det`` must be float64 arrays of one 1-d shape with every
    value in ``[0, 1]`` (as :func:`_validated_stats` returns them),
    ``num_choices`` must pass :func:`check_num_choices` and ``k`` must be
    positive.  A caller that validates many draws at once draws each
    here; ``rng`` is consumed exactly as :func:`sample_answer_matrix`
    consumes it.
    """
    num_questions = p.shape[0]
    u = rng.random((num_questions, k))
    # Deterministic questions reuse the first sample's draw for all k.
    deterministic = rng.random(num_questions) < det
    u[deterministic] = u[deterministic, :1]
    answers = np.zeros((num_questions, k), dtype=np.int64)
    unique_ids = -(np.arange(num_questions * k, dtype=np.int64).reshape(
        num_questions, k) + 1)

    wrong = u >= p[:, None]
    if num_choices == 0:
        # Free-form: wrong answers are effectively unique strings.
        answers[wrong] = unique_ids[wrong]
        return answers

    garbage_u = rng.random((num_questions, k))
    garbage_u[deterministic] = garbage_u[deterministic, :1]
    garbage = wrong & (garbage_u < g[:, None])
    answers[garbage] = unique_ids[garbage]
    votable = wrong & ~garbage
    wrong_u = rng.random((num_questions, k))
    wrong_u[deterministic] = wrong_u[deterministic, :1]
    modal = wrong_u < w[:, None]
    answers[votable & modal] = 1
    others = num_choices - 2
    if others > 0:
        other_pick = rng.integers(2, num_choices, size=(num_questions, k))
        other_pick[deterministic] = other_pick[deterministic, :1]
        answers[votable & ~modal] = other_pick[votable & ~modal]
    else:
        answers[votable & ~modal] = 1
    return answers


def majority_vote(answers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Plurality vote per row with random tie-breaking.

    Returns the winning answer id per question.
    """
    answers = np.asarray(answers)
    if answers.ndim != 2:
        raise ValueError("answers must be (questions, k)")
    winners = np.empty(answers.shape[0], dtype=answers.dtype)
    for row_index, row in enumerate(answers):
        values, counts = np.unique(row, return_counts=True)
        best = counts.max()
        tied = values[counts == best]
        winners[row_index] = tied[rng.integers(0, tied.size)]
    return winners


def voting_accuracy(p_correct: np.ndarray, distractor_share: np.ndarray,
                    num_choices: int, k: int, rng: np.random.Generator,
                    trials: int = 1,
                    garbage_share: np.ndarray | float = 0.0,
                    determinism: np.ndarray | float = 0.0) -> float:
    """Monte-Carlo accuracy of k-way majority voting."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    total = 0.0
    for _ in range(trials):
        answers = sample_answer_matrix(p_correct, distractor_share,
                                       num_choices, k, rng,
                                       garbage_share=garbage_share,
                                       determinism=determinism)
        winners = majority_vote(answers, rng)
        total += float((winners == 0).mean())
    return total / trials


def asymptotic_voting_accuracy(p_correct: np.ndarray,
                               distractor_share: np.ndarray,
                               num_choices: int,
                               garbage_share: np.ndarray | float = 0.0,
                               determinism: np.ndarray | float = 0.0) -> float:
    """The k -> infinity limit of majority voting.

    A question is eventually answered correctly iff the correct answer is
    the modal one: ``p`` must beat the per-choice wrong probabilities
    (garbage never accumulates).  Free-form questions only need ``p`` to
    beat the chance of two identical wrong answers, i.e. any ``p > 0``
    wins in the limit — so the limit is the fraction of questions the
    model can ever answer.
    """
    p, w, g, det = _validated_stats(p_correct, distractor_share,
                                    garbage_share, determinism)
    if num_choices == 0:
        independent = (p > 0.0).astype(np.float64)
    else:
        votable = (1.0 - p) * (1.0 - g)
        modal_wrong = votable * w
        if num_choices > 2:
            # The non-modal wrong mass spreads over the remaining choices
            # and can itself out-vote the correct answer when w is small.
            other_wrong = votable * (1.0 - w) / (num_choices - 2)
            modal_wrong = np.maximum(modal_wrong, other_wrong)
        independent = (p > modal_wrong).astype(np.float64)
    return float((det * p + (1.0 - det) * independent).mean())
