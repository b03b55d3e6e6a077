import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import (column_order_logits, float_majority_agreement, float_pairwise_moments,
                      int64_majority_vote, loop_triplet_magnitudes, sample_ci_votes)
from wsfair.core import DataError, DegenerateMoments, WeakLabelMatrix, sigmoid
from wsfair.labelmodel import (DELTA, DENOM_FLOOR, VOTE_BLOCK_ROWS, AccuracyEstimate,
                               LabelModelParams, _majority_agreement, fit_label_model,
                               majority_vote, pairwise_moments, predict_labels,
                               predict_proba, resolve_signs, triplet_estimate,
                               triplet_magnitudes_from_moments)
from wsfair.synth import gen_lfcount_dataset


def _moments_from_accuracies(a):
    a = np.asarray(a, dtype=float)
    mom = np.outer(a, a)
    np.fill_diagonal(mom, 1.0)
    return mom


# ---------------------------------------------------------------------------
# Triplet magnitudes
# ---------------------------------------------------------------------------

def test_triplet_closed_form_population_moments():
    # E[l1 l2]=0.48, E[l1 l3]=0.32, E[l2 l3]=0.24 => |a1| = sqrt(.48*.32/.24) = 0.8
    mags, *_ = triplet_magnitudes_from_moments(_moments_from_accuracies([0.8, 0.6, 0.4]))
    assert mags[0] == pytest.approx(math.sqrt(0.48 * 0.32 / 0.24), abs=1e-15)
    assert np.allclose(mags, [0.8, 0.6, 0.4], atol=1e-12)


def test_triplet_exact_identity_random_accuracies():
    # algebraic identity: analytic moments reproduce a exactly (any m >= 3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(3, 8))
        a = rng.uniform(0.05, 0.95, size=m)
        mags, neg, degenerate = triplet_magnitudes_from_moments(_moments_from_accuracies(a))
        assert np.abs(mags - a).max() < 1e-12
        assert not neg.any() and not degenerate.any()


def test_sampler_moments_match_products():
    # oracle self-check: at n = 1e6 the empirical moments sit within 0.01 of a_i a_j
    votes, _ = sample_ci_votes([0.8, 0.6, 0.4], 1_000_000, seed=0)
    mom = pairwise_moments(WeakLabelMatrix(votes))
    assert abs(mom[0, 1] - 0.48) < 0.01
    assert abs(mom[0, 2] - 0.32) < 0.01
    assert abs(mom[1, 2] - 0.24) < 0.01


def test_triplet_monte_carlo_recovery():
    votes, _ = sample_ci_votes([0.8, 0.6, 0.4], 100_000, seed=1)
    est = triplet_estimate(WeakLabelMatrix(votes))
    assert np.abs(est.per_lf - [0.8, 0.6, 0.4]).max() < 0.02


def test_identical_lfs_clamp():
    col = np.where(np.random.default_rng(0).random(200) < 0.5, 1, -1)
    est = triplet_estimate(WeakLabelMatrix(np.column_stack([col, col, col])))
    assert np.allclose(est.per_lf, 1.0 - DELTA)
    assert est.clamp_flags.all()


def test_too_few_lfs():
    votes, _ = sample_ci_votes([0.8, 0.6], 100, seed=0)
    with pytest.raises(DataError, match="triplet estimation needs m >= 3 labeling functions"):
        triplet_estimate(WeakLabelMatrix(votes))


def _degenerate_votes(reps=8):
    # LF 1's denominators are the moments among LFs 2..4, which are exactly
    # orthogonal Hadamard patterns; LFs 2..4 keep usable triples through LF 1.
    l1 = np.array([1, 1, 1, -1, 1, -1, -1, -1])
    l2 = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    l3 = np.array([1, 1, -1, -1, 1, 1, -1, -1])
    l4 = np.array([1, -1, 1, -1, 1, -1, 1, -1])
    return WeakLabelMatrix(np.tile(np.column_stack([l1, l2, l3, l4]), (reps, 1)))


def test_degenerate_moments_strict_raises():
    with pytest.raises(DegenerateMoments):
        triplet_estimate(_degenerate_votes())


def test_degenerate_moments_flagged_when_not_strict():
    est = triplet_estimate(_degenerate_votes(), strict=False)
    assert est.degenerate_flags.tolist() == [True, False, False, False]
    assert np.isfinite(est.per_lf).all()


def _oracle_cases(m, rng):
    """Moment matrices with random signs: as drawn, with sub-floor pairs on a
    star around one LF, on one pair, scattered, and around one LF made fully
    degenerate (every pair among the other LFs below the floor)."""
    a = rng.uniform(0.05, 0.95, m)
    noise = np.triu(rng.uniform(0.8, 1.2, (m, m)), 1)
    signs = np.triu(rng.choice([-1.0, 1.0], (m, m)), 1)
    base = np.outer(a, a) * (noise + noise.T) * (signs + signs.T)
    np.fill_diagonal(base, 1.0)

    def below(pairs):
        mom = base.copy()
        for j, k in pairs:
            mom[j, k] = mom[k, j] = rng.uniform(-0.9, 0.9) * DENOM_FLOOR
        mom[pairs[0][0], pairs[0][1]] = mom[pairs[0][1], pairs[0][0]] = 0.0
        return mom

    hub, other = rng.choice(m, 2, replace=False)
    star = [(hub, x) for x in range(m) if x != hub and rng.random() < 0.5] or [(hub, other)]
    pairs = list(combinations(range(m), 2))
    scatter = [pairs[p] for p in rng.choice(len(pairs), max(1, len(pairs) // 10),
                                            replace=False)]
    return [base, below(star), below([(hub, other)]), below(scatter),
            below(list(combinations(np.delete(np.arange(m), hub), 2)))]


@pytest.mark.parametrize("m", [3, 4, 12, 24, 64])
def test_triplet_magnitudes_match_the_per_lf_loop(m):
    rng = np.random.default_rng(m)
    seen = np.zeros(4, dtype=int)         # full rows, other rows, degenerate, flagged
    for moments in _oracle_cases(m, rng) + _oracle_cases(m, rng):
        want = loop_triplet_magnitudes(moments, strict=False)
        got = triplet_magnitudes_from_moments(moments, strict=False)
        full = np.array([all(abs(moments[j, k]) >= DENOM_FLOOR
                             for j, k in combinations(np.delete(np.arange(m), i), 2))
                         for i in range(m)])
        assert got[0][full].tobytes() == want[0][full].tobytes()
        np.testing.assert_allclose(got[0][~full], want[0][~full], rtol=1e-14, atol=0)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        if want[2].any():
            with pytest.raises(DegenerateMoments) as oracle:
                loop_triplet_magnitudes(moments)
            with pytest.raises(DegenerateMoments) as ours:
                triplet_magnitudes_from_moments(moments)
            assert str(ours.value) == str(oracle.value)
        else:
            assert triplet_magnitudes_from_moments(moments)[0].tobytes() == got[0].tobytes()
        seen += full.sum(), (~full).sum(), want[2].sum(), want[1].sum()
    assert (seen > 0).all()


def test_sampling_consistency_errors_shrink_with_n():
    a = np.array([0.8, 0.6, 0.4])
    med = []
    for n in (1_000, 10_000, 100_000):
        errs = []
        for seed in range(10):
            votes, _ = sample_ci_votes(a, n, seed=seed)
            est = triplet_estimate(WeakLabelMatrix(votes))
            errs.append(np.abs(est.per_lf - a).max())
        med.append(np.median(errs))
    assert med[0] > med[1] > med[2]


# ---------------------------------------------------------------------------
# Sign resolution
# ---------------------------------------------------------------------------

def test_signs_all_agreeing():
    votes, _ = sample_ci_votes([0.999, 0.999, 0.999], 50, seed=0)
    est = triplet_estimate(WeakLabelMatrix(votes))
    assert (est.per_lf > 0).all()


def test_sign_of_flipped_lf():
    rng = np.random.default_rng(2)
    y = np.where(rng.random(400) < 0.5, 1, -1)
    votes = np.column_stack([y, y, y, y, y, -y])
    weak = WeakLabelMatrix(votes)
    est = triplet_estimate(weak)
    # oracle: agreement with the majority vote, computed directly
    mv = np.sign(votes.sum(axis=1) + 0.5)
    agree = [(votes[:, j] * mv).mean() for j in range(6)]
    assert agree[5] < 0 < agree[0]
    assert (est.per_lf[:5] > 0).all() and est.per_lf[5] < 0


def test_anticorrelated_pair_flagged_against_majority():
    rng = np.random.default_rng(3)
    y = np.where(rng.random(500) < 0.5, 1, -1)
    flips = rng.random(500) < 0.1
    noisy = np.where(flips, -y, y)
    votes = np.column_stack([y, noisy, -y, y])
    weak = WeakLabelMatrix(votes)
    est = triplet_estimate(weak)
    assert est.per_lf[2] < 0
    assert (est.per_lf[[0, 1, 3]] > 0).all()


def test_global_flip_when_mean_negative():
    # LF 0 votes -y while the two mild LFs track y, so the majority vote leans
    # toward y: LF 0 alone gets a negative sign with the largest magnitude,
    # driving the mean negative, and the global flip restores it.
    rng = np.random.default_rng(4)
    y = np.where(rng.random(600) < 0.5, 1, -1)
    mild1 = np.where(rng.random(600) < 0.2, -y, y)
    mild2 = np.where(rng.random(600) < 0.2, -y, y)
    weak = WeakLabelMatrix(np.column_stack([-y, mild1, mild2]))
    signed, _ = resolve_signs(np.array([0.9, 0.1, 0.1]), weak)
    assert signed[0] > 0
    assert signed[1] < 0 and signed[2] < 0


def test_tie_defaults_to_positive_and_flags():
    # column 3 agrees with the majority vote on exactly half the rows
    c = np.array([1, -1, 1, -1])
    tie = np.array([1, 1, -1, -1])
    votes = np.tile(np.column_stack([c, c, c, tie]), (5, 1))
    weak = WeakLabelMatrix(votes)
    est = triplet_estimate(weak, strict=False)
    mv = np.where(votes.sum(axis=1) >= 0, 1, -1)
    assert (votes[:, 3] * mv).mean() == 0
    assert est.tie_flags.tolist() == [False, False, False, True]
    assert est.per_lf[3] > 0


# ---------------------------------------------------------------------------
# Label model
# ---------------------------------------------------------------------------

def _estimate(values):
    values = np.asarray(values, dtype=float)
    flags = np.zeros(values.size, bool)
    return AccuracyEstimate(per_lf=values, clamp_flags=flags, moment_flags=flags,
                            degenerate_flags=flags, tie_flags=flags)


def test_weights_closed_form():
    params = fit_label_model(_estimate([0.0, 0.8]))
    assert params.weights[0] == 0.0
    assert params.weights[1] == pytest.approx(math.log(9.0), abs=1e-12)
    assert params.class_prior_logit == 0.0


def test_weight_signs_match_accuracy_signs():
    rng = np.random.default_rng(5)
    a = rng.uniform(-0.9, 0.9, size=12)
    params = fit_label_model(_estimate(a))
    assert np.array_equal(np.sign(params.weights), np.sign(a))


def test_dominant_clamped_voter_saturates_scores():
    weak = WeakLabelMatrix(np.array([[1], [-1], [1]]))
    params = fit_label_model(_estimate([1.0 - DELTA]))
    scores = predict_proba(params, weak).scores
    hi = (2.0 - DELTA) / 2.0 / (1.0 - (2.0 - DELTA) / 2.0)  # odds of clamped LF
    assert scores[0] == pytest.approx(hi / (1 + hi), abs=1e-12)
    assert scores[1] == pytest.approx(1 - hi / (1 + hi), abs=1e-12)
    assert scores[0] > 0.999 and scores[1] < 0.001


def test_zero_weights_give_half_scores():
    weak = WeakLabelMatrix(np.random.default_rng(0).choice([-1, 1], size=(10, 3)))
    scores = predict_proba(fit_label_model(_estimate([0.0, 0.0, 0.0])), weak)
    assert np.all(scores.scores == 0.5)


def test_symmetric_votes_cancel():
    weak = WeakLabelMatrix(np.array([[1, -1]]))
    params = fit_label_model(_estimate([0.5, 0.5]))
    assert predict_proba(params, weak).scores[0] == pytest.approx(0.5, abs=1e-12)


def test_predict_labels_tie_rule():
    from wsfair.core import ScoreVector
    labels = predict_labels(ScoreVector([0.5, 0.49, 0.51]))
    assert labels.labels.tolist() == [1, -1, 1]


def test_majority_vote_examples():
    assert majority_vote(WeakLabelMatrix([[1, 1, -1]])).labels[0] == 1
    assert majority_vote(WeakLabelMatrix([[1, -1]])).labels[0] == 1


def test_label_model_reduces_to_majority_with_equal_weights():
    rng = np.random.default_rng(6)
    weak = WeakLabelMatrix(rng.choice([-1, 1], size=(300, 5)))
    params = fit_label_model(_estimate([0.5] * 5), class_prior=0.5)
    preds = predict_labels(predict_proba(params, weak))
    assert np.array_equal(preds.labels, majority_vote(weak).labels)


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    weak = WeakLabelMatrix(rng.choice([-1, 1], size=(50, 6)))
    a = rng.uniform(-0.8, 0.8, size=6)
    perm = rng.permutation(6)
    s1 = predict_proba(fit_label_model(_estimate(a)), weak).scores
    s2 = predict_proba(fit_label_model(_estimate(a[perm])),
                       WeakLabelMatrix(weak.votes[:, perm])).scores
    assert np.allclose(s1, s2, atol=1e-12)


def test_label_invariance_under_common_positive_scaling():
    from wsfair.labelmodel import LabelModelParams
    rng = np.random.default_rng(9)
    weak = WeakLabelMatrix(rng.choice([-1, 1], size=(200, 4)))
    w = rng.uniform(-2, 2, size=4)
    for logit in (0.0, 0.3):
        for c in (0.1, 1.0, 7.5):
            p1 = LabelModelParams(weights=w, class_prior_logit=logit)
            p2 = LabelModelParams(weights=c * w, class_prior_logit=c * logit)
            l1 = predict_labels(predict_proba(p1, weak))
            l2 = predict_labels(predict_proba(p2, weak))
            assert np.array_equal(l1.labels, l2.labels)


# ---------------------------------------------------------------------------
# Passes over the int8 votes
# ---------------------------------------------------------------------------

def _random_votes(n, m, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, m)) < rng.uniform(0.2, 0.8, m), 1, -1).astype(np.int8)


@pytest.mark.parametrize("m", [3, 24, 100])
@pytest.mark.parametrize("n", [1, VOTE_BLOCK_ROWS - 1, VOTE_BLOCK_ROWS, VOTE_BLOCK_ROWS + 1,
                               3 * VOTE_BLOCK_ROWS + 7])
def test_vote_passes_equal_the_float64_bodies_bit_for_bit(n, m):
    votes = _random_votes(n, m, seed=n * 1000 + m)
    weak = WeakLabelMatrix(votes)
    assert pairwise_moments(weak).tobytes() == float_pairwise_moments(votes).tobytes()
    assert np.array_equal(majority_vote(weak).labels, int64_majority_vote(votes))
    assert _majority_agreement(weak).tobytes() == float_majority_agreement(votes).tobytes()
    params = LabelModelParams(np.random.default_rng(m).uniform(-3.0, 3.0, m), 0.4)
    expected = sigmoid(column_order_logits(votes, params.weights, params.class_prior_logit))
    assert predict_proba(params, weak).scores.tobytes() == expected.tobytes()


# at these seeds, BLAS's matrix-vector product (the float64 votes @ weights)
# gives some row other bits when it is scored in a slice of its own
@pytest.mark.parametrize("seed,n,m,cuts", [
    (0, 4097, 7, [4096]),
    (2, 3 * VOTE_BLOCK_ROWS + 7, 24, [1, 2049, 8191, 12000]),
])
def test_scores_of_row_slices_concatenate_to_the_whole(seed, n, m, cuts):
    rng = np.random.default_rng(seed)
    votes = np.where(rng.random((n, m)) < 0.5, 1, -1).astype(np.int8)
    params = LabelModelParams(rng.uniform(-3.0, 3.0, m), -0.3)
    whole = predict_proba(params, WeakLabelMatrix(votes)).scores
    parts = [predict_proba(params, WeakLabelMatrix(part)).scores
             for part in np.split(votes, cuts)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("m_weights", [2, 4])
def test_scores_need_one_weight_per_lf(m_weights):
    params = LabelModelParams(np.ones(m_weights), 0.0)
    with pytest.raises(DataError, match=f"{m_weights} weights for 3 LFs"):
        predict_proba(params, WeakLabelMatrix(np.ones((5, 3), dtype=np.int8)))


def test_label_model_peak_is_a_small_multiple_of_the_votes():
    # the widest vote matrix a benchmark job fits: lfcount at m = 24. No pass
    # holds a float64 or int64 copy of the whole matrix
    _, _, _, weak, _ = gen_lfcount_dataset(20_000, 24, 0)
    tracemalloc.start()
    try:
        est = triplet_estimate(weak)
        predict_proba(fit_label_model(est), weak)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * weak.votes.nbytes, f"peak {peak / weak.votes.nbytes:.2f} x the votes"
