import math

import numpy as np
import pytest

from conftest import logistic, normal_cdf
from wsfair.core import DataError, LabelVector, rng_stream, sigmoid
from wsfair.synth import (GROUP1_OFFSET, GROUP1_MIX, LabelingFunctionSpec,
                          gen_gaussian_pair_dataset, gen_lfcount_dataset,
                          gen_shift_dataset, lf_accuracy_at, sample_lf_votes)


def _spec(theta, center=(0.0, 0.0)):
    return LabelingFunctionSpec(theta=theta, center=np.asarray(center, dtype=float))


# ---------------------------------------------------------------------------
# Accuracy profile
# ---------------------------------------------------------------------------

def test_accuracy_at_center():
    assert lf_accuracy_at(_spec(1.0), np.zeros(2)) == pytest.approx(logistic(2.0),
                                                                    abs=1e-12)
    assert logistic(2.0) == pytest.approx(0.8808, abs=5e-5)


def test_accuracy_random_guessing_limits():
    tiny = lf_accuracy_at(_spec(1e-9), np.zeros(2))
    assert 0.5 < tiny < 0.5 + 1e-8
    far = lf_accuracy_at(_spec(2.0), np.array([1e7, 0.0]))
    assert 0.5 < far < 0.5 + 1e-5


@pytest.mark.parametrize("coord", [1e200, 1e300, 1.5e308])
def test_accuracy_far_beyond_squared_range_is_random_guessing(coord):
    # |x - c|^2 overflows; the distance itself does at 1.5e308 * sqrt(2)
    assert lf_accuracy_at(_spec(2.0), np.array([coord, coord])) == 0.5


def test_accuracy_distance_keeps_its_bits():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((500, 2)) * np.exp(rng.uniform(-30.0, 30.0, (500, 1)))
    spec = _spec(1.3, [0.5, -2.0])
    want = sigmoid(2.0 * 1.3 / (1.0 + np.linalg.norm(x - spec.center, axis=1)))
    assert np.array_equal(lf_accuracy_at(spec, x), want)


def test_accuracy_bounds_for_positive_theta():
    rng = np.random.default_rng(0)
    for _ in range(200):
        theta = rng.uniform(0.01, 10.0)
        x = rng.standard_normal(2) * rng.uniform(0.0, 50.0)
        p = lf_accuracy_at(_spec(theta), x)
        assert 0.5 < p < 1.0


def test_accuracy_shift_equivariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 2))
    center = np.array([0.3, -0.7])
    shift = np.array([12.0, -4.0])
    p1 = lf_accuracy_at(_spec(1.7, center), x)
    p2 = lf_accuracy_at(_spec(1.7, center + shift), x + shift)
    assert np.allclose(p1, p2, rtol=0.0, atol=1e-12)


def test_lipschitz_bound_small():
    rng = np.random.default_rng(2)
    for theta in (0.5, 1.0, 3.0):
        spec = _spec(theta, (0.5, 0.5))
        x1 = rng.standard_normal((1000, 2)) * 3.0
        x2 = x1 + rng.standard_normal((1000, 2)) * rng.uniform(0.01, 2.0, (1000, 1))
        lhs = np.abs(lf_accuracy_at(spec, x1) - lf_accuracy_at(spec, x2))
        rhs = 4.0 * theta * np.linalg.norm(x1 - x2, axis=1)
        assert (lhs <= rhs).all()


# ---------------------------------------------------------------------------
# Vote sampling
# ---------------------------------------------------------------------------

def test_votes_match_truth_at_huge_theta():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((500, 2)) * 0.01
    truth = LabelVector(rng.choice([-1, 1], 500))
    votes = sample_lf_votes(_spec(1e6), x, truth, rng_stream(0, 99))
    assert np.array_equal(votes, truth.labels)


def test_vote_rate_matches_closed_form():
    # all points at distance 2 from the center share one accuracy value
    n = 100_000
    rng = np.random.default_rng(4)
    angles = rng.uniform(0.0, 2 * math.pi, n)
    x = np.column_stack([2.0 * np.cos(angles), 2.0 * np.sin(angles)])
    truth = LabelVector(rng.choice([-1, 1], n))
    spec = _spec(1.5)
    votes = sample_lf_votes(spec, x, truth, rng_stream(5, 99))
    want = logistic(2 * 1.5 / 3.0)
    assert abs((votes == truth.labels).mean() - want) < 0.01


def test_vote_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 2))
    truth = LabelVector(rng.choice([-1, 1], 200))
    v1 = sample_lf_votes(_spec(1.0), x, truth, rng_stream(7, 99))
    v2 = sample_lf_votes(_spec(1.0), x, truth, rng_stream(7, 99))
    v3 = sample_lf_votes(_spec(1.0), x, truth, rng_stream(8, 99))
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


# ---------------------------------------------------------------------------
# gaussian_pair generator
# ---------------------------------------------------------------------------

def test_gauss_pair_shapes_and_encoding():
    feats, groups, truth, weak, meta = gen_gaussian_pair_dataset(1000, 0)
    assert feats.n == 2000 and weak.m == 3
    assert set(np.unique(weak.votes)) <= {-1, 1}
    assert set(np.unique(truth.labels)) <= {-1, 1}
    assert groups.indices(0).size == groups.indices(1).size == 1000


def test_gauss_pair_group0_lf_accuracy_matches_gaussian_mass():
    # disagreement happens exactly on x0 in [0, 0.5): Phi(0.5) - Phi(0)
    feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(20_000, 1)
    rows = groups.indices(0)
    want = 1.0 - (normal_cdf(0.5) - normal_cdf(0.0))
    assert want == pytest.approx(0.80854, abs=1e-5)
    got = (weak.votes[rows, 0] == truth.labels[rows]).mean()
    assert abs(got - want) < 0.012


def test_gauss_pair_group1_lf_degrades():
    feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(20_000, 2)
    accs = {}
    for g in (0, 1):
        rows = groups.indices(g)
        accs[g] = (weak.votes[rows, 0] == truth.labels[rows]).mean()
    assert accs[1] < accs[0] - 0.05


def test_gauss_pair_group1_moments():
    feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(10_000, 3)
    x1 = feats.values[groups.indices(1)]
    se = math.sqrt(5.0 / 10_000)   # per-coordinate sd of the mean
    assert np.abs(x1.mean(axis=0) - GROUP1_OFFSET).max() < 3 * se
    cov = np.cov(x1.T, bias=True)
    target = GROUP1_MIX @ GROUP1_MIX
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.05


def test_gauss_pair_pads_are_informative_but_group_neutral():
    feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(20_000, 4)
    for j in (1, 2):
        for g in (0, 1):
            rows = groups.indices(g)
            acc = (weak.votes[rows, j] == truth.labels[rows]).mean()
            assert abs(acc - 0.95) < 0.01


def test_gauss_pair_bit_reproducible():
    a = gen_gaussian_pair_dataset(500, 9)
    b = gen_gaussian_pair_dataset(500, 9)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[3].votes, b[3].votes)
    c = gen_gaussian_pair_dataset(500, 10)
    assert not np.array_equal(a[3].votes, c[3].votes)


# ---------------------------------------------------------------------------
# lfcount generator
# ---------------------------------------------------------------------------

def test_lfcount_reproducible_and_validated():
    a = gen_lfcount_dataset(400, 3, 0)
    b = gen_lfcount_dataset(400, 3, 0)
    assert np.array_equal(a[3].votes, b[3].votes)
    with pytest.raises(DataError, match="need at least 3 labeling functions"):
        gen_lfcount_dataset(400, 2, 0)


def test_lfcount_group_means():
    feats, groups, truth, weak, meta = gen_lfcount_dataset(8000, 3, 1)
    b = np.array(meta["transform"]["b"])
    assert (10.0 <= b).all() and (b <= 50.0).all()
    m0 = feats.values[groups.indices(0)].mean(axis=0)
    m1 = feats.values[groups.indices(1)].mean(axis=0)
    assert np.abs(m0).max() < 0.1
    assert np.abs(m1 - b).max() < 0.1


def test_lfcount_translation_only_hurts():
    # median over seeds of (group-1 accuracy - group-0 accuracy), per LF
    diffs = [[], [], []]
    for seed in range(10):
        feats, groups, truth, weak, _ = gen_lfcount_dataset(4000, 3, seed)
        for j in range(3):
            accs = {}
            for g in (0, 1):
                rows = groups.indices(g)
                accs[g] = (weak.votes[rows, j] == truth.labels[rows]).mean()
            diffs[j].append(accs[1] - accs[0])
    for j in range(3):
        assert np.median(diffs[j]) <= 0.02


def test_lfcount_extra_lfs_do_not_perturb_earlier_streams():
    # the stream contract: the first 3 columns are identical whether m=3 or m=6
    small = gen_lfcount_dataset(600, 3, 5)
    large = gen_lfcount_dataset(600, 6, 5)
    assert np.array_equal(small[0].values, large[0].values)
    assert np.array_equal(small[3].votes, large[3].votes[:, :3])


# ---------------------------------------------------------------------------
# shift construction
# ---------------------------------------------------------------------------

def _shift_accuracy(shift, n, seed):
    """Accuracy of the shift dataset's first LF column, as the shift sweep scores it."""
    _, _, truth, weak, _ = gen_shift_dataset(n, seed, theta=2.0, shift=shift)
    return float((weak.votes[:, 0] == truth.labels).mean())


def test_shift_accuracy_at_zero_shift_matches_oracle():
    # Monte-Carlo oracle: E[sigmoid(2 theta / (1 + ||x||))] over x ~ N(0, I)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1_000_000, 2))
    want = float(np.mean(1.0 / (1.0 + np.exp(-4.0 / (1.0 + np.linalg.norm(x, axis=1))))))
    got = _shift_accuracy(0.0, 200_000, seed=0)
    assert abs(got - want) < 0.005


def test_shift_far_shift_is_random_guessing():
    acc = _shift_accuracy(1000.0, 50_000, seed=1)
    assert abs(acc - 0.5) < 0.02


def test_shift_accuracy_non_increasing():
    shifts = [0.0, 10.0, 100.0, 1000.0]
    med = []
    for shift in shifts:
        med.append(np.median([_shift_accuracy(shift, 20_000, seed) for seed in range(10)]))
    assert all(a >= b for a, b in zip(med, med[1:]))


def test_shift_dataset_generator():
    feats, groups, truth, weak, meta = gen_shift_dataset(300, 0, shift=5.0)
    assert weak.m == 3
    assert (groups.group_of == 0).all()
    assert meta["transform"] == {"kind": "identity"}
    assert np.abs(feats.values.mean(axis=0) - 5.0).max() < 0.3


def test_spec_validation():
    for theta in (0.0, float("nan"), float("inf")):
        with pytest.raises(DataError):
            LabelingFunctionSpec(theta=theta, center=np.zeros(2))
