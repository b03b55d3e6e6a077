import numpy as np
import pytest

from wsfair.core import (EmptyGroup, FeatureMatrix, GroupAssignment, LabelVector,
                         LengthMismatch, ScoreVector, TooFewRows)
from wsfair.metrics import (CenterScan, accuracy_f1, center_scan,
                            dp_gap, dp_threshold, eo_gap, fairness_report)
from wsfair.synth import LabelingFunctionSpec, lf_accuracy_at


def _groups(g):
    return GroupAssignment(np.asarray(g))


# ---------------------------------------------------------------------------
# dp_gap / eo_gap / accuracy_f1
# ---------------------------------------------------------------------------

def test_dp_gap_trivial_cases():
    groups = _groups([0, 0, 1, 1])
    assert dp_gap(LabelVector([1, 1, 1, 1]), groups) == 0.0
    assert dp_gap(LabelVector([-1, -1, 1, 1]), groups) == 1.0


def test_dp_gap_adult_base_rates():
    # positive rates 0.3038 (group 1) vs 0.1093 (group 0) gap to 0.1945
    n = 10_000
    groups = _groups(np.repeat([0, 1], n))
    pred = np.full(2 * n, -1)
    pred[:1093] = 1
    pred[n:n + 3038] = 1
    assert dp_gap(LabelVector(pred), groups) == pytest.approx(0.1945, abs=1e-12)


def test_dp_gap_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(0)
    g = rng.integers(0, 2, 300)
    pred = rng.choice([-1, 1], 300)
    base = dp_gap(LabelVector(pred), _groups(g))
    assert dp_gap(LabelVector(pred), _groups(1 - g)) == pytest.approx(base)
    # permute rows within one group
    idx = np.arange(300)
    ones = np.flatnonzero(g == 1)
    idx[ones] = rng.permutation(ones)
    assert dp_gap(LabelVector(pred[idx]), _groups(g)) == pytest.approx(base)


def test_dp_gap_empty_group():
    with pytest.raises(EmptyGroup):
        dp_gap(LabelVector([1, 1]), _groups([0, 0]))


def test_eo_gap_perfect_predictor():
    truth = LabelVector([1, -1, 1, -1])
    assert eo_gap(truth, truth, _groups([0, 0, 1, 1])) == 0.0


def test_eo_gap_undefined_without_true_positives():
    pred = LabelVector([1, 1, 1, 1])
    truth = LabelVector([1, 1, -1, -1])   # group 1 has no positives
    assert eo_gap(pred, truth, _groups([0, 0, 1, 1])) is None


def test_eo_gap_hand_counted_confusions():
    # group 0: TPR 8/10, group 1: TPR 6/10
    truth = LabelVector([1] * 10 + [-1] * 5 + [1] * 10 + [-1] * 5)
    pred = LabelVector([1] * 8 + [-1] * 2 + [-1] * 5 + [1] * 6 + [-1] * 4 + [-1] * 5)
    groups = _groups([0] * 15 + [1] * 15)
    assert eo_gap(pred, truth, groups) == pytest.approx(0.2, abs=1e-12)


def test_accuracy_f1_examples():
    truth = LabelVector([1, 1, -1, -1])
    assert accuracy_f1(truth, truth) == (1.0, 1.0)
    acc, f1 = accuracy_f1(LabelVector([-1, -1, -1, -1]), truth)
    assert f1 == 0.0
    # TP=2 FP=1 FN=1 TN=6
    truth10 = LabelVector([1, 1, 1, -1, -1, -1, -1, -1, -1, -1])
    pred10 = LabelVector([1, 1, -1, 1, -1, -1, -1, -1, -1, -1])
    acc, f1 = accuracy_f1(pred10, truth10)
    assert acc == pytest.approx(0.8)
    assert f1 == pytest.approx(2.0 / 3.0)


def test_accuracy_plus_error_is_one():
    rng = np.random.default_rng(1)
    pred = LabelVector(rng.choice([-1, 1], 97))
    truth = LabelVector(rng.choice([-1, 1], 97))
    acc, _ = accuracy_f1(pred, truth)
    err = float((pred.labels != truth.labels).mean())
    assert acc + err == 1.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        accuracy_f1(LabelVector([1]), LabelVector([1, 1]))


def test_fairness_report_json():
    pred = LabelVector([1, -1, 1, 1])
    truth = LabelVector([1, 1, -1, -1])   # no positives in group 1
    rep = fairness_report(pred, truth, _groups([0, 0, 1, 1]))
    js = rep.to_json()
    assert set(js) == {"accuracy", "f1", "dp_gap", "eo_gap", "n0", "n1"}
    assert js["eo_gap"] is None
    assert js["n0"] == 2 and js["n1"] == 2


def test_fairness_report_without_truth_or_second_group():
    pred = LabelVector([1, -1, 1, 1])
    no_truth = fairness_report(pred, None, _groups([0, 0, 1, 1])).to_json()
    assert no_truth == {"accuracy": None, "f1": None, "dp_gap": 0.5, "eo_gap": None,
                        "n0": 2, "n1": 2}
    one_group = fairness_report(pred, LabelVector([1, 1, 1, -1]), _groups([1, 1, 1, 1]))
    assert one_group.accuracy == 0.5 and one_group.f1 == pytest.approx(2 / 3)
    assert one_group.dp_gap is None and one_group.eo_gap is None
    assert one_group.n_per_group == (0, 4)
    with pytest.raises(LengthMismatch):
        fairness_report(pred, None, _groups([0, 1]))


# ---------------------------------------------------------------------------
# dp_threshold
# ---------------------------------------------------------------------------

def _naive_dp_threshold(scores, groups, reference, grid):
    """Independent brute-force implementation used as an oracle."""
    ts = np.linspace(0.0, 1.0, grid)
    s, g, ref = scores.scores, groups.group_of, reference.labels
    best = None
    for i0, t0 in enumerate(ts):
        for i1, t1 in enumerate(ts):
            thr = np.where(g == 0, t0, t1)
            pred = np.where(s >= thr, 1, -1)
            r0 = (pred[g == 0] == 1).mean()
            r1 = (pred[g == 1] == 1).mean()
            gap = abs(r1 - r0)
            acc = (pred == ref).mean()
            key = (round(gap, 12), -round(acc, 12), i0, i1)
            if best is None or key < best[0]:
                best = (key, (t0, t1), pred)
    return best[1], best[2]


def test_dp_threshold_matches_naive_oracle():
    rng = np.random.default_rng(2)
    scores = ScoreVector(rng.random(160))
    groups = _groups(rng.integers(0, 2, 160))
    ref = LabelVector(rng.choice([-1, 1], 160))
    (t0, t1), pred = dp_threshold(scores, groups, ref, grid=21)
    (o0, o1), opred = _naive_dp_threshold(scores, groups, ref, grid=21)
    assert (t0, t1) == (o0, o1)
    assert np.array_equal(pred.labels, opred)


def test_dp_threshold_identical_distributions():
    rng = np.random.default_rng(3)
    s = rng.random(400)
    scores = ScoreVector(np.concatenate([s, s]))
    groups = _groups(np.repeat([0, 1], 400))
    ref = LabelVector(np.tile(np.where(s > 0.4, 1, -1), 2))
    (t0, t1), pred = dp_threshold(scores, groups, ref)
    assert t0 == t1
    default = LabelVector(np.where(scores.scores >= 0.5, 1, -1))
    assert dp_gap(pred, groups) <= dp_gap(default, groups)


def test_dp_threshold_shifted_uniform():
    # group-1 scores are group-0 scores shifted by +0.2
    rng = np.random.default_rng(4)
    s0 = rng.uniform(0.0, 0.8, 3000)
    s1 = rng.uniform(0.2, 1.0, 3000)
    scores = ScoreVector(np.concatenate([s0, s1]))
    groups = _groups(np.repeat([0, 1], 3000))
    ref = LabelVector(np.where(scores.scores >= 0.5, 1, -1))
    for grid in (101, 1001):
        (t0, t1), pred = dp_threshold(scores, groups, ref, grid=grid)
        assert t1 - t0 == pytest.approx(0.2, abs=0.05)
        assert dp_gap(pred, groups) <= 1.0 / grid


def test_dp_threshold_degenerate_equal_scores():
    scores = ScoreVector(np.full(40, 0.5))
    groups = _groups(np.repeat([0, 1], 20))
    ref = LabelVector(np.ones(40, dtype=int))
    (t0, t1), pred = dp_threshold(scores, groups, ref)
    assert (t0, t1) == (0.0, 0.0)
    assert dp_gap(pred, groups) == 0.0


def test_dp_threshold_never_increases_gap():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        scores = ScoreVector(rng.random(n))
        g = rng.integers(0, 2, n)
        g[:2] = [0, 1]
        groups = _groups(g)
        ref = LabelVector(rng.choice([-1, 1], n))
        _, pred = dp_threshold(scores, groups, ref)
        default = LabelVector(np.where(scores.scores >= 0.5, 1, -1))
        assert dp_gap(pred, groups) <= dp_gap(default, groups) + 1e-12


# ---------------------------------------------------------------------------
# center_scan
# ---------------------------------------------------------------------------

def test_center_scan_flat_when_always_correct():
    rng = np.random.default_rng(5)
    x = FeatureMatrix(rng.standard_normal((200, 2)))
    groups = _groups(rng.integers(0, 2, 200))
    scan = center_scan(x, np.ones(200, dtype=bool), groups)
    for pts in scan.curve.values():
        assert all(acc == 1.0 for _, acc in pts)


def test_center_scan_recovers_planted_center():
    # seed-median rank of the recovered center among distances to the true
    # center stays within the nearest 1% of rows
    ranks = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 20_000
        x = rng.standard_normal((n, 2))
        true_center = np.array([1.0, -0.5])
        spec = LabelingFunctionSpec(decision="stochastic", theta=2.0,
                                    center=true_center)
        correct = rng.random(n) < lf_accuracy_at(spec, x)
        groups = _groups(rng.integers(0, 2, n))
        scan = center_scan(FeatureMatrix(x), correct, groups, seed=seed)
        recovered = x[scan.best_center_row]
        d_all = np.linalg.norm(x - true_center, axis=1)
        ranks.append((d_all < np.linalg.norm(recovered - true_center)).sum() / n)
        # cumulative accuracy decays outward from the center
        for pts in scan.curve.values():
            assert pts[0][1] > pts[-1][1]
    assert np.median(ranks) <= 0.01


def test_center_scan_ignores_where_the_data_sits():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((500, 2))
    correct = rng.random(500) < lf_accuracy_at(
        LabelingFunctionSpec(decision="stochastic", theta=2.0, center=np.zeros(2)), x)
    groups = _groups(rng.integers(0, 2, 500))
    base = center_scan(FeatureMatrix(x), correct, groups)
    far = center_scan(FeatureMatrix(x + 1e6), correct, groups)
    assert far.best_center_row == base.best_center_row
    for g, pts in base.curve.items():
        got = np.array(far.curve[g])
        assert got.shape == (len(pts), 2)
        assert np.array_equal(got[:, 1], [acc for _, acc in pts])
        assert np.allclose(got[:, 0], [r for r, _ in pts], rtol=1e-7, atol=0.0)


def test_center_scan_translated_group_starts_farther():
    rng = np.random.default_rng(6)
    n = 3000
    x = rng.standard_normal((n, 2))
    grp = rng.integers(0, 2, n)
    x[grp == 1] += 8.0
    spec = LabelingFunctionSpec(decision="stochastic", theta=2.5,
                                center=np.zeros(2))
    correct = rng.random(n) < lf_accuracy_at(spec, x)
    scan = center_scan(FeatureMatrix(x), correct, _groups(grp), seed=0)
    first_radius = {g: pts[0][0] for g, pts in scan.curve.items()}
    overall_acc = {g: pts[-1][1] for g, pts in scan.curve.items()}
    assert first_radius[1] > first_radius[0]
    assert overall_acc[1] < overall_acc[0]


def test_center_scan_radii_strictly_increasing():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((500, 2))
    vals[:100] = vals[100:200]       # force duplicated distances
    scan = center_scan(FeatureMatrix(vals), rng.random(500) < 0.7,
                       _groups(rng.integers(0, 2, 500)), seed=0)
    for pts in scan.curve.values():
        radii = [r for r, _ in pts]
        assert all(a < b for a, b in zip(radii, radii[1:]))


def test_center_scan_too_few_rows():
    x = FeatureMatrix(np.random.default_rng(0).standard_normal((20, 2)))
    with pytest.raises(TooFewRows):
        center_scan(x, np.ones(20, dtype=bool), _groups([0, 1] * 10))


def test_center_scan_csv():
    scan = CenterScan(best_center_row=3,
                      curve={0: [(0.5, 1.0), (1.0, 0.9)], 1: [(2.0, 0.8)]})
    text = scan.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "group,radius,cum_accuracy"
    assert len(lines) == 4
