import numpy as np
import pytest

from wsfair.core import (DataError, FeatureMatrix, GroupAssignment, LabelVector,
                         ScoreVector)
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
    with pytest.raises(DataError, match="both groups must be non-empty"):
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


def test_f1_is_zero_without_a_positive_in_prediction_or_truth():
    neg = LabelVector([-1, -1])
    assert accuracy_f1(neg, neg) == (1.0, 0.0)


def test_accuracy_plus_error_is_one():
    rng = np.random.default_rng(1)
    pred = LabelVector(rng.choice([-1, 1], 97))
    truth = LabelVector(rng.choice([-1, 1], 97))
    acc, _ = accuracy_f1(pred, truth)
    err = float((pred.labels != truth.labels).mean())
    assert acc + err == 1.0


def test_length_mismatch():
    with pytest.raises(DataError, match="prediction and truth lengths differ"):
        accuracy_f1(LabelVector([1]), LabelVector([1, 1]))


def test_fairness_report_json():
    pred = LabelVector([1, -1, 1, 1])
    truth = LabelVector([1, 1, -1, -1])   # no positives in group 1
    js = fairness_report(pred, truth, _groups([0, 0, 1, 1]))
    assert set(js) == {"accuracy", "f1", "dp_gap", "eo_gap", "n0", "n1"}
    assert js["eo_gap"] is None
    assert js["n0"] == 2 and js["n1"] == 2


def test_fairness_report_without_truth_or_second_group():
    pred = LabelVector([1, -1, 1, 1])
    no_truth = fairness_report(pred, None, _groups([0, 0, 1, 1]))
    assert no_truth == {"accuracy": None, "f1": None, "dp_gap": 0.5, "eo_gap": None,
                        "n0": 2, "n1": 2}
    one_group = fairness_report(pred, LabelVector([1, 1, 1, -1]), _groups([1, 1, 1, 1]))
    assert one_group["accuracy"] == 0.5 and one_group["f1"] == pytest.approx(2 / 3)
    assert one_group["dp_gap"] is None and one_group["eo_gap"] is None
    assert (one_group["n0"], one_group["n1"]) == (0, 4)
    with pytest.raises(DataError, match="group assignment length does not match predictions"):
        fairness_report(pred, None, _groups([0, 1]))


# ---------------------------------------------------------------------------
# dp_threshold
# ---------------------------------------------------------------------------

def _naive_dp_threshold(scores, groups, reference):
    """Brute force over every pair of per-group thresholds, used as an oracle.

    A group's candidate thresholds are its distinct scores plus the next float
    above the highest (no positives), so each candidate is a cut between
    distinct scores. A pair is feasible when 2|k0 n1 - k1 n0| <= max(n0, n1);
    the most agreement with the reference wins, then the smaller gap, fewer
    positives and fewer group-0 positives.
    """
    s, g, ref = scores.scores, groups.group_of, reference.labels
    n0, n1 = int((g == 0).sum()), int((g == 1).sum())
    cands = [np.append(np.unique(s[g == k]), np.nextafter(s[g == k].max(), np.inf))
             for k in (0, 1)]
    best = None
    for t0 in cands[0]:
        for t1 in cands[1]:
            pred = np.where(s >= np.where(g == 0, t0, t1), 1, -1)
            k0 = int((pred[g == 0] == 1).sum())
            k1 = int((pred[g == 1] == 1).sum())
            gap = abs(k0 * n1 - k1 * n0)
            if 2 * gap > max(n0, n1):
                continue
            key = (-int((pred == ref).sum()), gap, k0 + k1, k0)
            if best is None or key < best[0]:
                best = (key, (float(t0), float(t1)), pred)
    return best[1], best[2]


def _gap_bound(groups):
    n0, n1 = (int((groups.group_of == k).sum()) for k in (0, 1))
    return 1.0 / (2 * min(n0, n1))


def _assert_matches_oracle(s, g, ref):
    scores, groups, ref = ScoreVector(s), _groups(g), LabelVector(ref)
    (t0, t1), pred = dp_threshold(scores, groups, ref)
    (o0, o1), opred = _naive_dp_threshold(scores, groups, ref)
    assert (t0, t1) == (o0, o1)
    assert np.array_equal(pred.labels, opred)
    assert dp_gap(pred, groups) <= _gap_bound(groups)


def _random_case(rng, n, frac1=0.5):
    g = (rng.random(n) < frac1).astype(int)
    g[:2] = [0, 1]
    return g, rng.choice([-1, 1], n)


def test_dp_threshold_matches_naive_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        g, ref = _random_case(rng, n)
        _assert_matches_oracle(rng.random(n), g, ref)


def test_dp_threshold_matches_naive_oracle_on_heavy_ties():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 60))
        g, ref = _random_case(rng, n)
        values = rng.random(int(rng.integers(3, 6)))
        _assert_matches_oracle(rng.choice(values, n), g, ref)


def test_dp_threshold_matches_naive_oracle_on_unequal_groups():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(10, 60))
        g, ref = _random_case(rng, n, frac1=rng.choice([0.1, 0.25, 0.75, 0.9]))
        s = rng.random(n) if seed % 2 else rng.choice(rng.random(4), n)
        _assert_matches_oracle(s, g, ref)


def test_dp_threshold_row_permutation():
    rng = np.random.default_rng(6)
    n = 300
    g, ref = _random_case(rng, n, frac1=0.3)
    s = rng.choice(rng.random(40), n)
    thr, pred = dp_threshold(ScoreVector(s), _groups(g), LabelVector(ref))
    perm = rng.permutation(n)
    pthr, ppred = dp_threshold(ScoreVector(s[perm]), _groups(g[perm]),
                               LabelVector(ref[perm]))
    assert pthr == thr
    assert np.array_equal(ppred.labels, pred.labels[perm])


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
    (t0, t1), pred = dp_threshold(scores, groups, ref)
    assert t1 - t0 == pytest.approx(0.2, abs=0.05)
    assert dp_gap(pred, groups) <= _gap_bound(groups)


def test_dp_threshold_degenerate_equal_scores():
    scores = ScoreVector(np.full(40, 0.5))
    groups = _groups(np.repeat([0, 1], 20))
    ref = LabelVector(np.ones(40, dtype=int))
    (t0, t1), pred = dp_threshold(scores, groups, ref)
    assert (t0, t1) == (0.5, 0.5)
    assert np.all(pred.labels == 1)


def test_dp_threshold_no_positives_threshold_is_above_every_score():
    scores = ScoreVector([1.0, 0.9, 1.0, 0.2])
    groups = _groups([0, 0, 1, 1])
    (t0, t1), pred = dp_threshold(scores, groups, LabelVector([-1, -1, -1, -1]))
    assert t0 > 1.0 and t1 > 1.0 and np.isfinite([t0, t1]).all()
    assert np.all(pred.labels == -1)


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
        assert dp_gap(pred, groups) <= _gap_bound(groups)


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
        spec = LabelingFunctionSpec(theta=2.0, center=true_center)
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
        LabelingFunctionSpec(theta=2.0, center=np.zeros(2)), x)
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
    spec = LabelingFunctionSpec(theta=2.5, center=np.zeros(2))
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


def test_center_scan_merges_shells_of_equal_radius():
    # 15 positions, each held by 2 rows of each group: every group shell is
    # one row, and rows at one distance from the center end one curve point
    x = np.repeat(np.arange(15.0), 4)
    correct = np.random.default_rng(9).random(60) < 0.6
    groups = _groups(np.tile([0, 1], 30))
    scan = center_scan(FeatureMatrix(x[:, None]), correct, groups)
    for g, pts in scan.curve.items():
        d = np.abs(x - x[scan.best_center_row])[groups.group_of == g]
        want = [(r, float(correct[groups.group_of == g][d <= r].mean())) for r in np.unique(d)]
        assert pts == want


def test_center_scan_too_few_rows():
    x = FeatureMatrix(np.random.default_rng(0).standard_normal((20, 2)))
    with pytest.raises(DataError, match="center scan needs at least 50 rows"):
        center_scan(x, np.ones(20, dtype=bool), _groups([0, 1] * 10))


def test_center_scan_csv():
    scan = CenterScan(best_center_row=3,
                      curve={0: [(0.5, 1.0), (1.0, 0.9)], 1: [(2.0, 0.8)]})
    text = scan.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "group,radius,cum_accuracy"
    assert len(lines) == 4
