import numpy as np
import pytest

from conftest import brute_force_nn, sample_ci_votes
from wsfair import labelmodel, sbm
from wsfair.core import (DataError, DegenerateMoments, FeatureMatrix, GroupAssignment,
                         NonFiniteLoss, NumericalUnderflow, SingularCovariance,
                         WeakLabelMatrix)
from wsfair.metrics import accuracy_f1, dp_gap
from wsfair.sbm import (DIRECTION_0_TO_1, DIRECTION_1_TO_0, DIRECTION_NONE,
                        SbmConfig, group_accuracies, run_pipeline, run_sbm)
from wsfair.synth import gen_gaussian_pair_dataset, gen_lfcount_dataset


def _gauss_pair(n=2000, seed=0):
    return gen_gaussian_pair_dataset(n, seed)


def test_config_validation():
    with pytest.raises(ValueError):
        SbmConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        SbmConfig(knn_k=0)
    with pytest.raises(ValueError):
        SbmConfig(ot_kind="banana")
    with pytest.raises(ValueError):
        SbmConfig(sinkhorn_max_points=0)
    with pytest.raises(ValueError):
        SbmConfig(epsilon=float("nan"))
    for eta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SbmConfig(eta=eta)


def test_group_accuracies_symmetric_distributions():
    a = [0.8, 0.6, 0.5]
    v0, _ = sample_ci_votes(a, 20_000, seed=0)
    v1, _ = sample_ci_votes(a, 20_000, seed=1)
    est0, est1 = group_accuracies(WeakLabelMatrix(v0), WeakLabelMatrix(v1))
    assert np.abs(est0.per_lf - est1.per_lf).max() < 0.04


def test_group_accuracies_planted_gap():
    # group 0: near-perfect planted LF; group 1: the same LF close to random
    rng = np.random.default_rng(2)
    y0 = np.where(rng.random(20_000) < 0.5, 1, -1)
    y1 = np.where(rng.random(20_000) < 0.5, 1, -1)
    v0 = np.column_stack([y0,
                          np.where(rng.random(20_000) < 0.1, -y0, y0),
                          np.where(rng.random(20_000) < 0.1, -y0, y0)])
    v1 = np.column_stack([np.where(rng.random(20_000) < 0.5, -y1, y1),
                          np.where(rng.random(20_000) < 0.1, -y1, y1),
                          np.where(rng.random(20_000) < 0.1, -y1, y1)])
    est0, est1 = group_accuracies(WeakLabelMatrix(v0), WeakLabelMatrix(v1))
    assert est0.per_lf[0] > 0.99          # clamped near 1 - delta
    assert abs(est1.per_lf[0]) < 0.1


def test_group_accuracies_too_few_lfs():
    v0, _ = sample_ci_votes([0.8, 0.6], 100, seed=0)
    v1, _ = sample_ci_votes([0.8, 0.6], 100, seed=1)
    with pytest.raises(DataError, match="triplet estimation needs m >= 3 labeling functions"):
        group_accuracies(WeakLabelMatrix(v0), WeakLabelMatrix(v1))


def test_unreachable_epsilon_is_identity():
    feats, groups, truth, weak, _ = _gauss_pair()
    out, audit = run_sbm(feats, groups, weak, SbmConfig(epsilon=2.0, ot_kind="linear"))
    assert np.array_equal(out.votes, weak.votes)
    assert all(d.direction == DIRECTION_NONE for d in audit.per_lf)
    assert all(d.rows_rewritten == 0 for d in audit.per_lf)


def test_gauss_pair_rewrites_group1_planted_column():
    feats, groups, truth, weak, _ = _gauss_pair(4000, seed=0)
    cfg = SbmConfig(epsilon=0.05, ot_kind="linear", seed=0)
    out, audit = run_sbm(feats, groups, weak, cfg)
    assert audit.per_lf[0].direction == DIRECTION_1_TO_0
    assert audit.per_lf[1].direction == DIRECTION_NONE
    assert audit.per_lf[2].direction == DIRECTION_NONE
    assert audit.per_lf[0].map_id == "map_1to0_linear"
    # post-correction per-group accuracies of the planted LF agree within 0.05
    accs = []
    for g in (0, 1):
        rows = groups.indices(g)
        accs.append((out.votes[rows, 0] == truth.labels[rows]).mean())
    assert abs(accs[0] - accs[1]) < 0.05
    # group-0 entries of the planted column are untouched
    rows0 = groups.indices(0)
    assert np.array_equal(out.votes[rows0, 0], weak.votes[rows0, 0])


def test_symmetric_planted_bias_directions():
    # LF a favored in group 1, LF b favored in group 0; fillers keep m >= 3.
    # The unfavored accuracy is 0.3 (not a pure coin) so every pairwise moment
    # stays well above the triple denominator floor.
    rng = np.random.default_rng(3)
    n = 8000
    y = np.where(rng.random(n) < 0.5, 1, -1)
    grp = np.repeat([0, 1], n // 2)
    feats = FeatureMatrix(rng.standard_normal((n, 2)))
    lf_a = np.where(grp == 1, y, np.where(rng.random(n) < 0.7, -y, y))
    lf_b = np.where(grp == 0, y, np.where(rng.random(n) < 0.7, -y, y))
    fill1 = np.where(rng.random(n) < 0.1, -y, y)
    fill2 = np.where(rng.random(n) < 0.1, -y, y)
    weak = WeakLabelMatrix(np.column_stack([lf_a, lf_b, fill1, fill2]),
                           lf_names=("a", "b", "f1", "f2"))
    groups = GroupAssignment(grp)
    out, audit = run_sbm(feats, groups, weak, SbmConfig(epsilon=0.2, ot_kind="none", seed=0))
    by_name = {d.lf: d for d in audit.per_lf}
    assert by_name["a"].direction == DIRECTION_0_TO_1
    assert by_name["b"].direction == DIRECTION_1_TO_0
    assert by_name["f1"].direction == DIRECTION_NONE
    assert by_name["f2"].direction == DIRECTION_NONE


def test_column_locality():
    feats, groups, truth, weak, _ = _gauss_pair(3000, seed=1)
    out, audit = run_sbm(feats, groups, weak, SbmConfig(epsilon=0.05, ot_kind="linear"))
    for j, dec in enumerate(audit.per_lf):
        if dec.direction == DIRECTION_NONE:
            assert np.array_equal(out.votes[:, j], weak.votes[:, j])


def test_threshold_monotonicity():
    feats, groups, truth, weak, _ = _gauss_pair(3000, seed=2)
    previous = None
    for eps in (0.0, 0.02, 0.05, 0.1, 0.3, 1.0):
        _, audit = run_sbm(feats, groups, weak,
                           SbmConfig(epsilon=eps, ot_kind="linear", seed=0))
        rewritten = {d.lf for d in audit.per_lf if d.direction != DIRECTION_NONE}
        if previous is not None:
            assert rewritten.issubset(previous)
        previous = rewritten


def test_inputs_not_mutated():
    feats, groups, truth, weak, _ = _gauss_pair(1500, seed=3)
    before = np.array(weak.votes, copy=True)
    out, _ = run_sbm(feats, groups, weak, SbmConfig(epsilon=0.05, ot_kind="linear"))
    assert np.array_equal(weak.votes, before)
    assert out.lf_names == weak.lf_names
    assert out.n == weak.n


def test_determinism():
    feats, groups, truth, weak, _ = _gauss_pair(1500, seed=4)
    cfg = SbmConfig(epsilon=0.05, ot_kind="sinkhorn", seed=7)
    out1, audit1 = run_sbm(feats, groups, weak, cfg)
    out2, audit2 = run_sbm(feats, groups, weak, cfg)
    assert np.array_equal(out1.votes, out2.votes)
    assert audit1.to_json() == audit2.to_json()


def test_sinkhorn_votes_come_from_the_whole_favored_group():
    # Both groups hold about 300 rows, three times the fit cap, so the map is
    # fitted on subsamples; a rewritten vote is still the vote of the mapped
    # row's nearest neighbor among all rows of the other group.
    feats, groups, _, weak, _ = gen_lfcount_dataset(600, 8, 0)
    cfg = SbmConfig(ot_kind="sinkhorn", sinkhorn_max_points=100)
    out, audit = run_sbm(feats, groups, weak, cfg)
    directions = np.array([d.direction for d in audit.per_lf])
    assert {DIRECTION_0_TO_1, DIRECTION_1_TO_0} <= set(directions)
    for direction, src, dst in ((DIRECTION_0_TO_1, 0, 1), (DIRECTION_1_TO_0, 1, 0)):
        lfs = np.flatnonzero(directions == direction)
        rows_src, rows_dst = groups.indices(src), groups.indices(dst)
        x_src, x_dst = feats.take(rows_src), feats.take(rows_dst)
        assert min(x_src.n, x_dst.n) > 2 * cfg.sinkhorn_max_points
        mapped = sbm.apply_map(sbm.fit_map(x_src, x_dst, "sinkhorn", max_points=100), x_src)
        nearest = rows_dst[brute_force_nn(mapped.values, x_dst.values, 1)[:, 0]]
        assert np.array_equal(out.votes[np.ix_(rows_src, lfs)], weak.votes[np.ix_(nearest, lfs)])


def test_degenerate_lf_downgraded_to_none():
    # LF 0's moment denominators vanish in both groups; the other LFs proceed
    l1 = np.array([1, 1, 1, -1, 1, -1, -1, -1])
    l2 = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    l3 = np.array([1, 1, -1, -1, 1, 1, -1, -1])
    l4 = np.array([1, -1, 1, -1, 1, -1, 1, -1])
    block = np.column_stack([l1, l2, l3, l4])
    votes = np.tile(block, (40, 1))
    n = votes.shape[0]
    rng = np.random.default_rng(5)
    feats = FeatureMatrix(rng.standard_normal((n, 2)))
    groups = GroupAssignment(np.arange(n) % 2)
    out, audit = run_sbm(feats, groups, WeakLabelMatrix(votes),
                         SbmConfig(epsilon=0.05, ot_kind="none", seed=0))
    assert audit.per_lf[0].direction == DIRECTION_NONE
    assert audit.per_lf[0].error == "degenerate moments"
    assert np.array_equal(out.votes[:, 0], votes[:, 0])


def test_empty_group_raises():
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((10, 2)))
    weak = WeakLabelMatrix(np.random.default_rng(1).choice([-1, 1], size=(10, 3)))
    with pytest.raises(DataError, match="both groups must be non-empty to split"):
        run_sbm(feats, GroupAssignment(np.zeros(10, dtype=int)), weak,
                SbmConfig(ot_kind="none"))


@pytest.mark.parametrize("error", [DataError, DegenerateMoments, SingularCovariance,
                                   NumericalUnderflow, NonFiniteLoss])
def test_a_map_failure_stops_where_its_class_says(monkeypatch, error):
    # lfcount at 2,000 rows and 8 LFs rewrites LFs in both directions
    feats, groups, _, weak, _ = gen_lfcount_dataset(2_000, 8, 0)
    cfg = SbmConfig(ot_kind="linear")
    base_votes, base = run_sbm(feats, groups, weak, cfg)
    assert {d.direction for d in base.per_lf} >= {DIRECTION_0_TO_1, DIRECTION_1_TO_0}
    x0, fit_map = feats.values[groups.indices(0)], sbm.fit_map

    def failing_0_to_1(x_src, *args, **kwargs):
        if np.array_equal(x_src.values, x0):
            raise error("injected")
        return fit_map(x_src, *args, **kwargs)

    monkeypatch.setattr(sbm, "fit_map", failing_0_to_1)
    if error is DataError:
        with pytest.raises(DataError, match="injected"):
            run_sbm(feats, groups, weak, cfg)
        return
    votes, audit = run_sbm(feats, groups, weak, cfg)
    for j, (got, want) in enumerate(zip(audit.per_lf, base.per_lf)):
        if want.direction == DIRECTION_0_TO_1:
            assert (got.direction, got.rows_rewritten, got.map_id, got.error) == (
                DIRECTION_NONE, 0, None, "injected")
            assert np.array_equal(votes.votes[:, j], weak.votes[:, j])
        else:
            assert got == want
            assert np.array_equal(votes.votes[:, j], base_votes.votes[:, j])


def test_audit_json_schema():
    feats, groups, truth, weak, _ = _gauss_pair(1000, seed=5)
    _, audit = run_sbm(feats, groups, weak, SbmConfig(epsilon=0.05, ot_kind="linear"))
    rows = audit.to_json()
    assert len(rows) == weak.m
    for row in rows:
        assert {"lf", "a0", "a1", "direction", "rows_rewritten"} <= set(row)
        assert (abs(row["a1"] - row["a0"]) < 0.05) == (row["direction"] == "none") \
            or row["error"] is not None


def test_pipeline_bypass_matches_baseline():
    feats, groups, truth, weak, _ = _gauss_pair(1200, seed=6)
    res_off = run_pipeline(feats, groups, weak, None)
    assert res_off.audit is None
    assert np.array_equal(res_off.weak_used.votes, weak.votes)
    res_noop = run_pipeline(feats, groups, weak,
                            SbmConfig(epsilon=5.0, ot_kind="linear", seed=0))
    assert np.array_equal(res_noop.scores.scores, res_off.scores.scores)
    assert np.array_equal(res_noop.labels.labels, res_off.labels.labels)


@pytest.mark.parametrize("ot_kind", [None, "linear"])
def test_pipeline_estimates_each_group_once(monkeypatch, ot_kind):
    # one pooled estimate and one per group; SBM reuses its gap test's two
    feats, groups, _, weak, _ = _gauss_pair(300, seed=2)
    sizes, estimate = [], labelmodel.triplet_estimate

    def counted(w, **kwargs):
        sizes.append(w.n)
        return estimate(w, **kwargs)

    monkeypatch.setattr(labelmodel, "triplet_estimate", counted)
    cfg = None if ot_kind is None else SbmConfig(ot_kind=ot_kind)
    res = run_pipeline(feats, groups, weak, cfg)
    assert sorted(sizes) == [300, 300, 600]
    est0, est1 = res.group_estimates
    if cfg is not None:
        assert [(d.a0, d.a1) for d in res.audit.per_lf] == list(zip(est0.per_lf, est1.per_lf))


def test_pipeline_sbm_beats_baseline_on_gauss_pair():
    # label-model level: accuracy strictly up, DP gap strictly down, per seed
    for seed in range(3):
        feats, groups, truth, weak, _ = _gauss_pair(10_000, seed=seed)
        cfg = SbmConfig(epsilon=0.05, ot_kind="linear", seed=seed)
        base = run_pipeline(feats, groups, weak, None)
        corrected = run_pipeline(feats, groups, weak, cfg)
        acc_b, _ = accuracy_f1(base.labels, truth)
        acc_s, _ = accuracy_f1(corrected.labels, truth)
        assert acc_s > acc_b
        assert dp_gap(corrected.labels, groups) < dp_gap(base.labels, groups)


def test_pipeline_deterministic():
    feats, groups, truth, weak, _ = _gauss_pair(1200, seed=8)
    cfg = SbmConfig(epsilon=0.05, ot_kind="linear", seed=1)
    r1 = run_pipeline(feats, groups, weak, cfg)
    r2 = run_pipeline(feats, groups, weak, cfg)
    assert np.array_equal(r1.scores.scores, r2.scores.scores)
