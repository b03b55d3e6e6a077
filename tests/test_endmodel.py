import warnings

import numpy as np
import pytest

from wsfair import endmodel
from wsfair.core import DataError, FeatureMatrix, LabelVector, ScoreVector
from wsfair.endmodel import LogisticModel, TrainConfig, predict_logreg, train_logreg
from wsfair.labelmodel import predict_labels
from wsfair.metrics import accuracy_f1
from wsfair.sbm import SbmConfig, run_pipeline
from wsfair.synth import gen_gaussian_pair_dataset, gen_lfcount_dataset

from conftest import loss_and_grad


def test_separable_two_points():
    x = FeatureMatrix([[0.0, 0.0], [1.0, 1.0]])
    model = train_logreg(x, LabelVector([-1, 1]))
    pred = predict_labels(predict_logreg(model, x))
    assert pred.labels.tolist() == [-1, 1]


def test_uninformative_targets_shrink_to_zero():
    rng = np.random.default_rng(0)
    x = FeatureMatrix(rng.standard_normal((50, 3)))
    model = train_logreg(x, ScoreVector(np.full(50, 0.5)))
    assert np.abs(model.weights).max() < 1e-6
    assert abs(model.bias) < 1e-6
    assert model.training_meta["iterations"] == 0


def test_gradient_against_central_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(5):
        n, d = int(rng.integers(5, 30)), int(rng.integers(1, 6))
        x = rng.standard_normal((n, d))
        t = rng.random(n)
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        l2 = float(rng.uniform(0.0, 0.1))
        _, gw, gb = loss_and_grad(w, b, x, t, l2)
        num = np.empty(d + 1)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            lp, *_ = loss_and_grad(w + e, b, x, t, l2)
            lm, *_ = loss_and_grad(w - e, b, x, t, l2)
            num[i] = (lp - lm) / (2 * h)
        lp, *_ = loss_and_grad(w, b + h, x, t, l2)
        lm, *_ = loss_and_grad(w, b - h, x, t, l2)
        num[d] = (lp - lm) / (2 * h)
        analytic = np.concatenate([gw, [gb]])
        rel = np.abs(analytic - num).max() / max(np.abs(analytic).max(), 1e-12)
        assert rel < 1e-5


def test_backtracking_tames_large_learning_rate():
    # separable data under the default weak l2: the optimum is far from the
    # zero start, so the fit takes long Newton steps
    rng = np.random.default_rng(2)
    x = FeatureMatrix(rng.standard_normal((200, 2)))
    y = LabelVector(np.where(x.values[:, 0] + 0.5 * x.values[:, 1] > 0, 1, -1))
    model = train_logreg(x, y, TrainConfig(max_iters=500))
    init_loss, *_ = loss_and_grad(np.zeros(2), 0.0,
                                  (x.values - model.standardize_mean) / model.standardize_std,
                                  (y.labels + 1) / 2.0, 1e-4)
    assert np.isfinite(model.training_meta["final_loss"])
    assert model.training_meta["final_loss"] < init_loss
    acc, _ = accuracy_f1(predict_labels(predict_logreg(model, x)), y)
    assert acc > 0.95


def test_line_search_halves_the_step_until_the_loss_does_not_rise(monkeypatch):
    # unpenalised, near-separable 9 x 2 data: 15 Newton steps take 21 loss
    # evaluations, the start's, one per step and 5 after a halving
    x = FeatureMatrix([[0.06427292905422854, 1.6327860428718666],
                       [-0.3737651800143556, -0.1328257628694626],
                       [-0.4115812394307839, -0.18433966181608008],
                       [-0.9571790360187669, -1.1798074236338052],
                       [-1.0381027574228243, 2.9610632586888928],
                       [-1.5043379178972724, -0.17125939948985316],
                       [0.7196641437425577, -0.8784283879046018],
                       [0.23640186338153782, 1.4650348532431037],
                       [-0.9427335556552788, 0.20205810783282738]])
    hi, lo = 1 - 1e-9, 1e-9
    targets = ScoreVector([hi, hi, lo, lo, hi, lo, hi, hi, lo])
    calls, loss_grad_p = [], endmodel._loss_grad_p

    def counted(*args):
        calls.append(1)
        return loss_grad_p(*args)

    monkeypatch.setattr(endmodel, "_loss_grad_p", counted)
    meta = train_logreg(x, targets, TrainConfig(l2=0.0, max_iters=100)).training_meta
    assert (meta["iterations"], len(calls)) == (15, 21)
    assert meta["final_loss"] == pytest.approx(2.3577245520168396e-05, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("targets", [np.full(4, 0.5), [1, -1, 1, -1]])
def test_targets_must_be_scores_or_labels(targets):
    x = FeatureMatrix(np.arange(8.0).reshape(4, 2))
    with pytest.raises(DataError, match="targets must be a ScoreVector or a LabelVector"):
        train_logreg(x, targets)


def test_soft_binary_targets_equal_hard_labels():
    rng = np.random.default_rng(3)
    x = FeatureMatrix(rng.standard_normal((80, 2)))
    y = np.where(rng.random(80) < 0.5, 1, -1)
    m_hard = train_logreg(x, LabelVector(y), TrainConfig(max_iters=200))
    m_soft = train_logreg(x, ScoreVector((y + 1) / 2.0), TrainConfig(max_iters=200))
    assert np.array_equal(m_hard.weights, m_soft.weights)
    assert m_hard.bias == m_soft.bias


def test_predictions_invariant_to_row_order():
    rng = np.random.default_rng(4)
    x = FeatureMatrix(rng.standard_normal((60, 3)))
    model = train_logreg(x, LabelVector(rng.choice([-1, 1], 60)),
                         TrainConfig(max_iters=100))
    perm = rng.permutation(60)
    s_full = predict_logreg(model, x).scores
    s_perm = predict_logreg(model, FeatureMatrix(x.values[perm])).scores
    assert np.allclose(s_full[perm], s_perm, atol=0.0)


def test_trivial_models():
    zero = LogisticModel(weights=np.zeros(2), bias=0.0,
                         standardize_mean=np.zeros(2),
                         standardize_std=np.ones(2), training_meta={})
    x = FeatureMatrix(np.random.default_rng(0).standard_normal((10, 2)))
    assert np.all(predict_logreg(zero, x).scores == 0.5)
    saturated = LogisticModel(weights=np.zeros(2), bias=50.0,
                              standardize_mean=np.zeros(2),
                              standardize_std=np.ones(2), training_meta={})
    assert predict_logreg(saturated, x).scores.min() > 0.999999


def test_constant_feature_column_is_skipped():
    x = FeatureMatrix(np.column_stack([np.ones(40),
                                       np.linspace(-1, 1, 40)]))
    y = LabelVector(np.where(x.values[:, 1] > 0, 1, -1))
    model = train_logreg(x, y, TrainConfig(max_iters=300))
    assert model.standardize_std[0] == 1.0
    acc, _ = accuracy_f1(predict_labels(predict_logreg(model, x)), y)
    assert acc == 1.0


def test_fit_stops_on_the_gradient_test_for_lfcount_pseudolabels():
    # the lfcount-baseline setting: one group is translated by 10-50 units on
    # both axes, so the two standardized columns are nearly collinear
    feats, groups, _, weak, _ = gen_lfcount_dataset(2000, 12, seed=0)
    cfg = TrainConfig(max_iters=3000)
    res = run_pipeline(feats, groups, weak, None, train_cfg=cfg)
    model = res.end_model
    xs = (feats.values - model.standardize_mean) / model.standardize_std
    _, gw, gb = loss_and_grad(model.weights, model.bias, xs,
                              res.scores.scores, cfg.l2)
    assert max(np.abs(gw).max(), abs(gb)) < cfg.tol
    assert model.training_meta["iterations"] < cfg.max_iters


def test_predictions_invariant_to_a_huge_feature_scale():
    # |x| near 1e200 squares past the float64 range; the standardization
    # must not, or every standardized feature becomes 0
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 2))
    y = LabelVector(np.where(x[:, 0] + 0.3 * rng.standard_normal(300) > 0, 1, -1))
    preds = []
    for scale in (1.0, 1e200):
        feats = FeatureMatrix(x * scale)
        model = train_logreg(feats, y)
        assert np.isfinite(model.standardize_std).all()
        preds.append(predict_labels(predict_logreg(model, feats)).labels)
    assert np.array_equal(preds[0], preds[1])
    assert (preds[0] == y.labels).mean() > 0.8


@pytest.mark.parametrize("scale", [1.5e308, 1.79e308])
def test_predictions_invariant_to_a_feature_scale_near_the_float64_limit(scale):
    # max |x| at or above 2^1023, where 2^e itself is not a float64
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, (200, 2))
    y = LabelVector(np.where(x[:, 0] + 0.3 * rng.standard_normal(200) > 0, 1, -1))
    preds = [predict_labels(predict_logreg(train_logreg(feats, y), feats)).labels
             for feats in (FeatureMatrix(x), FeatureMatrix(x * scale))]
    assert np.array_equal(preds[0], preds[1])
    assert (preds[0] == y.labels).mean() > 0.8


def test_standardizes_a_column_whose_spread_passes_the_float64_range():
    # 90% of the rows at -0.5 x 1.79e308 and 10% at 0.95 x 1.79e308: every
    # value is finite, but a value less the column mean is not
    high = np.arange(200) % 10 == 0
    x = np.column_stack([np.where(high, 0.95, -0.5) * 1.79e308,
                         np.random.default_rng(8).standard_normal(200)])
    y = LabelVector(np.where(high, 1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_logreg(FeatureMatrix(x), y)
        preds = predict_labels(predict_logreg(model, FeatureMatrix(x))).labels
    assert np.array_equal(preds, y.labels)


@pytest.mark.parametrize("case", ["constant-column", "separable"])
def test_unpenalised_fit_returns_finite_weights(case):
    # l2 = 0 leaves the Hessian singular (constant column) or the optimum at
    # infinity (separable data); the fit still returns finite weights
    rng = np.random.default_rng(5)
    if case == "constant-column":
        x = FeatureMatrix(np.column_stack([np.ones(100), rng.standard_normal(100)]))
        y = LabelVector(rng.choice([-1, 1], 100))
    else:
        x = FeatureMatrix(rng.standard_normal((100, 2)))
        y = LabelVector(np.where(x.values[:, 0] > 0, 1, -1))
    model = train_logreg(x, y, TrainConfig(l2=0.0))
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias)
    assert model.training_meta["iterations"] < 5000


def test_end_model_on_sbm_pseudolabels_beats_direct_baseline():
    # pipeline claim: the end model trained on corrected pseudolabels beats
    # the uncorrected planted LF (the baseline pipeline's pseudolabel),
    # median over seeds
    diffs = []
    for seed in range(5):
        feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(4000, seed)
        cfg = SbmConfig(epsilon=0.05, ot_kind="linear", seed=seed)
        res = run_pipeline(feats, groups, weak, cfg,
                           train_cfg=TrainConfig(max_iters=2000))
        end_acc, _ = accuracy_f1(res.end_labels, truth)
        base_acc, _ = accuracy_f1(LabelVector(weak.votes[:, 0]), truth)
        diffs.append(end_acc - base_acc)
    assert np.median(diffs) > 0.0
