"""Source bias mitigation, and the pipeline from LF votes to end-model labels.

For every labeling function the accuracy is estimated separately in each
group. When one group's estimate beats the other's by at least the threshold
epsilon, the disadvantaged group's feature cloud is mapped onto the favored
group's and that LF's votes are borrowed from nearest neighbors there. The
fitted map depends only on the features, so it is fitted once per direction
and shared by every LF rewritten in that direction (results are identical to
per-LF fits). A NumericalError while fitting, applying or borrowing through
a direction's map sets just that direction's LFs to "none" and records its
message as their `error`, as degenerate moments do for one LF; the pipeline
continues. A DataError, unusable input, propagates. `run_pipeline` feeds the
(rewritten) votes to the label model and its pseudolabels to the end model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (DataError, FeatureMatrix, GroupAssignment, LabelVector,
                   NumericalError, ScoreVector, WeakLabelMatrix, split_by_group,
                   validate_dataset)
from . import endmodel as em
from . import labelmodel as lm
from . import metrics as mx
from .transport import OT_KINDS, SINKHORN_MAX_POINTS, apply_map, fit_map, knn_borrow

DIRECTION_NONE = "none"
DIRECTION_0_TO_1 = "0->1"
DIRECTION_1_TO_0 = "1->0"


@dataclass(frozen=True)
class SbmConfig:
    epsilon: float = 0.05
    ot_kind: str = "linear"
    eta: float = 1.0
    knn_k: int = 1
    seed: int = 0
    sinkhorn_max_points: int = SINKHORN_MAX_POINTS

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be >= 0")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and > 0")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.sinkhorn_max_points < 1:
            raise ValueError("sinkhorn_max_points must be >= 1")
        if self.ot_kind not in OT_KINDS:
            raise ValueError(f"ot_kind must be one of {OT_KINDS}")


@dataclass(frozen=True)
class SbmLfDecision:
    lf: str
    a0: float
    a1: float
    direction: str
    rows_rewritten: int
    map_id: str = None
    error: str = None


@dataclass(frozen=True)
class SbmAudit:
    """Per-LF rewrite decisions (serialised) and the gap test's (est0, est1)."""

    per_lf: tuple
    estimates: tuple = field(compare=False, repr=False)

    def to_json(self) -> list:
        return [asdict(d) for d in self.per_lf]


def group_accuracies(weak0: WeakLabelMatrix, weak1: WeakLabelMatrix):
    """Signed non-strict triplet estimates computed independently per group."""
    if weak0.n == 0 or weak1.n == 0:
        raise DataError("both groups must be non-empty")
    return lm.triplet_estimate(weak0, strict=False), lm.triplet_estimate(weak1, strict=False)


def run_sbm(features: FeatureMatrix, groups: GroupAssignment, weak: WeakLabelMatrix,
            cfg: SbmConfig):
    """Algorithmic core: per-LF gap test, directional transport, vote rewrite.

    Returns (modified weak labels, audit). Only vote entries change; features,
    groups and row order pass through untouched, and columns whose direction
    is "none" are bit-identical to the input.
    """
    sp = split_by_group(features, groups, weak)
    est0, est1 = group_accuracies(sp.w0, sp.w1)
    a0, a1 = est0.per_lf, est1.per_lf
    bad = est0.degenerate_flags | est1.degenerate_flags

    directions = np.select([bad, a1 >= a0 + cfg.epsilon, a0 >= a1 + cfg.epsilon],
                           [DIRECTION_NONE, DIRECTION_0_TO_1, DIRECTION_1_TO_0],
                           DIRECTION_NONE).astype(object)
    errors = np.where(bad, "degenerate moments", None)
    map_ids = np.full(weak.m, None, dtype=object)

    new_votes = np.array(weak.votes, copy=True)
    for direction, x_src, x_dst, w_dst, src_rows in (
            (DIRECTION_0_TO_1, sp.x0, sp.x1, sp.w1, sp.idx0),
            (DIRECTION_1_TO_0, sp.x1, sp.x0, sp.w0, sp.idx1)):
        lfs = np.flatnonzero(directions == direction)
        if not lfs.size:
            continue
        try:
            tmap = fit_map(x_src, x_dst, cfg.ot_kind, eta=cfg.eta, seed=cfg.seed,
                           max_points=cfg.sinkhorn_max_points)
            borrowed = knn_borrow(apply_map(tmap, x_src), x_dst, w_dst.votes[:, lfs], cfg.knn_k)
        except NumericalError as exc:
            directions[lfs], errors[lfs] = DIRECTION_NONE, str(exc)
            continue
        new_votes[src_rows[:, None], lfs] = borrowed
        map_ids[lfs] = f"map_{direction.replace('->', 'to')}_{cfg.ot_kind}"

    changed = (new_votes != weak.votes).sum(axis=0)
    decisions = tuple(SbmLfDecision(*row) for row in zip(
        weak.lf_names, a0.tolist(), a1.tolist(), directions, changed.tolist(),
        map_ids, errors))
    return WeakLabelMatrix(new_votes, weak.lf_names), SbmAudit(decisions, (est0, est1))


@dataclass(frozen=True)
class PipelineResult:
    """Pseudolabels, the label-model fit behind them (group_estimates is None
    when a group is empty), then (given a TrainConfig) the end model's output."""
    scores: ScoreVector
    labels: LabelVector
    audit: SbmAudit = None
    weak_used: WeakLabelMatrix = None
    estimate: lm.AccuracyEstimate = None
    params: lm.LabelModelParams = None
    group_estimates: tuple = None
    end_model: em.LogisticModel = None
    end_labels: LabelVector = None
    thresholds: tuple = None          # (t0, t1) and post_labels under postprocess
    post_labels: LabelVector = None


def run_pipeline(features: FeatureMatrix, groups: GroupAssignment,
                 weak: WeakLabelMatrix, cfg: SbmConfig = None, *,
                 class_prior: float = 0.5, train_cfg: em.TrainConfig = None,
                 hard_labels: bool = False, postprocess: bool = False) -> PipelineResult:
    """SBM (none for cfg=None, the baseline), label model, and with `train_cfg`
    the end model on soft (or `hard_labels`) pseudolabels; `postprocess` adds
    DP thresholds on its scores chosen to agree with the pseudolabels."""
    validate_dataset(features, groups, weak)
    used, audit, group_est = weak, None, None
    if cfg is not None:
        used, audit = run_sbm(features, groups, weak, cfg)
        group_est = audit.estimates
    elif groups.indices(0).size and groups.indices(1).size:
        group_est = group_accuracies(*(weak.take(groups.indices(g)) for g in (0, 1)))
    est = lm.triplet_estimate(used)
    params = lm.fit_label_model(est, class_prior)
    scores = lm.predict_proba(params, used)
    labels = lm.predict_labels(scores)
    if train_cfg is None:
        return PipelineResult(scores, labels, audit, used, est, params, group_est)
    model = em.train_logreg(features, labels if hard_labels else scores, train_cfg)
    end_scores = em.predict_logreg(model, features)
    thresholds, post_labels = (mx.dp_threshold(end_scores, groups, labels)
                               if postprocess else (None, None))
    return PipelineResult(scores, labels, audit, used, est, params, group_est, model,
                          lm.predict_labels(end_scores), thresholds, post_labels)
