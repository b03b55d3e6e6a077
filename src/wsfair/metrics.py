"""Fairness and performance metrics, DP threshold postprocessing, center scan.

Demographic parity gap: |P(pred=1 | group 1) - P(pred=1 | group 0)|.
Equal opportunity gap:  |TPR_1 - TPR_0|, undefined when a group has no
positive-truth rows (reported as None, never silently 0). The positive class
is +1 throughout; F1 uses the zero convention when precision + recall = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DataError, EmptyGroup, FeatureMatrix, GroupAssignment,
                   LabelVector, LengthMismatch, ScoreVector, TooFewRows, rng_stream)

_CENTER_SCAN_STREAM = 91
CENTER_SCAN_NEIGHBORHOOD_FRAC = 0.10
CENTER_SCAN_STEP_FRAC = 0.02
CENTER_SCAN_MAX_CANDIDATES = 2000


@dataclass(frozen=True)
class FairnessReport:
    """Metrics of one prediction; each is None when its inputs are missing."""

    accuracy: float        # None without truth
    f1: float              # None without truth
    dp_gap: float          # None with one group
    eo_gap: float          # None without truth, with one group, or when undefined
    n_per_group: tuple

    def to_json(self) -> dict:
        return {"accuracy": self.accuracy, "f1": self.f1, "dp_gap": self.dp_gap,
                "eo_gap": self.eo_gap, "n0": self.n_per_group[0],
                "n1": self.n_per_group[1]}


@dataclass(frozen=True)
class CenterScan:
    best_center_row: int
    curve: dict            # group id -> list of (radius, cumulative accuracy)

    def to_csv(self) -> str:
        lines = ["group,radius,cum_accuracy"]
        for g in sorted(self.curve):
            for radius, acc in self.curve[g]:
                lines.append(f"{g},{format(radius, '.17g')},{format(acc, '.17g')}")
        return "\n".join(lines) + "\n"


def _group_masks(groups: GroupAssignment, n: int):
    if groups.n != n:
        raise LengthMismatch("group assignment length does not match predictions")
    m0 = groups.group_of == 0
    m1 = groups.group_of == 1
    if not m0.any() or not m1.any():
        raise EmptyGroup("both groups must be non-empty")
    return m0, m1


def dp_gap(pred: LabelVector, groups: GroupAssignment) -> float:
    """Absolute difference of positive prediction rates between the groups."""
    m0, m1 = _group_masks(groups, pred.n)
    pos = pred.labels == 1
    return abs(float(pos[m1].mean()) - float(pos[m0].mean()))


def eo_gap(pred: LabelVector, truth: LabelVector, groups: GroupAssignment):
    """|TPR_1 - TPR_0|, or None when some group has no true positives."""
    if pred.n != truth.n:
        raise LengthMismatch("prediction and truth lengths differ")
    m0, m1 = _group_masks(groups, pred.n)
    pos = pred.labels == 1
    true_pos = truth.labels == 1
    tprs = []
    for mask in (m0, m1):
        denom = int((mask & true_pos).sum())
        if denom == 0:
            return None
        tprs.append(int((mask & true_pos & pos).sum()) / denom)
    return abs(tprs[1] - tprs[0])


def accuracy_f1(pred: LabelVector, truth: LabelVector):
    """(accuracy, F1) with +1 as the positive class."""
    if pred.n != truth.n:
        raise LengthMismatch("prediction and truth lengths differ")
    p, t = pred.labels, truth.labels
    acc = float((p == t).mean())
    tp = int(((p == 1) & (t == 1)).sum())
    fp = int(((p == 1) & (t == -1)).sum())
    fn = int(((p == -1) & (t == 1)).sum())
    if 2 * tp + fp + fn == 0:
        return acc, 0.0
    return acc, 2.0 * tp / (2 * tp + fp + fn)


def fairness_report(pred: LabelVector, truth, groups: GroupAssignment) -> FairnessReport:
    """Report of `pred`; `truth` may be None and `groups` may hold one group."""
    if groups.n != pred.n:
        raise LengthMismatch("group assignment length does not match predictions")
    n0 = int((groups.group_of == 0).sum())
    n1 = int((groups.group_of == 1).sum())
    acc = f1 = gap = eo = None
    if truth is not None:
        acc, f1 = accuracy_f1(pred, truth)
    if n0 and n1:
        gap = dp_gap(pred, groups)
        if truth is not None:
            eo = eo_gap(pred, truth, groups)
    return FairnessReport(accuracy=acc, f1=f1, dp_gap=gap, eo_gap=eo, n_per_group=(n0, n1))


def dp_threshold(scores: ScoreVector, groups: GroupAssignment, reference: LabelVector,
                 grid: int = 101):
    """Per-group threshold search minimizing the demographic parity gap.

    All (t0, t1) pairs on a uniform grid over [0, 1] are scored; among pairs
    with the minimal positive-rate gap the one maximizing accuracy against the
    supplied reference labels wins (pseudolabels in the WS setting, where true
    labels are unavailable), remaining ties going to the lowest threshold
    pair. Comparisons use integer counts, so ties are exact. Prediction rule:
    +1 iff score >= threshold, matching the default 0.5 rule.
    """
    if grid < 2:
        raise DataError("grid must have at least 2 points")
    if reference.n != scores.n:
        raise LengthMismatch("reference length does not match scores")
    m0, m1 = _group_masks(groups, scores.n)
    ts = np.linspace(0.0, 1.0, grid)

    def per_group(mask):
        s = scores.scores[mask]
        ref_pos = reference.labels[mask] == 1
        order = np.sort(s)
        # rows with s >= t, and how many of those are reference-positive
        pos = s.size - np.searchsorted(order, ts, side="left")
        order_pos = np.sort(s[ref_pos])
        pos_and_ref = ref_pos.sum() - np.searchsorted(order_pos, ts, side="left")
        correct = 2 * pos_and_ref - pos + (s.size - ref_pos.sum())
        return pos.astype(np.int64), correct.astype(np.int64), s.size

    pos0, correct0, n0 = per_group(m0)
    pos1, correct1, n1 = per_group(m1)
    gap = np.abs(pos0[:, None] * n1 - pos1[None, :] * n0)       # scaled by n0*n1
    acc = correct0[:, None] + correct1[None, :]
    i0g, i1g = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    best = np.lexsort((i1g.ravel(), i0g.ravel(), -acc.ravel(), gap.ravel()))[0]
    t0, t1 = ts[best // grid], ts[best % grid]
    thresh = np.where(groups.group_of == 0, t0, t1)
    pred = LabelVector(np.where(scores.scores >= thresh, 1, -1))
    return (float(t0), float(t1)), pred


def center_scan(x: FeatureMatrix, correct, groups: GroupAssignment, *,
                seed: int = 0) -> CenterScan:
    """Locate the highest-accuracy region of an LF and trace its decay.

    Diagnostic only (needs truth). The best center is the candidate row whose
    nearest CENTER_SCAN_NEIGHBORHOOD_FRAC of all rows has the highest
    agreement rate (ties to the lowest row index; candidates are subsampled
    over CENTER_SCAN_MAX_CANDIDATES rows). Per group, shells of
    CENTER_SCAN_STEP_FRAC rows are then expanded outward from that center,
    recording cumulative accuracy against the farthest distance reached.
    """
    correct = np.asarray(correct, dtype=bool)
    n = x.n
    if n < 50:
        raise TooFewRows("center scan needs at least 50 rows")
    if correct.shape != (n,):
        raise LengthMismatch("correctness vector length does not match features")
    _group_masks(groups, n)

    if n <= CENTER_SCAN_MAX_CANDIDATES:
        candidates = np.arange(n)
    else:
        candidates = np.sort(rng_stream(seed, _CENTER_SCAN_STREAM).choice(
            n, size=CENTER_SCAN_MAX_CANDIDATES, replace=False))
    k = max(1, int(np.ceil(CENTER_SCAN_NEIGHBORHOOD_FRAC * n)))
    vals = x.values - x.values.mean(axis=0)    # keeps the expanded form precise
    sq = np.einsum("ij,ij->i", vals, vals)
    best_acc, best_row = -1.0, -1
    for c in candidates:
        d2 = sq + sq[c] - 2.0 * (vals @ vals[c])
        nearest = np.argpartition(d2, k - 1)[:k]
        acc = float(correct[nearest].mean())
        if acc > best_acc:
            best_acc, best_row = acc, int(c)

    center = vals[best_row]
    curve = {}
    for g in (0, 1):
        rows = groups.indices(g)
        d = np.sqrt(np.maximum(sq[rows] + sq[best_row] - 2.0 * (vals[rows] @ center), 0.0))
        order = np.argsort(d, kind="stable")
        step = max(1, int(np.ceil(CENTER_SCAN_STEP_FRAC * rows.size)))
        pts = []
        for size in range(step, rows.size + step, step):
            size = min(size, rows.size)
            radius = float(d[order[size - 1]])
            acc = float(correct[rows[order[:size]]].mean())
            if pts and radius <= pts[-1][0]:
                pts[-1] = (pts[-1][0], acc)    # merge shells at equal radius
            else:
                pts.append((radius, acc))
            if size == rows.size:
                break
        curve[g] = pts
    return CenterScan(best_center_row=best_row, curve=curve)
