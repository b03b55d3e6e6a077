"""Fairness and performance metrics, DP threshold postprocessing, center scan.

Demographic parity gap: |P(pred=1 | group 1) - P(pred=1 | group 0)|.
Equal opportunity gap:  |TPR_1 - TPR_0|, undefined when a group has no
positive-truth rows (reported as None, never silently 0). The positive class
is +1 throughout; F1 uses the zero convention when precision + recall = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (EmptyGroup, FeatureMatrix, GroupAssignment, LabelVector,
                   LengthMismatch, ScoreVector, TooFewRows, format_real, rng_stream)

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
                lines.append(f"{g},{format_real(radius)},{format_real(acc)}")
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


def _cuts(scores: np.ndarray, ref_pos: np.ndarray):
    """Scores sorted descending, which cuts k (the k highest predicted positive)
    split no tie, and how many rows agree with the reference at each cut."""
    order = np.argsort(-scores)
    desc = scores[order]
    valid = np.concatenate(([True], desc[:-1] > desc[1:], [True]))
    hits = np.concatenate(([0], np.cumsum(ref_pos[order])))
    return desc, valid, 2 * hits - np.arange(desc.size + 1) + (desc.size - hits[-1])


def dp_threshold(scores: ScoreVector, groups: GroupAssignment, reference: LabelVector):
    """Group-wise thresholds with matched positive rates (Hardt et al. 2016).

    An exact search over pairs of cuts (k0, k1), the counts each group
    predicts positive, that split no tied scores. A pair is feasible when its
    demographic parity gap |k0/n0 - k1/n1| is at most 1/(2 min(n0, n1)); only
    the floor and ceiling of k n_small/n_big can partner a cut k of the larger
    group. The feasible pair agreeing with the most reference labels wins
    (pseudolabels in the WS setting), then the smaller gap, then fewer
    positives, then smaller k0. Returns ((t0, t1), pred), pred +1 iff score >=
    its group's threshold: the lowest score the group predicts positive, or
    the next float above its highest score when it predicts none.
    """
    if reference.n != scores.n:
        raise LengthMismatch("reference length does not match scores")
    masks = _group_masks(groups, scores.n)
    parts = [_cuts(scores.scores[m], reference.labels[m] == 1) for m in masks]
    n0, n1 = (p[0].size for p in parts)
    big = int(n1 > n0)
    nb, ns = (n0, n1) if big == 0 else (n1, n0)
    kb = np.repeat(np.flatnonzero(parts[big][1]), 2)
    ks = kb * ns // nb
    ks[1::2] += 1                                   # floor and floor + 1
    ks_valid = np.append(parts[1 - big][1], False)  # ns + 1 is no cut
    ok = ks_valid[ks] & (2 * np.abs(kb * ns - ks * nb) <= nb)
    k0, k1 = (kb[ok], ks[ok]) if big == 0 else (ks[ok], kb[ok])
    agree = parts[0][2][k0] + parts[1][2][k1]
    gap = np.abs(k0 * n1 - k1 * n0)
    best = np.lexsort((k0, k0 + k1, gap, -agree))[0]
    t0, t1 = (float(desc[k - 1]) if k else float(np.nextafter(desc[0], np.inf))
              for (desc, _, _), k in zip(parts, (k0[best], k1[best])))
    thresh = np.where(groups.group_of == 0, t0, t1)
    pred = LabelVector(np.where(scores.scores >= thresh, 1, -1))
    return (t0, t1), pred


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
