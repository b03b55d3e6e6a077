"""Latent accuracy estimation from vote agreement and naive-Bayes aggregation.

Accuracies live on the correlation scale a_j = E[lambda_j * Y] in [-1, 1].
Under conditional independence of the votes given Y, pairwise second moments
factor as E[lambda_i * lambda_j] = a_i * a_j, so for any triple (i, j, k)

    |a_i| = sqrt(E[l_i l_j] * E[l_i l_k] / E[l_j l_k]).

With more than three sources each LF gets one such estimate per pair of
partners; we average over all usable triples. All LFs are estimated at once
from one m x (m-1)(m-2)/2 gather whose row i lists LF i's partner pairs (j, k)
in one fixed order, unusable pairs zeroed in place; that order is what keeps
the reduction bit-reproducible. Signs are resolved against the majority vote.

Every pass over the n x m votes reads the int8 matrix as it is: integer
results (moments, the majority vote, agreement) are exact sums, and the only
float64 copies are of VOTE_BLOCK_ROWS rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DataError, DegenerateMoments, ScoreVector, LabelVector,
                   WeakLabelMatrix, sigmoid)

# Clamp on the correlation scale: estimates live in [DELTA, 1 - DELTA] so the
# implied log-odds weights stay finite.
DELTA = 1e-3
# Triples whose denominator moment is below this floor are skipped.
DENOM_FLOOR = 1e-4
# Rows of votes per float64 block: 4,096 x 24 LFs is 0.8 MB.
VOTE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class AccuracyEstimate:
    """Per-LF accuracy estimates on the correlation scale.

    clamp_flags marks estimates that hit the numerical clamp, moment_flags
    marks LFs for which some triple had a negative moment-product ratio
    (sampling noise), tie_flags marks LFs whose sign defaulted to + because
    their majority-vote correlation was exactly zero, degenerate_flags marks
    LFs with no usable triple (only produced under strict=False).
    """

    per_lf: np.ndarray
    clamp_flags: np.ndarray
    moment_flags: np.ndarray
    degenerate_flags: np.ndarray
    tie_flags: np.ndarray = None


@dataclass(frozen=True)
class LabelModelParams:
    """Per-LF log-odds weights plus a class-prior logit."""

    weights: np.ndarray
    class_prior_logit: float


def pairwise_moments(weak: WeakLabelMatrix) -> np.ndarray:
    """Empirical second-moment matrix E_hat[lambda_i * lambda_j], m x m.

    V^T V is summed block by block; its entries are integers of magnitude at
    most n, exact in float64, so the result does not depend on the blocks.
    """
    acc = np.zeros((weak.m, weak.m))
    for lo in range(0, weak.n, VOTE_BLOCK_ROWS):
        v = weak.votes[lo:lo + VOTE_BLOCK_ROWS].astype(np.float64)
        acc += v.T @ v
    return acc / weak.n


def triplet_magnitudes_from_moments(moments: np.ndarray, *, strict: bool = True):
    """Accuracy magnitudes from a pairwise moment matrix.

    Returns (magnitudes, moment_flags, degenerate_flags). Magnitudes are the
    raw triple averages, before clamping. Negative product ratios (possible
    under sampling noise) are handled by taking absolute moments; the affected
    LF is flagged.
    """
    moments = np.asarray(moments, dtype=np.float64)
    m = moments.shape[0]
    if m < 3:
        raise DataError(f"triplet estimation needs m >= 3 labeling functions, got {m}")
    # Row i lists LF i's partner pairs (j, k), j < k, both != i, in triu order.
    jj, kk = np.triu_indices(m - 1, k=1)
    i = np.arange(m)[:, None]
    j, k = jj + (jj >= i), kk + (kk >= i)
    absm, sgn = np.abs(moments), np.sign(moments)
    usable = absm[j, k] >= DENOM_FLOOR
    count = usable.sum(axis=1)
    degenerate = count == 0
    if strict and degenerate.any():
        raise DegenerateMoments(f"all triples for LF {np.flatnonzero(degenerate)[0]} "
                                f"have |E[l_j l_k]| below {DENOM_FLOOR}")
    ratio = absm[i, j] * absm[i, k] / np.where(usable, absm[j, k], 1.0)
    mags = np.where(usable, np.sqrt(ratio), 0.0).sum(axis=1) / np.maximum(count, 1)
    mags[degenerate] = DELTA
    neg_flags = (usable & (sgn[i, j] * sgn[i, k] * sgn[j, k] < 0)).any(axis=1)
    return mags, neg_flags, degenerate


def triplet_estimate(weak: WeakLabelMatrix, *, strict: bool = True) -> AccuracyEstimate:
    """Estimate accuracy magnitudes (signs unresolved) by the triplet method."""
    mags, neg_flags, degenerate = triplet_magnitudes_from_moments(
        pairwise_moments(weak), strict=strict)
    clamped = (mags < DELTA) | (mags > 1.0 - DELTA)
    clamped &= ~degenerate
    return AccuracyEstimate(per_lf=np.clip(mags, DELTA, 1.0 - DELTA),
                            clamp_flags=clamped,
                            moment_flags=neg_flags,
                            degenerate_flags=degenerate)


def majority_vote(weak: WeakLabelMatrix) -> LabelVector:
    """Sign of the unweighted row sum; ties go to +1."""
    s = weak.votes.sum(axis=1, dtype=np.int64)
    return LabelVector(np.where(s >= 0, 1, -1))


def resolve_signs(magnitudes: AccuracyEstimate, weak: WeakLabelMatrix) -> AccuracyEstimate:
    """Attach signs to triplet magnitudes.

    Each LF gets the sign of its agreement rate with the unweighted majority
    vote (exactly zero agreement defaults to + and is flagged). If the mean
    signed accuracy comes out negative all signs are flipped: the design
    assumes a majority of LFs beat random guessing.
    """
    agree = _majority_agreement(weak)
    ties = agree == 0.0
    signs = np.where(agree >= 0.0, 1.0, -1.0)
    signed = signs * magnitudes.per_lf
    if signed.mean() < 0.0:
        signed = -signed
    return replace(magnitudes, per_lf=signed, tie_flags=ties)


def _majority_agreement(weak: WeakLabelMatrix) -> np.ndarray:
    """Mean of v_ij * mv_i over rows i, from the count of votes equal to the
    majority vote: (2 * count - n) / n."""
    mv = majority_vote(weak).labels
    count = (weak.votes == mv[:, None]).sum(axis=0)
    return (2 * count - weak.n) / weak.n


def fit_label_model(acc: AccuracyEstimate, class_prior: float = 0.5) -> LabelModelParams:
    """Naive-Bayes weights from signed accuracies.

    weight_j = log((1 + a_j) / (1 - a_j)), the log-odds of LF j being right.
    """
    a = acc.per_lf
    weights = np.log1p(a) - np.log1p(-a)
    prior = float(class_prior)
    if not 0.0 < prior < 1.0:
        raise ValueError("class prior must lie strictly inside (0, 1)")
    return LabelModelParams(weights=weights,
                            class_prior_logit=float(np.log(prior / (1.0 - prior))))


def predict_proba(params: LabelModelParams, weak: WeakLabelMatrix) -> ScoreVector:
    """P(Y = +1 | votes) under the conditionally independent vote model.

    Each row's logit is the prior plus w_j * v_ij summed over the LFs from the
    first column to the last, so a row's score does not depend on the other
    rows or on the BLAS thread count.
    """
    w, logits = np.asarray(params.weights), np.empty(weak.n)
    if w.shape != (weak.m,):
        raise DataError(f"{w.size} weights for {weak.m} LFs")
    for lo in range(0, weak.n, VOTE_BLOCK_ROWS):
        block = weak.votes[lo:lo + VOTE_BLOCK_ROWS]
        s = np.zeros(len(block))
        for j in range(weak.m):
            s += w[j] * block[:, j]
        logits[lo:lo + len(block)] = params.class_prior_logit + s
    return ScoreVector(sigmoid(logits))


def predict_labels(scores: ScoreVector) -> LabelVector:
    """Threshold at 0.5; ties go to +1."""
    return LabelVector(np.where(scores.scores >= 0.5, 1, -1))
