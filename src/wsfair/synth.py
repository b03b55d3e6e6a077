"""Seeded generators for the synthetic fairness-recovery constructions.

Stochastic labeling functions follow the distance-modulated accuracy model:
an LF with scale theta and center c votes correctly with probability

    p(x) = sigmoid(2 * theta / (1 + ||x - c||)),

which tends to 1/2 (random guessing) as x moves far from c. Group bias is
induced by transforming one group's features; the true labels are always set
in the latent (pre-transformation) coordinates, so the underlying dataset is
perfectly fair by construction.

All sampling is drawn from named Philox streams keyed on (seed, stream, index)
so generated quantities are bit-reproducible and adding labeling functions
never perturbs earlier draws.

Each `gen_*_dataset` returns (features, groups, truth, weak, meta); `meta` is
the plain dict that `wsfair synth` writes as `specs.json`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DataError, FeatureMatrix, GroupAssignment, LabelVector,
                   TooFewLFs, WeakLabelMatrix, rng_stream, sigmoid)

# Stream ids (never renumber; see core.RNG_VERSION).
_STREAM_FEATURES = 1
_STREAM_PAD_FLIPS = 2
_STREAM_GROUP_HALF = 3
_STREAM_TRANSFORM = 4
_STREAM_LF_PARAMS = 5
_STREAM_LF_VOTES = 6
_STREAM_SHIFT_VOTES = 8

GROUP1_OFFSET = np.array([-4.0, 5.0])
GROUP1_MIX = np.array([[2.0, 1.0], [1.0, 2.0]])
PAD_FLIP_PROB = 0.05


@dataclass(frozen=True)
class LabelingFunctionSpec:
    """One stochastic labeling function: its vote equals the true label with
    probability p(x) above, for scale theta > 0 and center c."""

    theta: float
    center: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise DataError("stochastic LFs need a finite theta > 0")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))

    def to_json(self) -> dict:
        return {"decision": "stochastic", "theta": float(self.theta),
                "center": self.center.tolist()}


def lf_accuracy_at(spec: LabelingFunctionSpec, x) -> np.ndarray:
    """P(vote = truth) at the given point(s); in (0.5, 1) for theta > 0."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dist = np.linalg.norm(pts - spec.center, axis=1)
    p = sigmoid(2.0 * spec.theta / (1.0 + dist))
    return float(p[0]) if np.asarray(x).ndim == 1 else p


def sample_lf_votes(spec: LabelingFunctionSpec, x, truth: LabelVector, rng) -> np.ndarray:
    """Vote column over the rows of array x: truth with probability p(x_i), else flipped."""
    p = lf_accuracy_at(spec, x)
    agree = rng.random(p.shape[0]) < p
    return np.where(agree, truth.labels, -truth.labels).astype(np.int8)


def gen_gaussian_pair_dataset(n: int, seed: int):
    """Two Gaussian groups with one planted threshold LF.

    Group 0 is N(0, I) in the plane; group 1 draws the same latent cloud and
    is pushed through x -> S x + mu with mu = (-4, 5), S = [[2, 1], [1, 2]].
    True labels use the 0.5 threshold on the latent first coordinate; the
    planted LF thresholds the observed first coordinate at 0, so it works well
    only where the transformation is the identity. Two 5%-flip noise columns
    pad the matrix to m = 3: they are conditionally independent given the
    label, which keeps the pairwise moments factorable and per-group triplet
    estimation identifiable. Evaluate the planted LF directly (column 0) to
    reproduce the single-LF setting.

    In `meta`, the pad descriptors' coord/threshold name the latent first
    coordinate, where truth is set: for group 1 they are no rule on the
    observed features, unlike the planted LF's.
    """
    if n < 1:
        raise DataError("n must be >= 1")
    x0 = rng_stream(seed, _STREAM_FEATURES, 0).standard_normal((n, 2))
    x1_latent = rng_stream(seed, _STREAM_FEATURES, 1).standard_normal((n, 2))
    x1 = x1_latent @ GROUP1_MIX.T + GROUP1_OFFSET

    feats = FeatureMatrix(np.vstack([x0, x1]))
    groups = GroupAssignment(np.repeat([0, 1], n))
    truth = LabelVector(np.where(np.concatenate([x0[:, 0], x1_latent[:, 0]]) >= 0.5, 1, -1))

    cols = [np.where(feats.values[:, 0] >= 0, 1, -1).astype(np.int8)]
    for i in range(2):
        flips = rng_stream(seed, _STREAM_PAD_FLIPS, i).random(2 * n) < PAD_FLIP_PROB
        cols.append(np.where(flips, -truth.labels, truth.labels).astype(np.int8))
    weak = WeakLabelMatrix(np.column_stack(cols))
    pad = {"decision": "halfspace", "coord": 0, "threshold": 0.5,
           "flip_prob": PAD_FLIP_PROB}
    meta = {"experiment": "gaussian-pair", "seed": seed,
            "lfs": [{"decision": "halfspace", "coord": 0, "threshold": 0.0,
                     "flip_prob": 0.0}, pad, pad],
            "transform": {"kind": "affine", "A": GROUP1_MIX.tolist(),
                          "b": GROUP1_OFFSET.tolist()}}
    return feats, groups, truth, weak, meta


def gen_lfcount_dataset(n: int = 10_000, m: int = 3, seed: int = 0):
    """Random stochastic-LF ensemble with a translated group.

    n plane points from N(0, I); truth thresholds the first coordinate at 0.
    A random half of the rows becomes group 1 and is translated by a single
    draw b ~ U([10, 50]^2). LF parameters follow theta_j ~ U(0.1, 3) and
    center_j ~ U([-5, 5]^2); votes are sampled on the post-transformation
    coordinates, so every LF degrades on the translated group.
    """
    if m < 3:
        raise TooFewLFs("need at least 3 labeling functions")
    if n < 2:
        raise DataError("n must be >= 2")
    latent = rng_stream(seed, _STREAM_FEATURES, 0).standard_normal((n, 2))
    truth = LabelVector(np.where(latent[:, 0] >= 0.0, 1, -1))

    half = rng_stream(seed, _STREAM_GROUP_HALF, 0).permutation(n)[: n // 2]
    grp = np.zeros(n, dtype=np.int8)
    grp[half] = 1
    b = rng_stream(seed, _STREAM_TRANSFORM, 0).uniform(10.0, 50.0, size=2)
    observed = np.array(latent, copy=True)
    observed[grp == 1] += b
    feats = FeatureMatrix(observed)
    groups = GroupAssignment(grp)

    specs, cols = [], []
    for j in range(m):
        prng = rng_stream(seed, _STREAM_LF_PARAMS, j)
        spec = LabelingFunctionSpec(theta=float(prng.uniform(0.1, 3.0)),
                                    center=prng.uniform(-5.0, 5.0, size=2))
        specs.append(spec.to_json())
        cols.append(sample_lf_votes(spec, feats.values, truth,
                                    rng_stream(seed, _STREAM_LF_VOTES, j)))
    weak = WeakLabelMatrix(np.column_stack(cols))
    meta = {"experiment": "lfcount", "seed": seed, "lfs": specs,
            "transform": {"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
                          "b": b.tolist()}}
    return feats, groups, truth, weak, meta


def shift_accuracy_sweep(theta: float, shifts, n: int, seed: int):
    """Empirical LF accuracy as the whole cloud is translated away.

    One latent N(0, I) plane cloud is shared across shifts; for each shift k
    it is translated by k * (1, 1) and a stochastic LF centered at the origin
    votes on the translated points. Accuracy approaches 1/2 as k grows.
    """
    latent = rng_stream(seed, _STREAM_FEATURES, 0).standard_normal((n, 2))
    truth = LabelVector(np.where(latent[:, 0] >= 0.0, 1, -1))
    spec = LabelingFunctionSpec(theta=float(theta), center=np.zeros(2))
    out = []
    for idx, shift in enumerate(shifts):
        moved = latent + float(shift)
        votes = sample_lf_votes(spec, moved, truth,
                                rng_stream(seed, _STREAM_SHIFT_VOTES, idx))
        out.append((float(shift), float((votes == truth.labels).mean())))
    return out


def gen_shift_dataset(n: int, seed: int, *, theta: float = 2.0,
                      shift: float = 0.0, m: int = 3):
    """File-oriented variant of the shift construction (single group).

    m independent copies of the origin-centered stochastic LF vote on the
    shifted cloud, so the output is a complete (features, groups, truth,
    weak) dataset for the CLI.
    """
    if m < 3:
        raise TooFewLFs("need at least 3 labeling functions")
    latent = rng_stream(seed, _STREAM_FEATURES, 0).standard_normal((n, 2))
    truth = LabelVector(np.where(latent[:, 0] >= 0.0, 1, -1))
    moved = latent + float(shift)
    feats = FeatureMatrix(moved)
    groups = GroupAssignment(np.zeros(n, dtype=np.int8))
    spec = LabelingFunctionSpec(theta=float(theta), center=np.zeros(2))
    cols = [sample_lf_votes(spec, feats.values, truth,
                            rng_stream(seed, _STREAM_LF_VOTES, j))
            for j in range(m)]
    weak = WeakLabelMatrix(np.column_stack(cols))
    meta = {"experiment": "shift", "seed": seed, "lfs": [spec.to_json()] * m,
            "transform": {"kind": "identity"}}
    return feats, groups, truth, weak, meta
