"""Symmetries of the vote rewrite: rigid motions and row permutations of the
features must not change which votes run_sbm writes."""

import numpy as np
import pytest

from wsfair.core import FeatureMatrix, GroupAssignment, WeakLabelMatrix
from wsfair.sbm import SbmConfig, run_sbm
from wsfair.synth import gen_gaussian_pair_dataset

N_PER_GROUP = 5_000     # at the Sinkhorn cap, so that fit is not subsampled


@pytest.fixture(scope="module")
def pair():
    return gen_gaussian_pair_dataset(N_PER_GROUP, 0)


def _rotation(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("ot_kind", ["linear", "sinkhorn"])
def test_votes_invariant_under_rigid_motion(pair, ot_kind):
    feats, groups, _, weak, _ = pair
    cfg = SbmConfig(ot_kind=ot_kind, seed=0, sinkhorn_max_points=N_PER_GROUP)
    base, audit = run_sbm(feats, groups, weak, cfg)
    assert sum(d.rows_rewritten for d in audit.per_lf) > 0
    rot = _rotation(feats.d, 1)
    for offset in (0.0, 1e4, 1e6):
        moved = FeatureMatrix(feats.values @ rot.T + offset, feats.row_ids)
        votes, _ = run_sbm(moved, groups, weak, cfg)
        changed = int((votes.votes != base.votes).sum())
        assert changed == 0, f"offset {offset:g} changed {changed} votes"


def test_votes_follow_row_permutation(pair):
    feats, groups, _, weak, _ = pair
    cfg = SbmConfig(ot_kind="linear", seed=0)
    base, _ = run_sbm(feats, groups, weak, cfg)
    perm = np.random.default_rng(2).permutation(feats.n)
    votes, _ = run_sbm(feats.take(perm), GroupAssignment(groups.group_of[perm]),
                       WeakLabelMatrix(weak.votes[perm], weak.lf_names), cfg)
    assert np.array_equal(votes.votes, base.votes[perm])
