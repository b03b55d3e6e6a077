"""Symmetries of the vote rewrite: rigid motions and row permutations of the
features must not change which votes run_sbm writes, permuting the LF columns
permutes the rewritten votes, and swapping the group ids 0 <-> 1 mirrors every
direction while leaving the votes alone."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsfair.core import FeatureMatrix, GroupAssignment, WeakLabelMatrix
from wsfair.sbm import (DIRECTION_0_TO_1, DIRECTION_1_TO_0, DIRECTION_NONE,
                        SbmConfig, run_sbm)
from wsfair.synth import gen_gaussian_pair_dataset, gen_lfcount_dataset
from wsfair.transport import OT_KINDS

N_PER_GROUP = 5_000     # at the Sinkhorn cap, so that fit is not subsampled
MIRROR = {DIRECTION_NONE: DIRECTION_NONE, DIRECTION_0_TO_1: DIRECTION_1_TO_0,
          DIRECTION_1_TO_0: DIRECTION_0_TO_1}


@functools.lru_cache(maxsize=None)
def _dataset(name):
    """(features, groups, weak). lfcount at 2,000 rows and 8 LFs rewrites
    LFs in both directions; gaussian-pair rewrites one LF, from group 1."""
    if name == "pair":
        feats, groups, _, weak, _ = gen_gaussian_pair_dataset(N_PER_GROUP, 0)
    else:
        feats, groups, _, weak, _ = gen_lfcount_dataset(2_000, 8, 0)
    return feats, groups, weak


def _config(ot_kind):
    return SbmConfig(ot_kind=ot_kind, seed=0, sinkhorn_max_points=N_PER_GROUP)


@functools.lru_cache(maxsize=None)
def _base(name, ot_kind):
    """run_sbm on the unmodified dataset: (votes, audit)."""
    feats, groups, weak = _dataset(name)
    votes, audit = run_sbm(feats, groups, weak, _config(ot_kind))
    assert sum(d.rows_rewritten for d in audit.per_lf) > 0
    return votes.votes, audit


def _rotation(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("ot_kind", ["linear", "sinkhorn"])
def test_votes_invariant_under_rigid_motion(ot_kind):
    feats, groups, weak = _dataset("pair")
    base, _ = _base("pair", ot_kind)
    rot = _rotation(feats.d, 1)
    for offset in (0.0, 1e4, 1e6):
        moved = FeatureMatrix(feats.values @ rot.T + offset)
        votes, _ = run_sbm(moved, groups, weak, _config(ot_kind))
        changed = int((votes.votes != base).sum())
        assert changed == 0, f"offset {offset:g} changed {changed} votes"


def test_votes_follow_row_permutation():
    feats, groups, weak = _dataset("pair")
    base, _ = _base("pair", "linear")
    perm = np.random.default_rng(2).permutation(feats.n)
    votes, _ = run_sbm(feats.take(perm), GroupAssignment(groups.group_of[perm]),
                       WeakLabelMatrix(weak.votes[perm], weak.lf_names), _config("linear"))
    assert np.array_equal(votes.votes, base[perm])


@pytest.mark.parametrize("name", ["pair", "lfcount"])
@pytest.mark.parametrize("ot_kind", OT_KINDS)
def test_votes_follow_lf_permutation(name, ot_kind):
    feats, groups, weak = _dataset(name)
    base, audit = _base(name, ot_kind)
    perm = np.random.default_rng(3).permutation(weak.m)
    permuted = WeakLabelMatrix(weak.votes[:, perm], [weak.lf_names[j] for j in perm])
    votes, got = run_sbm(feats, groups, permuted, _config(ot_kind))
    assert np.array_equal(votes.votes, base[:, perm])
    assert [d.direction for d in got.per_lf] == [audit.per_lf[j].direction for j in perm]


@pytest.mark.parametrize("name", ["pair", "lfcount"])
@pytest.mark.parametrize("ot_kind", OT_KINDS)
def test_group_swap_mirrors_directions(name, ot_kind):
    feats, groups, weak = _dataset(name)
    base, audit = _base(name, ot_kind)
    swapped = GroupAssignment(1 - groups.group_of)
    votes, got = run_sbm(feats, swapped, weak, _config(ot_kind))
    assert np.array_equal(votes.votes, base)
    assert [d.direction for d in got.per_lf] == [MIRROR[d.direction] for d in audit.per_lf]
    assert [(d.a0, d.a1) for d in got.per_lf] == [(d.a1, d.a0) for d in audit.per_lf]


# ---------------------------------------------------------------------------
# The same four symmetries as hypothesis properties, on small clouds. The
# seeded cases above stay as regressions at the Sinkhorn cap.
# ---------------------------------------------------------------------------

_SMALL = settings(derandomize=True, deadline=None, max_examples=15)
_cases = st.tuples(st.sampled_from(["pair", "lfcount"]), st.integers(0, 2**16),
                   st.sampled_from(OT_KINDS))


@functools.lru_cache(maxsize=None)
def _small(name, seed, ot_kind):
    """(features, groups, weak, votes, audit): a small dataset and run_sbm on it."""
    if name == "pair":
        feats, groups, _, weak, _ = gen_gaussian_pair_dataset(150, seed)
    else:
        feats, groups, _, weak, _ = gen_lfcount_dataset(400, 6, seed)
    votes, audit = run_sbm(feats, groups, weak, SbmConfig(ot_kind=ot_kind, seed=seed))
    return feats, groups, weak, votes.votes, audit


@_SMALL
@given(_cases, st.integers(0, 2**16),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
def test_property_votes_invariant_under_rigid_motion(case, rot_seed, offset):
    feats, groups, weak, base, audit = _small(*case)
    moved = FeatureMatrix(feats.values @ _rotation(feats.d, rot_seed).T + np.array(offset))
    votes, got = run_sbm(moved, groups, weak, SbmConfig(ot_kind=case[2], seed=case[1]))
    assert np.array_equal(votes.votes, base)
    assert got == audit


@_SMALL
@given(_cases, st.integers(0, 2**16))
def test_property_votes_follow_row_permutation(case, perm_seed):
    feats, groups, weak, base, audit = _small(*case)
    perm = np.random.default_rng(perm_seed).permutation(feats.n)
    votes, got = run_sbm(feats.take(perm), GroupAssignment(groups.group_of[perm]),
                         WeakLabelMatrix(weak.votes[perm], weak.lf_names),
                         SbmConfig(ot_kind=case[2], seed=case[1]))
    assert np.array_equal(votes.votes, base[perm])
    assert [d.direction for d in got.per_lf] == [d.direction for d in audit.per_lf]


@_SMALL
@given(_cases, st.integers(0, 2**16))
def test_property_votes_follow_lf_permutation(case, perm_seed):
    feats, groups, weak, base, audit = _small(*case)
    perm = np.random.default_rng(perm_seed).permutation(weak.m)
    permuted = WeakLabelMatrix(weak.votes[:, perm], [weak.lf_names[j] for j in perm])
    votes, got = run_sbm(feats, groups, permuted, SbmConfig(ot_kind=case[2], seed=case[1]))
    assert np.array_equal(votes.votes, base[:, perm])
    assert [d.direction for d in got.per_lf] == [audit.per_lf[j].direction for j in perm]


@_SMALL
@given(_cases)
def test_property_group_swap_mirrors_directions(case):
    feats, groups, weak, base, audit = _small(*case)
    votes, got = run_sbm(feats, GroupAssignment(1 - groups.group_of), weak,
                         SbmConfig(ot_kind=case[2], seed=case[1]))
    assert np.array_equal(votes.votes, base)
    assert [d.direction for d in got.per_lf] == [MIRROR[d.direction] for d in audit.per_lf]
    assert [(d.a0, d.a1) for d in got.per_lf] == [(d.a1, d.a0) for d in audit.per_lf]
