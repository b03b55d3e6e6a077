import numpy as np
import pytest

from wsfair.core import (DataError, DimensionMismatch, EmptyGroup, FeatureMatrix,
                         GroupAssignment, InvalidVote, LabelVector,
                         NonFiniteFeature, ScoreVector, WeakLabelMatrix,
                         feature_csv_text, label_csv_text, load_feature_csv,
                         load_label_csv, load_weak_csv, split_by_group,
                         validate_dataset, weak_csv_text)


def _dataset(n=4, m=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = FeatureMatrix(rng.standard_normal((n, 2)))
    groups = GroupAssignment(rng.integers(0, 2, size=n))
    weak = WeakLabelMatrix(rng.choice([-1, 1], size=(n, m)))
    return feats, groups, weak


def test_validate_well_formed():
    feats, _, weak = _dataset()
    groups = GroupAssignment([0, 1, 0, 1])
    assert validate_dataset(feats, groups, weak) is None


def test_zero_vote_rejected():
    with pytest.raises(InvalidVote):
        WeakLabelMatrix([[1, 0, -1]])


def test_empty_group_under_strict_flag():
    feats, _, weak = _dataset()
    groups = GroupAssignment([0, 0, 0, 0])
    validate_dataset(feats, groups, weak)  # fine when not strict
    with pytest.raises(EmptyGroup):
        validate_dataset(feats, groups, weak, require_two_groups=True)


def test_row_count_mismatch():
    feats, groups, _ = _dataset(n=4)
    weak = WeakLabelMatrix(np.ones((5, 3), dtype=int))
    with pytest.raises(DimensionMismatch):
        validate_dataset(feats, groups, weak)


def test_non_finite_features_rejected():
    with pytest.raises(NonFiniteFeature):
        FeatureMatrix([[1.0, np.nan]])
    with pytest.raises(NonFiniteFeature):
        FeatureMatrix([[np.inf, 0.0]])


def test_score_vector_range():
    ScoreVector([0.0, 0.5, 1.0])
    with pytest.raises(Exception):
        ScoreVector([1.2])


def test_label_vector_entries():
    LabelVector([1, -1, 1])
    with pytest.raises(InvalidVote):
        LabelVector([1, 2])


def test_containers_are_immutable():
    feats, groups, weak = _dataset()
    for arr in (feats.values, groups.group_of, weak.votes):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_validate_is_idempotent():
    feats, _, weak = _dataset()
    groups = GroupAssignment([0, 1, 0, 1])
    votes, values = weak.votes.copy(), feats.values.copy()
    assert validate_dataset(feats, groups, weak) is None
    assert validate_dataset(feats, groups, weak) is None
    assert np.array_equal(weak.votes, votes)
    assert np.array_equal(feats.values, values)


def test_split_direct_partition():
    feats, _, weak = _dataset()
    groups = GroupAssignment([0, 1, 0, 1])
    sp = split_by_group(feats, groups, weak)
    assert sp.idx0.tolist() == [0, 2]
    assert sp.idx1.tolist() == [1, 3]
    assert np.array_equal(sp.x0.values, feats.values[[0, 2]])
    assert np.array_equal(sp.w1.votes, weak.votes[[1, 3]])


def test_split_empty_group_raises():
    feats, _, weak = _dataset()
    with pytest.raises(EmptyGroup):
        split_by_group(feats, GroupAssignment([0, 0, 0, 0]), weak)


def test_split_index_maps_rebuild_the_input():
    # bit-exact inversion of the split through idx0/idx1, several random datasets
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        feats = FeatureMatrix(rng.standard_normal((n, 3)))
        g = rng.integers(0, 2, size=n)
        g[0], g[1] = 0, 1
        groups = GroupAssignment(g)
        weak = WeakLabelMatrix(rng.choice([-1, 1], size=(n, 4)))
        sp = split_by_group(feats, groups, weak)
        feats2 = np.empty_like(feats.values)
        votes2 = np.empty_like(weak.votes)
        feats2[sp.idx0], feats2[sp.idx1] = sp.x0.values, sp.x1.values
        votes2[sp.idx0], votes2[sp.idx1] = sp.w0.votes, sp.w1.votes
        assert np.array_equal(feats2, feats.values)
        assert np.array_equal(votes2, weak.votes)


def test_csv_round_trip(tmp_path):
    feats, _, weak = _dataset(n=6, seed=3)
    groups = GroupAssignment([0, 1, 1, 0, 1, 0])
    truth = LabelVector(np.random.default_rng(0).choice([-1, 1], size=6))
    fp, wp, lp = tmp_path / "f.csv", tmp_path / "w.csv", tmp_path / "l.csv"
    fp.write_text(feature_csv_text(feats, groups), encoding="utf-8")
    wp.write_text(weak_csv_text(weak), encoding="utf-8")
    lp.write_text(label_csv_text(truth), encoding="utf-8")
    feats2, groups2, ids = load_feature_csv(fp)
    assert ids == ("0", "1", "2", "3", "4", "5")
    weak2 = load_weak_csv(wp, ids)
    truth2 = load_label_csv(lp, ids)
    assert np.array_equal(feats2.values, feats.values)
    assert np.array_equal(groups2.group_of, groups.group_of)
    assert np.array_equal(weak2.votes, weak.votes)
    assert np.array_equal(truth2.labels, truth.labels)


def test_weak_csv_id_mismatch(tmp_path):
    _, _, weak = _dataset(n=4)
    wp = tmp_path / "w.csv"
    wp.write_text(weak_csv_text(weak), encoding="utf-8")
    with pytest.raises(DataError):
        load_weak_csv(wp, ("9", "8", "7", "6"))


_GOOD_CSV = {"f.csv": "id,group,f1,f2\n0,0,1.5,2\n1,1,-3,4e-2\n",
             "w.csv": "id,lf_1,lf_2,lf_3\n0,1,-1,1\n1,-1,-1,1\n",
             "l.csv": "id,y\n0,1\n1,-1\n"}


@pytest.mark.parametrize("name,old,new", [
    ("f.csv", "1,1,-3", "1,x,-3"),         # group not an integer
    ("f.csv", "0,0,1.5", "0,0,abc"),       # feature not a number
    ("f.csv", "1,1,-3,4e-2", "1,1,-3"),    # ragged row
    ("f.csv", "0,0,", "0,1.0,"),           # group written as a real
    ("w.csv", "0,1,-1", "0,1,-x"),         # vote not an integer
    ("w.csv", "1,-1,-1,1", "1,-1,-1,1,1"),  # ragged row
    ("l.csv", "1,-1", "1,no"),             # label not an integer
    ("l.csv", "0,1\n", "0\n"),             # ragged row
])
def test_malformed_csv_cell_is_a_data_error_naming_the_file(tmp_path, name, old, new):
    paths = {}
    for fname, text in _GOOD_CSV.items():
        paths[fname] = tmp_path / fname
        paths[fname].write_text(text.replace(old, new, 1) if fname == name else text,
                                encoding="utf-8")
    with pytest.raises(DataError, match=name):
        _, _, ids = load_feature_csv(paths["f.csv"])
        load_weak_csv(paths["w.csv"], ids)
        load_label_csv(paths["l.csv"], ids)
