import io
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsfair.core import (DataError, FeatureMatrix, GroupAssignment, LabelVector,
                         NumericalError, ScoreVector, WeakLabelMatrix,
                         feature_csv_text, label_csv_text, load_feature_csv,
                         load_label_csv, load_weak_csv, sigmoid, split_by_group,
                         validate_dataset, weak_csv_text)
from wsfair.synth import gen_lfcount_dataset


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


def test_error_classes_are_one_data_error_and_the_sweeps_four_numerical_ones():
    # a sweep writes the NumericalError subclass names into its error rows
    assert DataError.__subclasses__() == []
    four = NumericalError.__subclasses__()
    assert sorted(c.__name__ for c in four) == [
        "DegenerateMoments", "NonFiniteLoss", "NumericalUnderflow", "SingularCovariance"]
    assert all(c.__subclasses__() == [] for c in four)


def test_zero_vote_rejected():
    with pytest.raises(DataError, match=r"votes must be -1 or \+1"):
        WeakLabelMatrix([[1, 0, -1]])
    # 127 * 127 wraps to 1 in int8, so a check by v * v == 1 would pass it
    for bad in (127, -127):
        with pytest.raises(DataError, match=r"votes must be -1 or \+1"):
            WeakLabelMatrix(np.array([[1, bad]], dtype=np.int8))


def test_empty_group_passes_validation_but_fails_the_split():
    feats, _, weak = _dataset()
    groups = GroupAssignment([0, 0, 0, 0])
    validate_dataset(feats, groups, weak)
    with pytest.raises(DataError, match="both groups must be non-empty to split"):
        split_by_group(feats, groups, weak)


def test_row_count_mismatch():
    feats, groups, _ = _dataset(n=4)
    weak = WeakLabelMatrix(np.ones((5, 3), dtype=int))
    with pytest.raises(DataError, match="row counts differ"):
        validate_dataset(feats, groups, weak)


def test_non_finite_features_rejected():
    with pytest.raises(DataError, match="features contain NaN or infinity"):
        FeatureMatrix([[1.0, np.nan]])
    with pytest.raises(DataError, match="features contain NaN or infinity"):
        FeatureMatrix([[np.inf, 0.0]])


def test_score_vector_range():
    ScoreVector([0.0, 0.5, 1.0])
    with pytest.raises(Exception):
        ScoreVector([1.2])


def test_label_vector_entries():
    LabelVector([1, -1, 1])
    with pytest.raises(DataError, match=r"labels must be -1 or \+1"):
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
    with pytest.raises(DataError, match="both groups must be non-empty to split"):
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
    ("w.csv", "0,1,-1", "0,300,-1"),       # vote beyond the int8 range
    ("w.csv", "1,-1,-1,1", "1,-1,-1,1,1"),  # ragged row
    ("l.csv", "1,-1", "1,no"),             # label not an integer
    ("l.csv", "1,-1", "1,-300"),           # label beyond the int8 range
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


def _load_all(tmp_path, texts):
    paths = {}
    for fname, text in texts.items():
        paths[fname] = tmp_path / fname
        paths[fname].write_bytes(text.encode("utf-8"))
    feats, groups, ids = load_feature_csv(paths["f.csv"])
    weak = load_weak_csv(paths["w.csv"], ids)
    return feats, groups, ids, weak, load_label_csv(paths["l.csv"], ids)


def _assert_same_load(a, b):
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].group_of, b[1].group_of)
    assert a[2] == b[2]
    assert np.array_equal(a[3].votes, b[3].votes) and a[3].lf_names == b[3].lf_names
    assert np.array_equal(a[4].labels, b[4].labels)


@pytest.mark.parametrize("name,extra", [("w.csv", "1,1,1,1\n"), ("l.csv", "1,1\n")])
def test_duplicate_vote_or_label_id_is_a_data_error(tmp_path, name, extra):
    texts = dict(_GOOD_CSV, **{name: _GOOD_CSV[name] + extra})    # ids 0, 1, 1
    with pytest.raises(DataError, match=f"{name}: row ids must be unique"):
        _load_all(tmp_path, texts)


@pytest.mark.parametrize("name", ["w.csv", "l.csv"])
def test_same_length_repeated_vote_or_label_id_is_a_data_error(tmp_path, name):
    texts = dict(_GOOD_CSV, **{name: _GOOD_CSV[name].replace("\n1,", "\n0,")})  # 0, 0
    with pytest.raises(DataError, match=f"{name}: row ids must be unique"):
        _load_all(tmp_path, texts)


def test_weak_csv_load_peak_is_a_small_multiple_of_the_file(tmp_path):
    # the widest vote file a run loads: lfcount at m = 24. The body streams
    # through the parser and the votes parse to int8, so neither the text nor
    # an int64 matrix is ever held whole
    _, _, _, weak, _ = gen_lfcount_dataset(20_000, 24, 0)
    wp = tmp_path / "w.csv"
    wp.write_text(weak_csv_text(weak), encoding="utf-8")
    ids = tuple(str(i) for i in range(weak.n))
    tracemalloc.start()
    try:
        loaded = load_weak_csv(wp, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.votes, weak.votes)
    size = wp.stat().st_size
    assert peak < 8 * size, f"peak {peak / size:.2f} x the file's bytes"


@pytest.mark.parametrize("position", [3, 100, -50])   # header, first rows, last row
def test_non_utf8_byte_is_a_data_error_naming_the_file(tmp_path, position):
    # the file object decodes its first 8 KiB chunk before numpy's reader
    # starts; the last row lies past that chunk
    _, _, _, weak, _ = gen_lfcount_dataset(2_000, 12, 0)
    text = bytearray(weak_csv_text(weak).encode("utf-8"))
    assert len(text) > 2 * 8192
    text[position] = 0xFF
    wp = tmp_path / "w.csv"
    wp.write_bytes(bytes(text))
    with pytest.raises(DataError, match="w.csv: 'utf-8' codec can't decode byte 0xff"):
        load_weak_csv(wp, tuple(str(i) for i in range(weak.n)))


def test_crlf_and_trailing_blank_line_load_like_lf(tmp_path):
    edits = {"lf": lambda t: t, "crlf": lambda t: t.replace("\n", "\r\n"),
             "blank": lambda t: t + "\n"}
    loads = {}
    for name, edit in edits.items():
        (tmp_path / name).mkdir()
        loads[name] = _load_all(tmp_path / name, {k: edit(v) for k, v in _GOOD_CSV.items()})
    _assert_same_load(loads["crlf"], loads["lf"])
    _assert_same_load(loads["blank"], loads["lf"])
    assert loads["crlf"][3].lf_names == ("lf_1", "lf_2", "lf_3")


def test_shuffled_vote_and_label_rows_align_to_feature_order(tmp_path):
    feats, groups, weak = _dataset(n=6, seed=5)
    truth = LabelVector([1, -1, -1, 1, 1, -1])
    order = [4, 0, 5, 2, 1, 3]
    w_lines = weak_csv_text(weak).split("\n")
    l_lines = label_csv_text(truth).split("\n")
    texts = {"f.csv": feature_csv_text(feats, groups),
             "w.csv": "\n".join([w_lines[0]] + [w_lines[1 + i] for i in order]) + "\n",
             "l.csv": "\n".join([l_lines[0]] + [l_lines[1 + i] for i in order]) + "\n"}
    _, _, _, weak2, truth2 = _load_all(tmp_path, texts)
    assert np.array_equal(weak2.votes, weak.votes)
    assert np.array_equal(truth2.labels, truth.labels)


def test_header_only_feature_csv_is_a_data_error_without_warnings(tmp_path):
    fp = tmp_path / "f.csv"
    fp.write_text("id,group,f1\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError):
            load_feature_csv(fp)


def test_rows_all_one_cell_too_long_are_a_data_error(tmp_path):
    texts = dict(_GOOD_CSV, **{"w.csv": "id,lf_1,lf_2\n0,1,-1,1\n1,-1,-1,1\n"})
    with pytest.raises(DataError, match="w.csv: every row must have the header's 3 cells"):
        _load_all(tmp_path, texts)


def test_quoted_cells_parse_as_csv(tmp_path):
    texts = {"f.csv": 'id,group,f1\n"a,b",0,"1.5"\n"c""d",1,2\n',
             "w.csv": 'id,lf_1,lf_2,lf_3\n"c""d",1,1,1\n"a,b",-1,-1,1\n',
             "l.csv": 'id,y\n"a,b",1\n"c""d",-1\n'}
    feats, _, ids, weak, truth = _load_all(tmp_path, texts)
    assert ids == ("a,b", 'c"d')
    assert feats.values.tolist() == [[1.5], [2.0]]
    assert weak.votes.tolist() == [[-1, -1, 1], [1, 1, 1]]
    assert truth.labels.tolist() == [1, -1]


def _reference_csv_texts(feats, groups, weak, labels):
    """The writers' text, formatted one cell at a time."""
    f = io.StringIO()
    f.write(",".join(["id", "group"] + [f"f{j + 1}" for j in range(feats.d)]) + "\n")
    for i in range(feats.n):
        row = [str(i), str(int(groups.group_of[i]))]
        f.write(",".join(row + [format(float(x), ".17g") for x in feats.values[i]]) + "\n")
    w = io.StringIO()
    w.write(",".join(("id",) + weak.lf_names) + "\n")
    for i in range(weak.n):
        w.write(",".join((str(i),) + tuple(str(int(v)) for v in weak.votes[i])) + "\n")
    lab = "id,y\n" + "".join(f"{i},{int(labels.labels[i])}\n" for i in range(labels.n))
    return f.getvalue(), w.getvalue(), lab


_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 3.0, -2.0, 1e16, 2.0 ** 53]))


@st.composite
def _csv_datasets(draw):
    n, d, m = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    x = draw(st.lists(_REALS, min_size=n * d, max_size=n * d))
    sign = st.sampled_from([-1, 1])
    return (FeatureMatrix(np.reshape(x, (n, d))),
            GroupAssignment(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))),
            WeakLabelMatrix(np.reshape(draw(st.lists(sign, min_size=n * m, max_size=n * m)),
                                       (n, m))),
            LabelVector(draw(st.lists(sign, min_size=n, max_size=n))))


@settings(deadline=None, max_examples=60)
@given(_csv_datasets())
def test_writers_match_per_cell_formatting_and_round_trip_bits(data):
    feats, groups, weak, labels = data
    texts = (feature_csv_text(feats, groups), weak_csv_text(weak), label_csv_text(labels))
    assert texts == _reference_csv_texts(feats, groups, weak, labels)
    with tempfile.TemporaryDirectory() as tmp:
        back = _load_all(Path(tmp), dict(zip(("f.csv", "w.csv", "l.csv"), texts)))
    assert back[0].values.view(np.int64).tolist() == feats.values.view(np.int64).tolist()
    assert np.array_equal(back[1].group_of, groups.group_of)
    assert np.array_equal(back[3].votes, weak.votes)
    assert np.array_equal(back[4].labels, labels.labels)


def _two_branch_sigmoid(z):
    """The logistic function as two branches on the sign of z, one exp each."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_LOGITS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-800.0, 800.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8]))


@settings(deadline=None, max_examples=200)
@given(st.lists(_LOGITS, max_size=40))
def test_sigmoid_equals_the_two_branch_form_bit_for_bit(z):
    z = np.array(z, dtype=np.float64)
    assert sigmoid(z).view(np.uint64).tolist() == _two_branch_sigmoid(z).view(np.uint64).tolist()
