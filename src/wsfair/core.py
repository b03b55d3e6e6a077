"""Shared data model: features, binary group assignments, weak label matrices.

All containers are immutable after construction (arrays are copied and marked
read-only), so they can be shared freely across workers. Votes and labels are
encoded in {-1, +1}; abstention is rejected at validation time.

Two error classes decide where a failure stops. A DataError means the input
cannot be used: the command ends with exit code 2. A NumericalError means a
computation on usable input failed: `run_sbm` contains it to the LFs of the
map it hit, a sweep to its cell, and anything else ends with exit code 3.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

RNG_VERSION = 1


# ---------------------------------------------------------------------------
# Errors: DataError has no subclasses; a sweep writes the NumericalError
# subclass names into its error rows.
# ---------------------------------------------------------------------------

class DataError(ValueError):
    """Malformed or inconsistent input: the command cannot use it (exit 2)."""


class NumericalError(RuntimeError):
    """A computation on usable input failed (contained, or exit 3)."""


class DegenerateMoments(NumericalError):
    pass


class SingularCovariance(NumericalError):
    pass


class NumericalUnderflow(NumericalError):
    """A value left the float64 range, by underflow or overflow."""


class NonFiniteLoss(NumericalError):
    pass


# ---------------------------------------------------------------------------
# Small numeric helpers shared across modules.
# ---------------------------------------------------------------------------

def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))  # exp(-|z|), and a NaN keeps its sign bit
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def rng_stream(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the stream `(seed, *stream)`.

    Every sampled quantity in this package draws from its own named stream so
    that adding streams (e.g. more labeling functions) never perturbs earlier
    ones. Philox is counter-based and splittable; RNG_VERSION is part of the
    key so a future change of scheme cannot silently alias old streams.
    """
    key = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=(RNG_VERSION,) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Core containers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMatrix:
    """n x d real feature matrix; rows are identified by position."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {vals.shape}")
        n, d = vals.shape
        if n < 1 or d < 1:
            raise DataError(f"need n >= 1 and d >= 1, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DataError("features contain NaN or infinity")
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def take(self, idx) -> "FeatureMatrix":
        return FeatureMatrix(self.values[np.asarray(idx)])


@dataclass(frozen=True)
class GroupAssignment:
    """Row index -> group id in {0, 1}."""

    group_of: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.group_of)
        if g.ndim != 1:
            raise DataError("group assignment must be 1-d")
        if not ((g == 0) | (g == 1)).all():
            raise DataError("group ids must be 0 or 1")
        object.__setattr__(self, "group_of", _frozen(g.astype(np.int8)))

    @property
    def n(self) -> int:
        return self.group_of.shape[0]

    def indices(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.group_of == group)


@dataclass(frozen=True)
class WeakLabelMatrix:
    """n x m matrix of labeling-function votes, entries in {-1, +1}."""

    votes: np.ndarray
    lf_names: tuple = None

    def __post_init__(self):
        v = np.asarray(self.votes)
        if v.ndim != 2:
            raise DataError(f"votes must be 2-d, got shape {v.shape}")
        if not ((v == 1) | (v == -1)).all():
            raise DataError("votes must be -1 or +1 (abstention is not modeled)")
        names = self.lf_names
        if names is None:
            names = tuple(f"lf_{j + 1}" for j in range(v.shape[1]))
        else:
            names = tuple(str(x) for x in names)
            if len(names) != v.shape[1]:
                raise DataError(f"{len(names)} names for {v.shape[1]} LFs")
        object.__setattr__(self, "votes", _frozen(v.astype(np.int8)))
        object.__setattr__(self, "lf_names", names)

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def take(self, idx) -> "WeakLabelMatrix":
        return WeakLabelMatrix(self.votes[np.asarray(idx)], self.lf_names)


@dataclass(frozen=True)
class LabelVector:
    """Hard labels in {-1, +1}."""

    labels: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.labels)
        if y.ndim != 1:
            raise DataError("labels must be 1-d")
        if not ((y == 1) | (y == -1)).all():
            raise DataError("labels must be -1 or +1")
        object.__setattr__(self, "labels", _frozen(y.astype(np.int8)))

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ScoreVector:
    """Per-row probability scores in [0, 1]."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 1:
            raise DataError("scores must be 1-d")
        if not np.all(np.isfinite(s)) or s.min(initial=0.0) < 0.0 or s.max(initial=0.0) > 1.0:
            raise DataError("scores must lie in [0, 1]")
        object.__setattr__(self, "scores", _frozen(s))

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def validate_dataset(features: FeatureMatrix, groups: GroupAssignment,
                     weak: WeakLabelMatrix) -> None:
    """Check that the three inputs agree; raise a DataError when they do not.

    Idempotent and side-effect free.
    """
    if not (features.n == groups.n == weak.n):
        raise DataError(
            f"row counts differ: features {features.n}, groups {groups.n}, weak {weak.n}")


@dataclass(frozen=True)
class GroupSplit:
    """Exact two-way partition of a dataset with index maps back to the input."""

    x0: FeatureMatrix
    w0: WeakLabelMatrix
    x1: FeatureMatrix
    w1: WeakLabelMatrix
    idx0: np.ndarray
    idx1: np.ndarray


def split_by_group(features: FeatureMatrix, groups: GroupAssignment,
                   weak: WeakLabelMatrix) -> GroupSplit:
    """Partition rows by group; idx0/idx1 give each part's rows in the input."""
    validate_dataset(features, groups, weak)
    idx0, idx1 = groups.indices(0), groups.indices(1)
    if idx0.size == 0 or idx1.size == 0:
        raise DataError("both groups must be non-empty to split")
    return GroupSplit(features.take(idx0), weak.take(idx0),
                      features.take(idx1), weak.take(idx1),
                      _frozen(idx0), _frozen(idx1))


# ---------------------------------------------------------------------------
# CSV interfaces. Formats:
#   features:   id,group,f1,...,fd       (group in {0,1}, 64-bit reals)
#   weak votes: id,lf_1,...,lf_m         (entries in {-1,1}, ids match features)
#   labels:     id,y                     (y in {-1,1}; evaluation only)
# Comma-separated, "." decimal, UTF-8, header row required, ids unique in each
# file; reals are written with 17 significant digits, locale independent.
# ---------------------------------------------------------------------------

def format_real(x: float) -> str:
    return format(float(x), ".17g")


def _read_csv(path, prefix: list, min_width: int, expected: str, fields):
    """(header, records): the body parsed in one pass of numpy's C reader.

    Each record holds the `id` cell as its exact text, then the cells typed
    by `fields(width)`. A row whose cell count differs from the header's, a
    cell that does not parse, or bytes that are not UTF-8 are a DataError
    naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:    # decodes the first chunk of the file, outside numpy's reader
            header = next(csv.reader([fh.readline()]), [])
            head = []  # lines up to the first non-blank one; the rest streams, never read whole
            for line in fh:
                head.append(line)
                if line.strip():
                    break
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None
        if header[:len(prefix)] != prefix or len(header) < min_width:
            raise DataError(f"{path}: expected header {expected}")
        if not (head and head[-1].strip()):
            raise DataError(f"{path}: no data rows")
        try:
            return header, np.loadtxt(itertools.chain(head, fh),
                                      [("id", object)] + fields(len(header)), delimiter=",",
                                      comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:      # also a UnicodeDecodeError further on
            if "columns but" in str(exc):  # numpy's wording for a row of the wrong width
                raise DataError(f"{path}: every row must have the header's "
                                f"{len(header)} cells") from None
            raise DataError(f"{path}: {exc}") from None


def _aligned(path, rec: np.ndarray, field: str, ids: tuple) -> np.ndarray:
    """`rec[field]` with its rows in the order of the feature CSV's `ids`: as it is
    when the file lists those (unique) ids in that order, else sorted to match."""
    if rec["id"].tolist() == list(ids):
        return rec[field]
    ours = np.argsort(rec["id"], kind="stable")
    ranked = rec["id"][ours]
    if (ranked[1:] == ranked[:-1]).any():
        raise DataError(f"{path}: row ids must be unique")
    ids = np.asarray(ids, dtype=object)
    theirs = np.argsort(ids, kind="stable")
    if len(ours) != len(theirs) or (ranked != ids[theirs]).any():
        raise DataError(f"{path}: ids do not match the feature CSV")
    out = np.empty_like(rec[field])
    out[theirs] = rec[field][ours]
    return out


def load_feature_csv(path) -> tuple[FeatureMatrix, GroupAssignment, tuple]:
    """(features, groups, ids); the ids serve only to align the other CSVs."""
    _, rec = _read_csv(path, ["id", "group"], 3, "id,group,f1,...",
                       lambda w: [("group", np.int8), ("x", np.float64, (w - 2,))])
    ids = tuple(rec["id"].tolist())
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: row ids must be unique")
    return FeatureMatrix(rec["x"]), GroupAssignment(rec["group"]), ids


def load_weak_csv(path, ids: tuple) -> WeakLabelMatrix:
    """Load a vote matrix and align its rows to `ids` from the feature CSV."""
    header, rec = _read_csv(path, ["id"], 2, "id,lf_1,...",
                            lambda w: [("v", np.int8, (w - 1,))])
    return WeakLabelMatrix(_aligned(path, rec, "v", ids), tuple(header[1:]))


def load_label_csv(path, ids: tuple) -> LabelVector:
    # cells after `y` are allowed and ignored
    _, rec = _read_csv(path, ["id", "y"], 2, "id,y",
                       lambda w: [("y", np.int8), ("rest", object, (w - 2,))])
    return LabelVector(_aligned(path, rec, "y", ids))


def _csv_text(header: list, lines) -> str:
    return "\n".join([",".join(header), *lines, ""])


def feature_csv_text(features: FeatureMatrix, groups: GroupAssignment) -> str:
    # "%.17g" is format_real's text for a Python float
    line = "%d,%d" + ",%.17g" * features.d
    return _csv_text(["id", "group"] + [f"f{j + 1}" for j in range(features.d)],
                     (line % (i, g, *row) for i, (g, row) in enumerate(zip(
                         groups.group_of.tolist(), features.values.tolist()))))


def weak_csv_text(weak: WeakLabelMatrix) -> str:
    line = "%d" + ",%d" * len(weak.lf_names)
    return _csv_text(["id", *weak.lf_names],
                     (line % (i, *row) for i, row in enumerate(weak.votes.tolist())))


def label_csv_text(labels: LabelVector) -> str:
    return _csv_text(["id", "y"], ("%d,%d" % iy for iy in enumerate(labels.labels.tolist())))
