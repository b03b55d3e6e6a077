"""Shared oracle helpers for the test suite.

The oracles are deliberately independent of the library code paths they
check: plain rejection-free samplers and closed-form formulas only. The
references that do call the library say so.
"""

import contextlib
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from wsfair.core import (DegenerateMoments, format_real, load_feature_csv, load_weak_csv,
                         split_by_group)
from wsfair.endmodel import _loss_grad_p
from wsfair.labelmodel import DELTA, DENOM_FLOOR, triplet_estimate


def sample_ci_votes(accuracies, n, seed, class_prior=0.5):
    """Conditionally independent +-1 votes with known correlation accuracies.

    Draws y ~ +-1 with P(+1) = class_prior, then each vote equals y with
    probability (1 + a_j) / 2 independently. Returns (votes, y).
    """
    rng = np.random.default_rng(seed)
    a = np.asarray(accuracies, dtype=float)
    y = np.where(rng.random(n) < class_prior, 1, -1).astype(np.int8)
    agree = rng.random((n, a.size)) < (1.0 + a) / 2.0
    votes = np.where(agree, y[:, None], -y[:, None]).astype(np.int8)
    return votes, y


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


def loss_and_grad(w, b, x, targets, l2):
    """The end model's (loss, grad_w, grad_b) without its probabilities: the
    gradient checks difference this loss and compare the result with its
    gradient."""
    loss, grad, _ = _loss_grad_p(np.append(w, b), x, targets, l2)
    return loss, grad[:-1], grad[-1]


def brute_force_nn(src, dst, k):
    """(n_src, k) nearest destination rows by a full scan, ordered by
    (squared distance, index), on both clouds centered on the destination
    mean. Exact ties therefore go to the lowest destination index."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    mean = dst.mean(axis=0)
    src, dst = src - mean, dst - mean
    d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=-1)
    cols = np.broadcast_to(np.arange(dst.shape[0]), d2.shape)
    return np.lexsort((cols, d2), axis=1)[:, :k]


def sinkhorn_plan(tmap, x_src):
    """Dense row-rescaled plan of a fitted Sinkhorn map over the rows of x_src.

    Row i is the softmax over j of gn_j - |x_i - y_j|^2 / eta, with the cost
    taken from coordinate differences. Each row sums to 1; dividing by the
    number of source rows gives the entropic coupling pi.
    """
    x = np.asarray(getattr(x_src, "values", x_src), dtype=float)
    ref = tmap.dst_reference
    cost = ((x[:, None, :] - ref[None, :, :]) ** 2).sum(axis=-1)
    logits = tmap.gn - cost / tmap.eta
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def plain_sinkhorn(cost_over_eta, tol, max_iters=10_000, absorb=100.0):
    """(gn, converged, sweeps) of plain absorption-stabilised Sinkhorn scaling,
    u = a / K v then v = b / K^T u, stopped on the row-marginal error."""
    c = np.asarray(cost_over_eta, dtype=float)
    a, b = 1.0 / c.shape[0], 1.0 / c.shape[1]
    fn = c.min(axis=1)
    gn = (c - fn[:, None]).min(axis=0)
    k, v, err = np.exp(fn[:, None] + gn - c), np.ones(c.shape[1]), np.inf
    for sweep in range(1, max_iters + 1):
        u = a / (k @ v)
        v = b / (k.T @ u)
        err = np.abs(u * (k @ v) - a).sum()
        if err < tol:
            break
        if max(u.max(), v.max(), 1.0 / u.min(), 1.0 / v.min()) > math.exp(absorb):
            fn, gn = fn + np.log(u), gn + np.log(v)
            k, v = np.exp(fn[:, None] + gn - c), np.ones(c.shape[1])
    return gn + np.log(v), bool(err < tol), sweep


def loop_triplet_magnitudes(moments, strict=True):
    """(magnitudes, moment_flags, degenerate_flags) one LF at a time: the mean
    over LF i's usable partner pairs (j, k), j < k, of
    sqrt(|M_ij| |M_ik| / |M_jk|), with the pairs in triu order."""
    moments = np.asarray(moments, dtype=float)
    m = moments.shape[0]
    absm, sgn = np.abs(moments), np.sign(moments)
    mags = np.zeros(m)
    neg_flags = np.zeros(m, dtype=bool)
    degenerate = np.zeros(m, dtype=bool)
    for i in range(m):
        others = np.concatenate([np.arange(i), np.arange(i + 1, m)])
        jj, kk = np.triu_indices(others.size, k=1)
        j, k = others[jj], others[kk]
        usable = absm[j, k] >= DENOM_FLOOR
        if not usable.any():
            if strict:
                raise DegenerateMoments(
                    f"all triples for LF {i} have |E[l_j l_k]| below {DENOM_FLOOR}")
            degenerate[i] = True
            mags[i] = DELTA
            continue
        j, k = j[usable], k[usable]
        mags[i] = np.mean(np.sqrt(absm[i, j] * absm[i, k] / absm[j, k]))
        neg_flags[i] = bool((sgn[i, j] * sgn[i, k] * sgn[j, k] < 0).any())
    return mags, neg_flags, degenerate


# The label model's passes over the votes as they were before they read the
# int8 matrix: each on a whole float64 (or int64) copy. The library's integer
# and blocked passes must produce these bits.

def float_pairwise_moments(votes):
    v = votes.astype(np.float64)
    return (v.T @ v) / len(v)


def int64_majority_vote(votes):
    s = votes.astype(np.int64).sum(axis=1)
    return np.where(s >= 0, 1, -1)


def float_majority_agreement(votes):
    mv = int64_majority_vote(votes).astype(np.float64)
    return (votes.astype(np.float64) * mv[:, None]).mean(axis=0)


def column_order_logits(votes, weights, prior):
    """prior + the sum of w_j * v_ij over the LFs, first column to last."""
    s = np.zeros(len(votes))
    for j in range(votes.shape[1]):
        s = s + weights[j] * votes[:, j].astype(np.float64)
    return prior + s


# The CSV writers as they were before block formatting: one `%` call per line.
# The library's writers must produce these bytes.

def _line_csv_text(header: list, lines) -> str:
    return "\n".join([",".join(header), *lines, ""])


def line_feature_csv_text(features, groups) -> str:
    # "%.17g" is format_real's text for a Python float
    line = "%d,%d" + ",%.17g" * features.d
    return _line_csv_text(["id", "group"] + [f"f{j + 1}" for j in range(features.d)],
                          (line % (i, g, *row) for i, (g, row) in enumerate(zip(
                              groups.group_of.tolist(), features.values.tolist()))))


def line_weak_csv_text(weak) -> str:
    line = "%d" + ",%d" * len(weak.lf_names)
    return _line_csv_text(["id", *weak.lf_names],
                          (line % (i, *row) for i, row in enumerate(weak.votes.tolist())))


def line_label_csv_text(labels) -> str:
    return _line_csv_text(["id", "y"],
                          ("%d,%d" % iy for iy in enumerate(labels.labels.tolist())))


# The `wsfair estimate` command as it was before `report.json` carried its
# numbers: strict triplet estimates over all rows and in each group, as CSV.
# `report.json`'s `label_model_fit` must hold every value it printed.

def accuracies_to_csv(estimates: dict, lf_names: tuple) -> str:
    """CSV export `lf,group,a_hat,clamped`; group keys are "all", "0", "1"."""
    lines = ["lf,group,a_hat,clamped"]
    for group, est in estimates.items():
        for j, name in enumerate(lf_names):
            lines.append(f"{name},{group},{format_real(est.per_lf[j])},"
                         f"{int(bool(est.clamp_flags[j]))}")
    return "\n".join(lines) + "\n"


def estimate_csv(features_path, weak_path) -> str:
    feats, groups, ids = load_feature_csv(features_path)
    weak = load_weak_csv(weak_path, ids)
    ests = {"all": triplet_estimate(weak)}
    if groups.indices(0).size and groups.indices(1).size:
        sp = split_by_group(feats, groups, weak)
        ests["0"], ests["1"] = triplet_estimate(sp.w0), triplet_estimate(sp.w1)
    return accuracies_to_csv(ests, weak.lf_names)


# Named pipes stand in for `<(cat file)` inputs: a pipe is read once, in order.

needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


def _feed(path, data: bytes, done: threading.Event) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader stopped early, as on a data error
        pass
    while not done.wait(0.02):  # a later reader gets end-of-file, as from a spent pipe
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader is waiting
            pass


@contextlib.contextmanager
def fifos(directory, texts: dict):
    """Yield {name: path} of named pipes in `directory`, each fed `texts[name]`
    (bytes) once by its own thread. On exit a pipe that no reader opened, or
    that its reader left unfinished, is opened and closed until its writer ends."""
    done, feeds = threading.Event(), {}
    for name, data in texts.items():
        path = Path(directory) / name
        os.mkfifo(path)
        feeds[path] = threading.Thread(target=_feed, args=(path, data, done), daemon=True)
        feeds[path].start()
    try:
        yield {path.name: path for path in feeds}
    finally:
        done.set()
        for path, thread in feeds.items():
            while thread.is_alive():
                fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
                thread.join(0.05)
                os.close(fd)
