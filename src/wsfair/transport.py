"""Maps that push one group's feature distribution onto the other's.

`fit_map` fits one of the OT_KINDS, and `apply_map` applies the result:

* none: the identity; rows keep their own coordinates.
* linear: the closed-form affine map between the two groups' Gaussian moments,
  A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2},  b = mu_t - A mu_s,
  which pushes N(mu_s, S_s) exactly onto N(mu_t, S_t).
* sinkhorn: entropically regularized transport between the two empirical
  clouds (uniform marginals), stored as the destination log-potential
  gn = g / eta. A row x maps to its barycentric image
  sum_j softmax_j(gn - |x - y_j|^2 / eta) y_j, which is the row-rescaled plan
  applied to the destination points and is defined for any row, fitted or not.

After mapping, labels are borrowed from Euclidean nearest neighbors in the
destination cloud, found exactly and ranked by (squared distance, index), by a
blocked scan of the destination rows that k-d tree leaf boxes cannot rule out.
At k = 1 the scan settles a row from its largest entry and runner-up, and only
near-ties are ranked. A tree query would prune more finely at a few dimensions
but falls behind the scan above about ten, where real feature vectors live.
The Sinkhorn fit is one Anderson-accelerated, absorption-stabilised scaling
loop, valid at any distance between the clouds. Its one dense fit-size array
is the kernel, which is why fits above a point cap are subsampled. Every
pairwise block is one matmul of a row block with the factors of
_block_factors, less its row terms where they do not cancel, on clouds
centered on the destination mean, so results do not depend on where the data
sits in feature space. The fit walks the kernel in cache-sized row blocks, two
passes to build it and one per scaling sweep; the apply and the scan stream
blocks of at most the same size through one buffer per worker, so no n_src x
n_dst array is ever held. Every pass but the sweeps, which are bound by memory
bandwidth, splits its blocks (the scan, its source groups) into one contiguous
run per usable core. Each block is computed as in a serial pass, so no result
depends on the core count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (DataError, FeatureMatrix, NumericalUnderflow, SingularCovariance,
                   rng_stream)

OT_KINDS = ("none", "linear", "sinkhorn")
COV_RIDGE = 1e-6
EIG_FLOOR = 1e-12
MAX_CONDITION = 1e12
SINKHORN_TOL = 1e-10          # internal; stricter than the 1e-9 contract
SINKHORN_MAX_ITERS = 10_000
SINKHORN_MAX_POINTS = 5_000   # per-side fit cap; the fit cost is quadratic in memory
SINKHORN_BLOCK_CELLS = 160_000  # kernel cells per row block of a Sinkhorn fit or apply
SINKHORN_ABSORB = 100.0       # |log scaling| that is folded into the potentials
ANDERSON_DEPTH = 6            # residual differences mixed into each Sinkhorn step

_SUBSAMPLE_STREAM = 90
_LEAF_ROWS, _GROUP_ROWS = 32, 256   # destination leaf and source group of the scan


@dataclass(frozen=True)
class TransportMap:
    """A fitted source-to-destination map of one of OT_KINDS.

    kind "linear" carries (A, b); kind "sinkhorn" carries the destination
    reference points (a subsample when the fit was capped), the destination
    log-potential `gn` with one entry per reference point, and `eta`.
    `converged` is False when Sinkhorn hit the iteration cap and returned its
    last iterate.
    """

    kind: str
    A: np.ndarray = None
    b: np.ndarray = None
    dst_reference: np.ndarray = None
    gn: np.ndarray = None
    eta: float = None
    converged: bool = True


# ---------------------------------------------------------------------------
# Gaussian moments and the closed-form affine map.
# ---------------------------------------------------------------------------

def _sym_product(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q diag(d) q^T, symmetrized."""
    root = q @ (d[:, None] * q.T)
    return (root + root.T) / 2.0


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues are floored at EIG_FLOOR first."""
    w, q = np.linalg.eigh(mat)
    return _sym_product(q, np.sqrt(np.maximum(w, EIG_FLOOR)))


def _moments(x: FeatureMatrix):
    """(mean, cov): sample mean and covariance (denominator n), ridge-stabilized."""
    if x.n < 2:
        raise SingularCovariance("moment estimation needs at least 2 rows")
    mean = x.values.mean(axis=0)
    centered = x.values - mean
    with np.errstate(over="ignore", invalid="ignore"):    # checked just below
        cov = (centered.T @ centered) / x.n + COV_RIDGE * np.eye(x.d)
    if not np.isfinite(cov).all():
        raise SingularCovariance("covariance is not finite")
    return mean, (cov + cov.T) / 2.0


def _linear_map(src, dst) -> TransportMap:
    """Closed-form affine Monge map between two (mean, symmetric cov) pairs."""
    (mean_src, cov_src), (mean_dst, cov_dst) = src, dst
    w_src, q_src = np.linalg.eigh(cov_src)
    for name, w in (("source", w_src), ("destination", np.linalg.eigvalsh(cov_dst))):
        if w.min() <= 0.0 or w.max() / w.min() > MAX_CONDITION:
            raise SingularCovariance(f"{name} covariance condition number exceeds {MAX_CONDITION:g}")
    root = np.sqrt(np.maximum(w_src, EIG_FLOOR))
    s_half = _sym_product(q_src, root)
    s_inv_half = _sym_product(q_src, 1.0 / root)
    with np.errstate(over="ignore", invalid="ignore"):    # checked just below
        mid = _sqrt_psd(s_half @ cov_dst @ s_half)
        a = s_inv_half @ mid @ s_inv_half
        a = (a + a.T) / 2.0
        b = mean_dst - a @ mean_src
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SingularCovariance("linear map coefficients are not finite")
    return TransportMap(kind="linear", A=a, b=b)


# ---------------------------------------------------------------------------
# Entropic OT.
# ---------------------------------------------------------------------------

def _block_factors(x: np.ndarray, y: np.ndarray, eta: float, col=0.0):
    """(lhs, rhs, xx), where lhs[i] @ rhs[:, j] - xx_i = col_j - |x_i - y_j|^2/eta.

    With mu the mean of y, lhs = [2(x - mu)/eta, 1], rhs = [(y - mu)^T;
    col - |y - mu|^2/eta] and xx = |x - mu|^2/eta; centering keeps them precise
    far from the origin. Row terms are subtracted after the matmul: a third
    column would take d = 2 blocks past OpenBLAS's threading threshold, and its
    threads contend with ours.
    """
    with np.errstate(all="ignore"):    # overflow leaves entries the caller tests
        mean = y.mean(axis=0)
        x, y = x - mean, y - mean
        lhs = np.column_stack([x * (2.0 / eta), np.ones(len(x))])
        rhs = np.vstack([y.T, col - np.einsum("ij,ij->i", y, y) / eta])
        return lhs, rhs, np.einsum("ij,ij->i", x, x) / eta


def _block_rows(n_cols: int) -> int:
    """Rows of one SINKHORN_BLOCK_CELLS-cell block of an n_cols-wide array."""
    return max(1, SINKHORN_BLOCK_CELLS // n_cols)


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:             # no affinity call on this platform
        return os.cpu_count() or 1


def _quiet(fn, run, *args):
    with np.errstate(all="ignore"):    # errstate is per thread
        return fn(run, *args)


def _per_core(fn, items, *args) -> list:
    """[fn(run, *args) for each run]: `items` cut into one contiguous run per
    usable core, the runs side by side in a thread pool made for this call.
    Each run ignores floating-point errors itself, since a caller's errstate
    does not reach other threads."""
    n = min(_cores(), len(items))
    if n <= 1:
        return [_quiet(fn, items, *args)]
    cuts = [len(items) * i // n for i in range(n + 1)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        runs = [pool.submit(_quiet, fn, items[lo:hi], *args)
                for lo, hi in zip(cuts, cuts[1:])]
        return [run.result() for run in runs]


def _sinkhorn_potentials(src: np.ndarray, dst: np.ndarray, eta: float):
    """Return (gn, converged, sweeps): gn is the destination log-potential g / eta.

    The kernel K = exp(fn_i + gn_j - C_ij), C = cost/eta, is the one n_src x
    n_dst array; fn starts at the row minima of C and gn at their c-transform,
    so every kernel row and column holds a 1. A pass over K works on one
    cache-sized row block at a time, forming -C as a block product less its row
    terms (_block_factors): the first pass writes fn - C and takes column
    maxima, which set gn; the kernel pass adds fn to -C, which gives fn - C bit
    for bit, then gn. As C is formed in full, an entry past the float64 range
    fails the first pass, and a row whose |x - mu|^2 swamps its cross terms is
    flat. The iterate is the destination log-scaling x, and each sweep is one
    pass, u_b = a / (K_b e^x) then K^T u += u_b K_b, which evaluates the
    fixed-point map G(x) = log b - log K^T (a / K e^x) and the column-marginal
    L1 error of the plan whose rows are exact softmaxes over gn + x - C, which
    is the map returned. Steps are Anderson-mixed (Walker & Ni 2011) on
    mean-free residuals, as potentials are defined up to a constant; a mixed
    step that does not lower the error is replaced by the plain one. |x| beyond
    SINKHORN_ABSORB is folded into fn and gn and the kernel pass rerun
    (Schmitzer 2019), so none underflows however far apart the clouds sit.
    """
    n_src, n_dst = len(src), len(dst)
    a, b = 1.0 / n_src, 1.0 / n_dst    # uniform marginals
    step, k, u = _block_rows(n_dst), np.empty((n_src, n_dst)), np.empty(n_src)
    # (rows, kernel block, u block): made once, so the sweep loop allocates
    # nothing, which also keeps it fast under tracemalloc
    blocks = [(s, k[s], u[s]) for s in (slice(lo, lo + step) for lo in range(0, n_src, step))]
    (lhs, rhs, xx), fn = _block_factors(src, dst, eta), np.empty(n_src)

    def first_pass(run):               # fn - C into K; the run's column maximum
        top, row = np.full(n_dst, -np.inf), np.empty(n_dst)
        for s, kb, _ in run:
            np.subtract(np.matmul(lhs[s], rhs, out=kb), xx[s, None], out=kb)   # -C
            fb = np.max(kb, axis=1, out=fn[s])
            np.subtract(kb, fb[:, None], out=kb)
            if not np.isfinite(kb.min()):      # C overflowed
                raise NumericalUnderflow("cost matrix is not finite")
            np.negative(fb, out=fb)
            np.maximum(top, np.max(kb, axis=0, out=row), out=top)
        return top

    def kernel_pass(run):              # K = exp(fn - C + gn)
        for s, kb, _ in run:
            np.subtract(np.matmul(lhs[s], rhs, out=kb), xx[s, None], out=kb)
            np.add(kb, fn[s, None], out=kb)
            np.exp(np.add(kb, gn, out=kb), out=kb)

    # a maximum is exact, so the per-run column maxima combine bit for bit
    gn = -np.maximum.reduce(_per_core(first_pass, blocks))
    _per_core(kernel_pass, blocks)
    with np.errstate(all="ignore"):
        row, ktu = np.empty(n_dst), np.empty(n_dst)
        x = x_acc = np.zeros(n_dst)
        err, sweeps, hist, plain = np.inf, 0, [], None   # hist: (x, G(x)) accepted
        while sweeps < SINKHORN_MAX_ITERS:
            sweeps += 1
            ev = np.exp(x)
            ktu.fill(0.0)
            for _, kb, ub in blocks:
                np.divide(a, np.matmul(kb, ev, out=ub), out=ub)
                ktu += np.matmul(ub, kb, out=row)
            trial = np.abs(ev * ktu - b).sum()
            if plain is not None and not trial < err:
                x, plain, hist = plain, None, []
                continue
            err, x_acc = trial, x
            if err < SINKHORN_TOL:
                break
            g = np.log(b / ktu)
            if not np.isfinite(g).all():
                raise NumericalUnderflow("sinkhorn potentials are not finite")
            if np.abs(x).max() > SINKHORN_ABSORB:
                fn, gn, g, x_acc, hist = fn + np.log(u), gn + x, g - x, np.zeros(n_dst), []
                _per_core(kernel_pass, blocks)
            hist = hist[-ANDERSON_DEPTH:] + [(x_acc, g)]
            x, plain = g, None
            if len(hist) > 1:
                xs, gs = (np.array(h) for h in zip(*hist))
                dr, r = np.diff(gs - xs, axis=0), g - x_acc
                dr -= dr.mean(axis=1, keepdims=True)
                gamma = np.linalg.lstsq(dr.T, r - r.mean(), rcond=None)[0]
                x, plain = g - gamma @ np.diff(gs, axis=0), g
    return gn + x_acc, bool(err < SINKHORN_TOL), sweeps


# ---------------------------------------------------------------------------
# Nearest-neighbor label borrowing.
# ---------------------------------------------------------------------------

def _as_values(x) -> np.ndarray:
    return x.values if isinstance(x, FeatureMatrix) else np.asarray(x, dtype=np.float64)


def _cells(x: np.ndarray, size: int):
    """(order, starts): cell c of x's rows is order[starts[c]:starts[c + 1]].

    ceil(n / size) cells, made by cutting each node across its widest
    coordinate into two parts whose row counts are in proportion to the cells
    each will hold. Each level sorts the rows of all nodes at once, by node
    and then by rank along the node's cutting coordinate.
    """
    n = len(x)
    rank = np.argsort(np.argsort(x.T), axis=1).ravel()   # [a * n + i]: row i's rank in column a
    order, starts, cells = np.arange(n), np.array([0, n]), np.array([-(-n // size)])
    while (cells > 1).any():
        v, sizes = np.take(x, order, axis=0), np.diff(starts)
        spread = np.maximum.reduceat(v, starts[:-1]) - np.minimum.reduceat(v, starts[:-1])
        node = np.repeat(np.arange(len(sizes)), sizes)
        order = order[np.argsort(node * n + rank[spread.argmax(axis=1)[node] * n + order])]
        left = cells // 2
        cuts = np.column_stack([starts[:-1], starts[:-1] + sizes * left // cells]).ravel()
        halves = np.column_stack([left, cells - left]).ravel()
        starts, cells = np.append(cuts[halves > 0], n), halves[halves > 0]
    return order, starts


def _kth_largest(e: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest entry; for k = 1 the row maximum, found ~15x faster."""
    return e.max(axis=1) if k == 1 else np.partition(e, e.shape[1] - k, axis=1)[:, e.shape[1] - k]


def nn_indices(x_src, x_dst, k: int = 1) -> np.ndarray:
    """(n_src, k) destination indices ordered by (distance, index).

    Exact search on both clouds centered on the destination mean, by a scan of
    the destination rows that leaf boxes cannot rule out, on every core.
    Squared distances are recomputed from coordinate differences, and exact
    ties are broken toward the lowest destination row index.

    Sources are cut into groups of about _GROUP_ROWS rows and the destination
    into leaves of about _LEAF_ROWS (_cells), each with its bounding box, as in
    a k-d tree (Friedman, Bentley & Finkel 1977). A group's bound U is the
    largest k-th smallest squared distance from its rows to the rows of its
    home leaf, the leaf of least max box distance, and then, if that bound
    rules out a leaf, to the rows of every leaf no farther by min box distance
    (from fewer than k rows: the least max box distance within which k rows
    lie). A leaf is kept when its min box distance is at most U (1 + 1e-6) +
    4 margin, which keeps every row within a source row's k-th distance plus
    the margin below, so the result is that of a scan of every row.

    A group's kept rows are scanned in blocks of at most SINKHORN_BLOCK_CELLS
    cells, each one block product at eta 1, 2 q.r - |r|^2 = |q|^2 - |q - r|^2,
    so the nearest rows hold the largest entries. Every column within 1e-9
    (|q| + max|r|)^2 of the row's k-th largest, a margin far above the
    expanded form's rounding, is a candidate, and the candidates are ranked
    by (squared distance from coordinate differences, index). At k = 1 a row
    whose runner-up (its largest entry once the argmax is set to -inf) lies
    more than the margin below its largest has one candidate, the argmax;
    only the other rows, exact or near ties, go through that ranking.
    """
    src, dst = _as_values(x_src), _as_values(x_dst)
    if dst.shape[0] == 0:
        raise DataError("destination set is empty")
    if src.shape[1] != dst.shape[1]:
        raise DataError("source and destination dimensions differ")
    if k < 1 or k > dst.shape[0]:
        raise DataError(f"k must lie in [1, {dst.shape[0]}], got {k}")
    mean = dst.mean(axis=0)
    src, dst = src - mean, dst - mean
    # every squared distance, expanded or not, is at most (max|q| + max|r|)^2
    reach = sum(np.sqrt(np.einsum("ij,ij->i", v, v).max(initial=0.0)) for v in (src, dst))
    if not np.isfinite(reach * reach):
        raise NumericalUnderflow("squared neighbor distances overflow")
    if not len(src):
        return np.empty((0, k), dtype=np.int64)
    # sources in group order and destination rows in leaf order, so that a
    # group's rows and a leaf's rows are each one slice
    group, group_at = _cells(src, _GROUP_ROWS)
    leaf, at = _cells(dst, _LEAF_ROWS)
    src, dst, sizes = np.take(src, group, axis=0), np.take(dst, leaf, axis=0), np.diff(at)
    lhs, rhs, qq = _block_factors(src, dst, 1.0)
    rhs = np.ascontiguousarray(rhs)    # in C order a gather of its columns copies only them
    margin = 1e-9 * (np.sqrt(qq) + np.sqrt(-rhs[-1].min())) ** 2
    box_lo, box_hi = np.minimum.reduceat(dst, at[:-1]), np.maximum.reduceat(dst, at[:-1])
    q_lo, q_hi = np.minimum.reduceat(src, group_at[:-1]), np.maximum.reduceat(src, group_at[:-1])
    slack = 4.0 * np.maximum.reduceat(margin, group_at[:-1])

    def positions(leaves):             # the rows of the given leaves, in leaf order
        lens = sizes[leaves]
        return np.arange(lens.sum()) + np.repeat(at[:-1][leaves] - np.cumsum(lens) + lens, lens)

    plan = []
    for g, (a, b) in enumerate(zip(group_at[:-1], group_at[1:])):
        up, down = box_hi - q_lo[g], q_hi[g] - box_lo
        near = (np.minimum(np.minimum(up, down), 0.0) ** 2).sum(axis=1)
        with np.errstate(over="ignore"):    # an infinite bound keeps every leaf
            far = (np.maximum(up, down) ** 2).sum(axis=1)
        home = far.argmin()
        for probe in (np.arange(at[home], at[home + 1]), positions(near <= near[home])):
            if len(probe) >= k:
                bound = (qq[a:b] - _kth_largest(lhs[a:b] @ np.take(rhs, probe, axis=1), k)).max()
            else:
                by = far.argsort()
                bound = far[by[np.searchsorted(np.cumsum(sizes[by]), k)]]
            kept = np.flatnonzero(near <= bound * (1.0 + 1e-6) + slack[g])
            if len(kept) == len(sizes):
                break
        plan.append((a, b, None if len(kept) == len(sizes) else kept))
    out = np.empty((len(src), k), dtype=np.int64)

    def scan(run):
        buf = np.empty(max(SINKHORN_BLOCK_CELLS, len(dst)))
        for a, b, kept in run:
            r, y, index = rhs, dst, leaf        # every leaf kept: no copy
            if kept is not None:
                keep = positions(kept)
                r, y, index = np.take(rhs, keep, axis=1), np.take(dst, keep, axis=0), leaf[keep]
            m = len(index)
            step = _block_rows(m)
            for lo in range(a, b, step):
                hi = min(lo + step, b)
                e = np.matmul(lhs[lo:hi], r, out=buf[:(hi - lo) * m].reshape(hi - lo, m))
                sel = slice(lo, hi)            # the block's rows that go to the candidate pass
                if k == 1:                     # settle rows whose runner-up is out of the margin
                    at_row, best = np.arange(hi - lo), e.argmax(axis=1)
                    top = e[at_row, best]
                    e[at_row, best] = -np.inf
                    tied = e[at_row, e.argmax(axis=1)] >= top - margin[lo:hi]
                    out[group[lo:hi], 0] = index[best]    # tied rows are ranked below
                    if not tied.any():
                        continue
                    e[at_row, best] = top
                    sel, e = lo + np.flatnonzero(tied), e[tied]
                hits = np.flatnonzero(e >= (_kth_largest(e, k) - margin[sel])[:, None])
                rows, cols = np.divmod(hits, m)         # rows ascending
                d2 = ((np.take(src[sel], rows, axis=0) - np.take(y, cols, axis=0)) ** 2).sum(axis=-1)
                cols = index[cols]
                ranked = cols[np.lexsort((cols, d2, rows))]
                first = np.searchsorted(rows, np.arange(len(e)))
                out[group[sel]] = ranked[first[:, None] + np.arange(k)]

    _per_core(scan, plan)
    return out


def knn_borrow(x_mapped_src, x_dst, labels_dst, k: int = 1) -> np.ndarray:
    """Borrow destination labels for each mapped source row.

    `labels_dst` has one row per destination row and may be a single +-1
    column or a stack of columns; for k > 1 the per-column majority decides,
    ties going to +1.
    """
    labels, n_dst = np.asarray(labels_dst), len(_as_values(x_dst))
    if len(labels) != n_dst:
        raise DataError(f"{len(labels)} vote rows for {n_dst} destination rows")
    idx = nn_indices(x_mapped_src, x_dst, k)
    single = labels.ndim == 1
    cols = labels[:, None] if single else labels
    summed = cols[idx].sum(axis=1, dtype=np.int64)  # cols[idx] is (n_src, k, c)
    borrowed = np.where(summed >= 0, 1, -1).astype(np.int8)
    return borrowed[:, 0] if single else borrowed


def fit_map(x_src: FeatureMatrix, x_dst: FeatureMatrix, ot_kind: str, *,
            eta: float = 1.0, seed: int = 0,
            max_points: int = SINKHORN_MAX_POINTS) -> TransportMap:
    """Fit the map of kind `ot_kind` (one of OT_KINDS) from x_src onto x_dst.

    A Sinkhorn fit takes each side larger than `max_points` on a seeded
    uniform subsample, and keeps only the destination potential: a row of the
    entropic plan is a softmax in that potential, so `apply_map` extends the
    map to every source row, and on the sampled rows it agrees exactly with
    the converged plan.
    """
    if ot_kind not in OT_KINDS:
        raise DataError(f"unknown ot_kind {ot_kind!r}")
    if not (np.isfinite(eta) and eta > 0.0):
        raise DataError("eta must be finite and positive")
    if x_src.d != x_dst.d:
        raise DataError("source and destination dimensions differ")
    if ot_kind == "none":
        return TransportMap(kind="none")
    if ot_kind == "linear":
        return _linear_map(_moments(x_src), _moments(x_dst))

    def capped(x, side):               # a seeded uniform subsample of at most max_points rows
        if x.n <= max_points:
            return x.values
        rows = rng_stream(seed, _SUBSAMPLE_STREAM, side).choice(x.n, size=max_points, replace=False)
        return x.values[np.sort(rows)]

    ref = capped(x_dst, 1)
    gn, converged, _ = _sinkhorn_potentials(capped(x_src, 0), ref, eta)
    return TransportMap(kind="sinkhorn", dst_reference=ref, gn=gn, eta=eta, converged=converged)


def apply_map(tmap: TransportMap, x_src: FeatureMatrix) -> FeatureMatrix:
    """Image of each row of x_src under the map, in input row order.

    A linear map takes a row x to A x + b. A Sinkhorn row x maps to the
    softmax(gn - |x - y|^2/eta)-weighted average of the destination reference
    points y, computed in row blocks of
    SINKHORN_BLOCK_CELLS kernel cells, one contiguous run of blocks per usable
    core, each through its own reused buffer: one block product with gn in
    the column slot, whose constant |x|^2 term cancels in the softmax.
    """
    if tmap.kind == "none":
        return x_src
    ref = tmap.A if tmap.kind == "linear" else tmap.dst_reference
    if ref.shape[1] != x_src.d:
        raise DataError(f"map is {ref.shape[1]}-d, features are {x_src.d}-d")
    if tmap.kind == "linear":
        return FeatureMatrix(x_src.values @ tmap.A.T + tmap.b)
    lhs, rhs, _ = _block_factors(x_src.values, ref, tmap.eta, col=tmap.gn)
    mean, centered = ref.mean(axis=0), rhs[:-1].T
    step, out = _block_rows(len(ref)), np.empty((x_src.n, x_src.d))

    def image(run):
        buf = np.empty((step, len(ref)))
        for lo in run:
            rows = lhs[lo:lo + step]
            w = np.matmul(rows, rhs, out=buf[:len(rows)])
            np.exp(np.subtract(w, w.max(axis=1, keepdims=True), out=w), out=w)
            out[lo:lo + len(rows)] = (w @ centered) / w.sum(axis=1, keepdims=True) + mean

    _per_core(image, range(0, x_src.n, step))
    return FeatureMatrix(out)
