import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import brute_force_nn, plain_sinkhorn, sinkhorn_plan
from wsfair.core import (DataError, FeatureMatrix, NumericalError, NumericalUnderflow,
                         SingularCovariance)
from wsfair import transport
from wsfair.synth import GROUP1_OFFSET, GROUP1_MIX, gen_gaussian_pair_dataset
from wsfair.transport import (OT_KINDS, TransportMap, apply_map, fit_map, knn_borrow,
                              nn_indices, SINKHORN_BLOCK_CELLS, SINKHORN_TOL,
                              _block_factors, _linear_map, _moments, _sinkhorn_potentials,
                              _sqrt_psd)

# every transport pass runs in the test's thread, so a numpy warning that one
# of them lets out fails the test that made it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _random_spd(rng, d):
    b = rng.standard_normal((d, d))
    return b @ b.T + 0.1 * np.eye(d)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_moments_two_points():
    mean, cov = _moments(FeatureMatrix([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(mean, [1.0, 0.0])
    assert np.allclose(cov, np.diag([1.0, 0.0]) + 1e-6 * np.eye(2))


def test_moments_identical_points():
    _, cov = _moments(FeatureMatrix([[3.0, -1.0]] * 5))
    assert np.allclose(cov, 1e-6 * np.eye(2))


def test_moments_too_few_rows():
    with pytest.raises(SingularCovariance, match="moment estimation needs at least 2 rows"):
        _moments(FeatureMatrix([[1.0]]))


def test_moments_of_transformed_gaussian():
    # X1 = Sز + mu has mean mu and covariance S^2; 1e6 draws, 1% relative error
    rng = np.random.default_rng(12)
    z = rng.standard_normal((1_000_000, 2))
    x1 = z @ GROUP1_MIX.T + GROUP1_OFFSET
    mean, cov = _moments(FeatureMatrix(x1))
    target_cov = GROUP1_MIX @ GROUP1_MIX
    assert np.linalg.norm(mean - GROUP1_OFFSET) / np.linalg.norm(GROUP1_OFFSET) < 0.01
    assert (np.linalg.norm(cov - target_cov) / np.linalg.norm(target_cov)) < 0.01


# ---------------------------------------------------------------------------
# Linear Monge map
# ---------------------------------------------------------------------------

def test_linear_pure_translation():
    tmap = _linear_map((np.zeros(2), np.eye(2)), (np.array([1.0, 1.0]), np.eye(2)))
    assert np.allclose(tmap.A, np.eye(2), atol=1e-10)
    assert np.allclose(tmap.b, [1.0, 1.0], atol=1e-10)


def test_linear_recovers_planted_square_root():
    # target covariance [[5,4],[4,5]] has eigenpairs (9, 1) on (1,1)/(1,-1),
    # so its square root is [[2,1],[1,2]]
    cov = np.array([[5.0, 4.0], [4.0, 5.0]])
    tmap = _linear_map((np.zeros(2), np.eye(2)), (np.zeros(2), cov))
    evals, evecs = np.linalg.eigh(cov)
    oracle = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    assert np.allclose(oracle, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
    assert np.allclose(tmap.A, oracle, atol=1e-10)


def test_linear_isotropic_rescale():
    tmap = _linear_map((np.zeros(3), 4.0 * np.eye(3)), (np.zeros(3), np.eye(3)))
    assert np.allclose(tmap.A, 0.5 * np.eye(3), atol=1e-10)


def test_linear_singular_covariance():
    with pytest.raises(SingularCovariance):
        _linear_map((np.zeros(2), np.diag([1.0, 1e-15])), (np.zeros(2), np.eye(2)))


def test_pushforward_identity_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(15):
        d = int(rng.integers(1, 9))
        src = (rng.standard_normal(d), _random_spd(rng, d))
        dst = (rng.standard_normal(d), _random_spd(rng, d))
        tmap = _linear_map(src, dst)
        push = tmap.A @ src[1] @ tmap.A.T
        assert np.linalg.norm(push - dst[1]) / np.linalg.norm(dst[1]) <= 1e-8


def test_monge_self_map_is_identity():
    rng = np.random.default_rng(4)
    mom = (rng.standard_normal(4), _random_spd(rng, 4))
    tmap = _linear_map(mom, mom)
    assert np.abs(tmap.A - np.eye(4)).max() <= 1e-8
    assert np.abs(tmap.b).max() <= 1e-8


def test_apply_map_linear():
    x = FeatureMatrix([[1.0, 1.0]])
    ident = TransportMap(kind="linear", A=np.eye(2), b=np.zeros(2))
    assert np.allclose(apply_map(ident, x).values, x.values)
    doubled = TransportMap(kind="linear", A=2.0 * np.eye(2), b=np.zeros(2))
    out = apply_map(doubled, x)
    assert np.allclose(out.values, [[2.0, 2.0]])


@pytest.mark.parametrize("ot_kind", ["linear", "sinkhorn"])
def test_apply_map_rejects_features_of_another_dimension(ot_kind):
    rng = np.random.default_rng(26)
    src, dst = rng.standard_normal((20, 2)), rng.standard_normal((30, 2))
    tmap = fit_map(FeatureMatrix(src), FeatureMatrix(dst), ot_kind)
    with pytest.raises(DataError, match="map is 2-d, features are 3-d"):
        apply_map(tmap, FeatureMatrix(rng.standard_normal((5, 3))))


def test_fit_then_apply_matches_destination_moments():
    rng = np.random.default_rng(5)
    src = FeatureMatrix(rng.standard_normal((20_000, 2)) @ np.diag([1.0, 3.0]) + 2.0)
    dst = FeatureMatrix(rng.standard_normal((20_000, 2)) @ np.array([[1.0, 0.4], [0.4, 1.0]]) - 1.0)
    image = apply_map(fit_map(src, dst, "linear"), src)
    (got_mean, got_cov), (want_mean, want_cov) = _moments(image), _moments(dst)
    assert np.abs(got_mean - want_mean).max() < 0.05
    assert np.linalg.norm(got_cov - want_cov) / np.linalg.norm(want_cov) < 0.05


def test_matrix_sqrt_up_to_d32():
    rng = np.random.default_rng(6)
    for d in (1, 2, 5, 16, 32):
        s = _random_spd(rng, d)
        root = _sqrt_psd(s)
        assert np.linalg.norm(root @ root - s) / np.linalg.norm(s) <= 1e-10


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------

def test_block_product_ignores_where_the_data_sits():
    # col_j - |a_i - b_j|^2 / eta, wherever the clouds sit
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((30, 3)), rng.standard_normal((20, 3))
    col, eta = rng.standard_normal(20), 0.7
    want = col - ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1) / eta
    for offset in (0.0, 1e6):
        lhs, rhs, xx = _block_factors(a + offset, b + offset, eta, col=col)
        assert np.allclose(lhs @ rhs - xx[:, None], want, rtol=0.0, atol=1e-8)


def test_sinkhorn_single_pair():
    src = FeatureMatrix([[0.0]])
    tmap = fit_map(src, FeatureMatrix([[5.0]]), "sinkhorn")
    assert np.allclose(sinkhorn_plan(tmap, src), [[1.0]])


def test_sinkhorn_equal_costs_uniform():
    # two sources equidistant from two destinations
    src = FeatureMatrix([[0.0, 1.0], [0.0, -1.0]])
    dst = FeatureMatrix([[1.0, 0.0], [-1.0, 0.0]])
    tmap = fit_map(src, dst, "sinkhorn")
    assert np.allclose(sinkhorn_plan(tmap, src), 0.5, atol=1e-9)


def test_sinkhorn_2x2_closed_form():
    # points (0) and (sqrt(10)) on the line give M = [[0,10],[10,0]]; with
    # uniform marginals the scaling is symmetric and pi~ has diagonal
    # 1/(1+e^-10) exactly
    pts = [[0.0], [math.sqrt(10.0)]]
    tmap = fit_map(FeatureMatrix(pts), FeatureMatrix(pts), "sinkhorn", eta=1.0)
    plan = sinkhorn_plan(tmap, pts)
    q = math.exp(-10.0)
    want = np.array([[1.0, q], [q, 1.0]]) / (1.0 + q)
    assert np.abs(plan - want).max() < 1e-6
    assert plan[0, 0] >= 0.99 and plan[1, 1] >= 0.99


def test_sinkhorn_marginals_and_nonnegativity():
    rng = np.random.default_rng(7)
    src = FeatureMatrix(rng.standard_normal((120, 3)))
    dst = FeatureMatrix(rng.standard_normal((80, 3)))
    tmap = fit_map(src, dst, "sinkhorn")
    assert tmap.converged
    pi = sinkhorn_plan(tmap, src) / 120
    assert (pi >= 0).all()
    assert np.abs(pi.sum(axis=1) - 1 / 120).sum() <= 1e-9
    assert np.abs(pi.sum(axis=0) - 1 / 80).sum() <= 1e-9


def test_sinkhorn_log_domain_far_clouds():
    # costs / eta far beyond exp underflow (e^-700): the stabilised kernel
    # must neither underflow nor lose the marginals. On the line, eta = 0.1
    # makes the potentials span about 1e5 in cost/eta units, so the fit only
    # converges if the scalings are absorbed into the potentials.
    rng = np.random.default_rng(8)
    cases = [(rng.standard_normal((40, 2)), rng.standard_normal((30, 2)) + 60.0, 1.0),
             ([[0.0], [1.0]], [[0.0], [50.0], [100.0]], 0.1)]
    for src, dst, eta in cases:
        src, dst = FeatureMatrix(src), FeatureMatrix(dst)
        tmap = fit_map(src, dst, "sinkhorn", eta=eta)
        assert tmap.converged
        pi = sinkhorn_plan(tmap, src) / src.n
        assert np.abs(pi.sum(axis=0) - 1 / dst.n).sum() <= 1e-9


def test_sinkhorn_row_permutation_equivariance():
    rng = np.random.default_rng(9)
    src = rng.standard_normal((25, 2))
    dst = FeatureMatrix(rng.standard_normal((35, 2)))
    perm = rng.permutation(25)
    t1 = fit_map(FeatureMatrix(src), dst, "sinkhorn")
    t2 = fit_map(FeatureMatrix(src[perm]), dst, "sinkhorn")
    assert np.allclose(sinkhorn_plan(t1, src)[perm], sinkhorn_plan(t2, src[perm]),
                       atol=1e-12)


def test_sinkhorn_subsampled_fit():
    rng = np.random.default_rng(10)
    src = FeatureMatrix(rng.standard_normal((130, 2)))
    dst = FeatureMatrix(rng.standard_normal((90, 2)))
    tmap = fit_map(src, dst, "sinkhorn", max_points=50, seed=3)
    plan = sinkhorn_plan(tmap, src)
    assert plan.shape == (130, 50)
    assert np.abs(plan.sum(axis=1) - 1.0).max() < 1e-9
    again = fit_map(src, dst, "sinkhorn", max_points=50, seed=3)
    assert np.array_equal(plan, sinkhorn_plan(again, src))
    assert np.array_equal(tmap.dst_reference, again.dst_reference)


def _cost_over_eta(src, dst, eta):
    return ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=-1) / eta


def _kernel_rows(monkeypatch):
    """List that records the rows of every block the Sinkhorn kernel pass writes."""
    rows, kernel_pass = [], transport._kernel_pass

    def counting(blocks, *args):
        rows.extend(len(kb) for _, kb, _ in blocks)
        return kernel_pass(blocks, *args)

    monkeypatch.setattr(transport, "_kernel_pass", counting)
    return rows


def test_sinkhorn_matches_the_plain_scaling_oracle(monkeypatch):
    # Random shapes, the 1 x 1 and equal-cost cases, and far clouds at a small
    # eta, which only converge through absorption. The last two cases span
    # several row blocks of the kernel and end in a ragged one; the far pair
    # at eta 0.2 absorbs, which reruns the kernel pass. Potentials are defined up
    # to an additive constant.
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(4):
        n, m, d = rng.integers(1, 60), rng.integers(1, 60), rng.integers(1, 5)
        cases.append((rng.standard_normal((n, d)), rng.standard_normal((m, d)) + 0.5,
                      float(rng.choice([0.5, 1.0, 2.0]))))
    cases += [(np.zeros((1, 1)), np.full((1, 1), 5.0), 1.0),
              (np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0),
              (np.array([[0.0], [1.0]]), np.array([[0.0], [50.0], [100.0]]), 0.1)]
    for m, shift, eta in ((1000, 0.5, 1.0), (3000, 5.0, 0.2)):
        n = 3 * (SINKHORN_BLOCK_CELLS // m) + 7
        cases.append((rng.standard_normal((n, 2)), rng.standard_normal((m, 2)) + shift, eta))
    rows = _kernel_rows(monkeypatch)
    for src, dst, eta in cases:
        rows.clear()
        gn, converged, _ = _sinkhorn_potentials(src, dst, eta)
        want, want_converged, _ = plain_sinkhorn(_cost_over_eta(src, dst, eta), SINKHORN_TOL)
        assert converged and want_converged
        diff = gn - want
        assert np.abs(diff - diff.mean()).max() < 1e-8, (src.shape, dst.shape, eta)
    assert max(rows) < len(src) < sum(rows) and sum(rows) % len(src) == 0


def test_sinkhorn_fit_passes_each_source_row_through_the_kernel_pass_once(monkeypatch):
    # a fit without absorption writes each row block of its kernel once
    rows = _kernel_rows(monkeypatch)
    rng = np.random.default_rng(24)
    n = 3 * (SINKHORN_BLOCK_CELLS // 1000) + 7
    src = FeatureMatrix(rng.standard_normal((n, 2)))
    dst = FeatureMatrix(rng.standard_normal((1000, 2)) + 0.5)
    assert fit_map(src, dst, "sinkhorn").converged
    assert sum(rows) == n and len(rows) == 4


def test_mixed_sinkhorn_needs_at_most_half_the_plain_sweeps():
    rng = np.random.default_rng(20)
    src = rng.standard_normal((1000, 2))
    dst = rng.standard_normal((1000, 2)) @ GROUP1_MIX.T + GROUP1_OFFSET
    _, converged, sweeps = _sinkhorn_potentials(src, dst, 1.0)
    _, plain_converged, plain_sweeps = plain_sinkhorn(_cost_over_eta(src, dst, 1.0),
                                                      SINKHORN_TOL)
    assert converged and plain_converged
    assert sweeps <= plain_sweeps / 2, f"{sweeps} mixed against {plain_sweeps} plain sweeps"


def test_sinkhorn_sweep_cap_returns_a_finite_unconverged_potential(monkeypatch):
    # The sweep cap is lowered to 2. The second case sorts the sources along a
    # line that spans several row blocks, so a c-transform taken over one
    # block alone would overflow the kernel in the others.
    monkeypatch.setattr(transport, "SINKHORN_MAX_ITERS", 2)
    rng = np.random.default_rng(21)
    m = 1000
    cases = [(rng.standard_normal((50, 2)), rng.standard_normal((40, 2)) + 1.0),
             (np.sort(rng.uniform(0.0, 40.0, (3 * (SINKHORN_BLOCK_CELLS // m) + 7, 1)), axis=0),
              rng.uniform(0.0, 40.0, (m, 1)))]
    for src, dst in cases:
        gn, converged, sweeps = _sinkhorn_potentials(src, dst, 1.0)
        assert not converged and sweeps == 2
        assert gn.shape == (len(dst),) and np.isfinite(gn).all()


def test_sinkhorn_keeps_exact_kernel_ones_when_the_destination_is_far_larger():
    # |y - mu|^2/eta is about 1e20 or 1e100, so a kernel exponent that took gn
    # through the block product would carry a rounding error of 1e4 or more
    rng = np.random.default_rng(15)
    cases = [(rng.standard_normal((2, 1)), rng.standard_normal((2, 1)) * 1e10),
             (rng.standard_normal((300, 2)), rng.standard_normal((200, 2)) * 1e50)]
    for src, dst in cases:
        tmap = fit_map(FeatureMatrix(src), FeatureMatrix(dst), "sinkhorn")
        assert tmap.converged and np.isfinite(tmap.gn).all()


def test_sinkhorn_source_far_larger_than_the_destination():
    # |x - mu|^2 swamps every cross term of C, so each row of C is flat and the
    # plan is uniform; past the float64 range, C itself fails the finiteness test
    rng = np.random.default_rng(15)
    src, dst = rng.standard_normal((300, 2)), rng.standard_normal((200, 2))
    for scale in (1e50, 1e150):
        tmap = fit_map(FeatureMatrix(src * scale), FeatureMatrix(dst), "sinkhorn")
        assert tmap.converged and np.ptp(tmap.gn) == 0.0
    with pytest.raises(NumericalUnderflow, match="cost matrix is not finite"):
        fit_map(FeatureMatrix(src * 1e155), FeatureMatrix(dst), "sinkhorn")


@pytest.mark.parametrize("eta, error", [(1e-300, NumericalUnderflow), (1e-320, NumericalError)])
def test_sinkhorn_tiny_eta_raises_without_runtime_warnings(eta, error):
    # at 1e-300, cost/eta is finite but so large that the kernel's exponents
    # keep no precision; the subnormal 1e-320 overflows the cost itself
    rng = np.random.default_rng(8)
    src = FeatureMatrix(rng.standard_normal((40, 2)))
    dst = FeatureMatrix(rng.standard_normal((30, 2)) + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            fit_map(src, dst, "sinkhorn", eta=eta)


@pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf")])
def test_sinkhorn_rejects_a_bad_eta(eta):
    pts = FeatureMatrix([[0.0], [1.0]])
    with pytest.raises(DataError, match="eta must be finite and positive"):
        fit_map(pts, pts, "sinkhorn", eta=eta)


def test_barycentric_identity_permutation():
    # With a flat potential and a tiny eta each row's plan is a point mass on
    # its nearest reference row, so rows sitting on dst[[1, 2, 0]] map there.
    dst = FeatureMatrix([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tmap = TransportMap(kind="sinkhorn", dst_reference=dst.values,
                        gn=np.zeros(3), eta=1e-3)
    src = FeatureMatrix(dst.values[[1, 2, 0]])
    assert np.allclose(sinkhorn_plan(tmap, src), np.eye(3)[[1, 2, 0]])
    out = apply_map(tmap, src)
    assert np.allclose(out.values, dst.values[[1, 2, 0]])


def test_barycentric_uniform_maps_to_centroid():
    # Both source rows are equally far from all four reference rows, so with a
    # flat potential the plan is uniform and each row maps to the centroid.
    dst = FeatureMatrix([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                         [0.0, 2.0, 0.0], [2.0, 2.0, 0.0]])
    tmap = TransportMap(kind="sinkhorn", dst_reference=dst.values,
                        gn=np.zeros(4), eta=1.0)
    src = FeatureMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 5.0]])
    assert np.allclose(sinkhorn_plan(tmap, src), 0.25)
    out = apply_map(tmap, src)
    assert np.allclose(out.values, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])


def test_barycentric_image_is_the_plan_applied_to_the_reference():
    # Source rows span several apply blocks and include a subsampled fit.
    rng = np.random.default_rng(15)
    src = FeatureMatrix(rng.standard_normal((2_500, 3)))
    dst = FeatureMatrix(rng.standard_normal((300, 3)) + 0.5)
    for max_points in (5_000, 200):
        tmap = fit_map(src, dst, "sinkhorn", max_points=max_points, seed=1)
        out = apply_map(tmap, src)
        want = sinkhorn_plan(tmap, src) @ tmap.dst_reference
        assert np.allclose(out.values, want, rtol=0.0, atol=1e-12)
    # Far from the origin, with a ragged last block: dropping |x|^2 from the
    # logits must keep the image independent of where the data sits.
    offset, m = 1e6, 4000
    src = FeatureMatrix(rng.standard_normal((3 * (SINKHORN_BLOCK_CELLS // m) + 7, 3)) + offset)
    dst = FeatureMatrix(rng.standard_normal((m, 3)) + 0.5 + offset)
    tmap = fit_map(src, dst, "sinkhorn")
    out = apply_map(tmap, src).values - offset
    want = sinkhorn_plan(tmap, src) @ tmap.dst_reference - offset
    assert np.allclose(out, want, rtol=0.0, atol=1e-9)


def test_sinkhorn_map_applies_to_the_rows_it_is_given():
    rng = np.random.default_rng(16)
    src = FeatureMatrix(rng.standard_normal((100, 2)))
    dst = FeatureMatrix(rng.standard_normal((80, 2)) - 1.0)
    tmap = fit_map(src, dst, "sinkhorn")
    full = apply_map(tmap, src)
    rows = rng.choice(100, size=10, replace=False)
    part = apply_map(tmap, src.take(rows))
    assert part.n == 10
    assert np.allclose(part.values, full.values[rows], rtol=0.0, atol=1e-12)


def test_sinkhorn_fit_and_apply_never_hold_a_dense_plan():
    # 40,000 source rows against 500 destination rows: the dense plan alone
    # would take n_src * n_dst * 8 bytes.
    rng = np.random.default_rng(17)
    src = FeatureMatrix(rng.standard_normal((40_000, 2)))
    dst = FeatureMatrix(rng.standard_normal((500, 2)))
    tracemalloc.start()
    try:
        tmap = fit_map(src, dst, "sinkhorn")
        mapped = apply_map(tmap, src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mapped.n == src.n
    assert peak < src.n * dst.n * 8, f"peak {peak / 2**20:.0f} MB"


@pytest.mark.parametrize("offset", [0.0, 40.0])
def test_sinkhorn_fit_peak_is_one_fit_sized_array(offset):
    # fit at m = 2,000 per side: the kernel, built in place over the cost, is
    # the only m x m array alive, also when the clouds sit far apart
    m = 2000
    rng = np.random.default_rng(18)
    src = FeatureMatrix(rng.standard_normal((m, 2)))
    dst = FeatureMatrix(rng.standard_normal((m, 2)) + offset)
    tracemalloc.start()
    try:
        fit_map(src, dst, "sinkhorn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * m * 8, f"peak {peak / (m * m * 8):.2f} x m^2 doubles"


def test_barycentric_mean_matches_destination_mean():
    # feasibility makes the projected cloud's mean equal the destination mean
    feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(2000, 0)
    x0, x1 = feats.take(groups.indices(0)), feats.take(groups.indices(1))
    tmap = fit_map(x1, x0, "sinkhorn", eta=1.0)
    projected = apply_map(tmap, x1)
    assert np.linalg.norm(projected.values.mean(axis=0) - x0.values.mean(axis=0)) < 0.1


def test_no_transport_call_starts_a_thread(monkeypatch):
    # The fit spans 9 kernel row blocks, the apply 9 row blocks and the scan 6
    # source groups, and the far clouds at eta 0.2 absorb, which reruns the
    # kernel pass. Every pass runs in the calling thread.
    def refuse(thread):
        raise RuntimeError(f"transport started thread {thread.name}")

    rng = np.random.default_rng(25)
    m = 1000
    src = FeatureMatrix(rng.standard_normal((8 * (SINKHORN_BLOCK_CELLS // m) + 7, 2)))
    far = FeatureMatrix(rng.standard_normal((m, 2)) + 5.0)
    labels = np.where(rng.random(m) < 0.5, -1, 1).astype(np.int8)
    with monkeypatch.context() as patched:
        patched.setattr(threading.Thread, "start", refuse)
        tmap = fit_map(src, far, "sinkhorn", eta=0.2)
        mapped = apply_map(tmap, src)
        borrowed = knn_borrow(mapped, far, labels, k=3)
    assert tmap.converged and np.isfinite(mapped.values).all()
    assert borrowed.shape == (src.n,)
    rows = _kernel_rows(monkeypatch)
    _sinkhorn_potentials(src.values, far.values, 0.2)
    assert sum(rows) > src.n            # the fit absorbed


# ---------------------------------------------------------------------------
# kNN borrowing, and fit -> apply -> borrow chains
# ---------------------------------------------------------------------------

def test_knn_identity_on_equal_sets():
    rng = np.random.default_rng(11)
    pts = FeatureMatrix(rng.standard_normal((60, 3)))
    labels = rng.choice([-1, 1], size=60)
    assert np.array_equal(knn_borrow(pts, pts, labels, k=1), labels)


def test_knn_single_destination():
    src = FeatureMatrix(np.random.default_rng(0).standard_normal((10, 2)))
    dst = FeatureMatrix([[0.0, 0.0]])
    assert (knn_borrow(src, dst, np.array([-1]), k=1) == -1).all()


def test_knn_tie_breaks_to_lowest_index():
    src = FeatureMatrix([[0.0, 0.0]])
    dst = FeatureMatrix([[1.0, 0.0], [-1.0, 0.0]])
    assert knn_borrow(src, dst, np.array([-1, 1]), k=1)[0] == -1
    idx = nn_indices(src, dst, k=2)
    assert idx[0].tolist() == [0, 1]


def check_against_oracle(src, dst, k):
    """nn_indices equals brute_force_nn on every source row."""
    assert np.array_equal(nn_indices(src, dst, k), brute_force_nn(src, dst, k)), \
        (src.shape, dst.shape, k)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_nn_indices_match_brute_force_oracle(k, d):
    rng = np.random.default_rng(100 + 10 * k + d)
    # Small-integer lattice points: many destination duplicates and many
    # equidistant neighbors. 64 rows keep the centering exact; with 50 rows
    # it rounds, so distances may also differ only in their last bits.
    for n_dst, offset in ((64, 0.0), (50, 0.0), (50, 1e4)):
        lat_dst = rng.integers(-2, 3, size=(n_dst, d)) + offset
        lat_src = rng.integers(-2, 3, size=(40, d)) + offset
        check_against_oracle(lat_src, lat_dst, k)
    # Continuous cloud with duplicated destination rows and sources placed on
    # destination rows and on midpoints between two of them.
    dst = rng.standard_normal((300, d))
    dst = np.vstack([dst, dst[rng.choice(300, size=60)]])
    pairs = rng.choice(dst.shape[0], size=(40, 2))
    src = np.vstack([rng.standard_normal((200, d)), dst[:40],
                     (dst[pairs[:, 0]] + dst[pairs[:, 1]]) / 2.0])
    check_against_oracle(src, dst, k)
    # Groups 40 units apart, and every destination row asked for.
    check_against_oracle(src + 40.0, dst, k)
    lat_dst = rng.integers(-2, 3, size=(12, d))
    check_against_oracle(rng.integers(-2, 3, size=(40, d)), lat_dst, len(lat_dst))


@pytest.mark.parametrize("k", [1, 3])
def test_high_dimensional_searches_match_the_oracle(k):
    # Leaf boxes rule out little above a few dimensions, so these searches
    # keep most leaves. An 8-d 0/1 lattice of 4,000 rows, each row duplicated
    # ~16 times, ties every source on the lattice, beside 2,000 continuous
    # rows; it is checked on 200 sampled source rows. At d = 16 and 64, clouds
    # of intrinsic dimension 4 are embedded by a random projection, with 100
    # destination rows duplicated and sources placed on destination rows and
    # on midpoints between two of them.
    rng = np.random.default_rng(40 + k)
    dst = np.vstack([rng.integers(0, 2, size=(4000, 8)), rng.standard_normal((2000, 8))])
    src = np.vstack([rng.integers(0, 2, size=(100, 8)), rng.standard_normal((300, 8))])
    got = nn_indices(src, dst, k)
    rows = rng.choice(len(src), size=200, replace=False)
    want = np.vstack([brute_force_nn(src[r], dst, k) for r in np.split(rows, 4)])
    assert np.array_equal(got[rows], want)
    for d in (16, 64):
        embed = rng.standard_normal((4, d))
        dst = rng.standard_normal((1500, 4)) @ embed
        dst = np.vstack([dst, dst[rng.choice(1500, size=100)]])
        pairs = rng.choice(len(dst), size=(50, 2))
        src = np.vstack([rng.standard_normal((200, 4)) @ embed, dst[-50:],
                         (dst[pairs[:, 0]] + dst[pairs[:, 1]]) / 2.0])
        want = np.vstack([brute_force_nn(src[i:i + 50], dst, k) for i in range(0, len(src), 50)])
        assert np.array_equal(nn_indices(src, dst, k), want), d


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("k", [1, 3, transport._LEAF_ROWS + 1])
def test_pruned_scan_matches_the_oracle(monkeypatch, k, d):
    # The scan skips every destination leaf whose box lies beyond its group's
    # bound, and must still return the rows of a scan over all of them; a
    # second cluster 50 away is always skipped. Three rows are copied 40
    # times, more than a leaf holds, so equal distances straddle leaf
    # boundaries, and a group's worth of sources sits on one of them. The
    # other cases: clouds 1e4 apart, points on one coordinate axis (boxes of
    # zero width in every other coordinate), a one-row destination, and a
    # two-value lattice whose source groups are copies of one point, so a
    # bound is 0 up to the expanded form's rounding and may round below it.
    rng = np.random.default_rng(200 + 10 * k + d)
    dst = rng.standard_normal((1000, d))
    dst = np.vstack([dst, np.repeat(dst[:3], 40, axis=0), rng.standard_normal((200, d)) + 50.0])
    src = np.vstack([rng.standard_normal((800, d)), dst[rng.choice(len(dst), 60)],
                     np.repeat(dst[1:2], transport._GROUP_ROWS, axis=0)])
    line = np.zeros((600, d))
    line[:, 0] = np.repeat(rng.standard_normal(300), 2)
    lattice = rng.integers(0, 2, size=(2400, d)) / 3.0
    widths, block_rows, pruned = [], transport._block_rows, False

    def counting(n_cols):              # a group's kept destination rows
        widths.append(n_cols)
        return block_rows(n_cols)

    monkeypatch.setattr(transport, "_block_rows", counting)
    for s, t in ((src, dst), (src + 1e4, dst), (line[::3] + 0.1, line), (src, dst[5:6]),
                 (lattice[1200:], lattice[:1200])):
        want = np.vstack([brute_force_nn(s[i:i + 200], t, min(k, len(t)))
                          for i in range(0, len(s), 200)])
        widths.clear()
        assert np.array_equal(nn_indices(s, t, min(k, len(t))), want), (s.shape, t.shape)
        pruned |= min(widths) < len(t)
    assert pruned


@st.composite
def _lattice_clouds(draw):
    """(src, dst): up to 200 rows a side on the {-s, ..., s}^d lattice,
    d in {1, 2, 3} and s in {1, ..., 4}, so rows repeat and many neighbours
    tie exactly, both moved by 0 or 1e6. Far from the origin the expanded
    form's rounding can order exactly tied rows either way."""
    d, s = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    offset = draw(st.sampled_from([0.0, 1e6]))
    rows = st.integers(1, 200).flatmap(
        lambda n: hnp.arrays(np.int64, (n, d), elements=st.integers(-s, s)))
    return draw(rows) + offset, draw(rows) + offset


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_lattice_clouds())
def test_property_nearest_neighbour_matches_the_oracle_on_lattices(clouds):
    # Leaves of 4 rows and groups of 16 give many blocks a mix of rows settled
    # from their runner-up and rows with tied neighbours.
    src, dst = clouds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_LEAF_ROWS", 4)
        mp.setattr(transport, "_GROUP_ROWS", 16)
        check_against_oracle(src, dst, 1)


def test_nn_indices_uses_every_destination_row_when_k_is_n_dst():
    dst = np.array([[1.0], [-1.0], [1.0], [3.0]])
    src = np.array([[0.0], [2.0]])
    assert nn_indices(src, dst, k=4).tolist() == [[0, 1, 2, 3], [0, 2, 3, 1]]


def test_knn_majority_and_tie():
    src = FeatureMatrix([[0.0]])
    dst = FeatureMatrix([[0.1], [0.2], [0.3], [5.0]])
    labels = np.array([1, -1, -1, 1])
    assert knn_borrow(src, dst, labels, k=3)[0] == -1
    # k=2 ties on (+1, -1) and resolves to +1
    assert knn_borrow(src, dst, labels, k=2)[0] == 1


def test_knn_k_bounds_and_empty_destination():
    src = FeatureMatrix([[0.0]])
    with pytest.raises(DataError):
        knn_borrow(src, FeatureMatrix([[1.0]]), np.array([1]), k=2)
    with pytest.raises(DataError, match="destination set is empty"):
        knn_borrow(src, np.empty((0, 1)), np.array([]), k=1)


@pytest.mark.parametrize("k", [1, 3])
def test_nn_indices_without_source_rows(k):
    out = nn_indices(np.empty((0, 2)), np.ones((4, 2)), k)
    assert out.shape == (0, k) and out.dtype == np.int64


@pytest.mark.parametrize("n_labels", [2, 4])
def test_knn_rejects_votes_of_another_length(n_labels):
    src, dst = FeatureMatrix([[0.0], [2.9]]), FeatureMatrix([[0.0], [1.0], [3.0]])
    with pytest.raises(DataError, match=f"{n_labels} vote rows for 3 destination rows"):
        knn_borrow(src, dst, np.ones(n_labels, dtype=np.int8))


@pytest.mark.parametrize("n_dst", [40, 5001])  # 2 and 157 destination leaves
def test_nn_distance_overflow_is_a_numerical_error(n_dst):
    rng = np.random.default_rng(9)
    src, dst = rng.standard_normal((30, 2)), rng.standard_normal((n_dst, 2))
    # at 1e153 every squared distance is finite and the search is exact
    assert np.array_equal(nn_indices(src * 1e153, dst * 1e153, 2), nn_indices(src, dst, 2))
    with pytest.raises(NumericalUnderflow, match="squared neighbor distances overflow"):
        nn_indices(src * 1e155, dst, 1)
    with pytest.raises(NumericalUnderflow, match="squared neighbor distances overflow"):
        nn_indices(src, dst * 1e155, 1)


def test_overflowing_moments_and_linear_maps_are_numerical_errors():
    x = np.random.default_rng(10).standard_normal((50, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularCovariance, match="covariance is not finite"):
            _moments(FeatureMatrix(x * 1e160))
        big = _moments(FeatureMatrix(x * 1e100))     # finite, ~1e200
        with pytest.raises(SingularCovariance, match="linear map coefficients are not finite"):
            _linear_map(big, big)


def test_moment_checks_are_relative_to_the_covariance_scale():
    # two rows at 1e18: a PSD covariance whose rounding puts an eigenvalue
    # near -7e19, far below the absolute -1e-9 but not the relative bound
    x = FeatureMatrix([[-2.23974757e18, 7.92044298e18], [-3.28167411e18, 6.10941175e18]])
    mom = _moments(x)
    assert np.linalg.eigvalsh(mom[1]).min() < -1e-9
    with pytest.raises(SingularCovariance, match="condition number"):
        _linear_map(mom, mom)


def test_knn_multi_column_labels():
    src = FeatureMatrix([[0.0], [10.0]])
    dst = FeatureMatrix([[0.1], [9.9]])
    cols = np.array([[1, -1], [-1, 1]])
    out = knn_borrow(src, dst, cols, k=1)
    assert out.tolist() == [[1, -1], [-1, 1]]


@pytest.mark.parametrize("k", [2, 3, 200])
def test_knn_borrow_stacked_columns_equal_single_columns(k):
    # 100 destination points, each held by two rows: for even k every source
    # row's neighbours are whole pairs, so the alternating column ties
    rng = np.random.default_rng(k)
    dst = FeatureMatrix(np.repeat(rng.standard_normal((100, 2)), 2, axis=0))
    src = FeatureMatrix(rng.standard_normal((40, 2)))
    tied = np.tile(np.array([1, -1], dtype=np.int8), 100)
    cols = np.column_stack([tied, np.ones(200, np.int8), -np.ones(200, np.int8),
                            np.where(rng.random((200, 2)) < 0.5, 1, -1)]).astype(np.int8)
    out = knn_borrow(src, dst, cols, k=k)
    for c in range(cols.shape[1]):
        assert np.array_equal(out[:, c], knn_borrow(src, dst, cols[:, c], k=k))
    if k % 2 == 0:
        assert (out[:, 0] == 1).all()
    # k = 200 sums 200 votes of +1, past what an int8 accumulator holds
    assert (out[:, 1] == 1).all() and (out[:, 2] == -1).all()


def test_transport_none_copies_shared_points():
    rng = np.random.default_rng(13)
    dst_vals = rng.standard_normal((50, 2))
    labels = rng.choice([-1, 1], size=50)
    src, dst = FeatureMatrix(dst_vals[10:30]), FeatureMatrix(dst_vals)
    borrowed = knn_borrow(apply_map(fit_map(src, dst, "none"), src), dst, labels)
    assert np.array_equal(borrowed, labels[10:30])


def _borrow_group1_labels(n_per_group, ot_kind):
    """Labels group 1 borrows from group 0 after mapping onto it, and its truth.
    Both groups stay under the Sinkhorn cap, so the destination is whole."""
    feats, groups, truth, weak, _ = gen_gaussian_pair_dataset(n_per_group, 0)
    i0, i1 = groups.indices(0), groups.indices(1)
    x_src, x_dst = feats.take(i1), feats.take(i0)
    tmap = fit_map(x_src, x_dst, ot_kind, seed=0)
    borrowed = knn_borrow(apply_map(tmap, x_src), x_dst, truth.labels[i0])
    return borrowed, truth.labels[i1]


def test_transport_linear_recovers_group1_labels():
    borrowed, want = _borrow_group1_labels(10_000, "linear")
    assert (borrowed == want).mean() >= 0.95


def test_transport_sinkhorn_recovers_group1_labels():
    borrowed, want = _borrow_group1_labels(2_000, "sinkhorn")
    assert (borrowed == want).mean() >= 0.90


def test_fit_map_rejects_unknown_kind():
    pts = FeatureMatrix([[0.0], [1.0]])
    with pytest.raises(DataError):
        fit_map(pts, pts, "quadratic")


@pytest.mark.parametrize("ot_kind", OT_KINDS)
def test_fit_map_rejects_mismatched_dimensions(ot_kind):
    rng = np.random.default_rng(27)
    src, dst = FeatureMatrix(rng.standard_normal((20, 2))), FeatureMatrix(rng.standard_normal((30, 3)))
    with pytest.raises(DataError, match="source and destination dimensions differ"):
        fit_map(src, dst, ot_kind)
