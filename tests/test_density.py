import math

import numpy as np
import pytest

import bhdensity as bh
from bhdensity.bodies import minkowski_many
from bhdensity.density import _MC_CHUNK, _R3_STEP
from bhdensity.geom import _philox
from bhdensity.tolerances import TOL
from conftest import W0_AREA


def test_alpha_values():
    assert abs(bh.alpha(1) - 2.0) < 1e-15
    assert abs(bh.alpha(2) - math.pi) < 1e-15
    assert abs(bh.alpha(4) - math.pi**2 / 2.0) < 1e-15


def test_density_euclidean_is_bivector_norm(ball4):
    gen = np.random.default_rng(1)
    for _ in range(20):
        w = bh.wedge(gen.standard_normal(4), gen.standard_normal(4))
        if w.norm < 1e-6:
            continue
        val = bh.bh_density_2(ball4, w).value
        assert abs(val - w.norm) < 5e-6 * w.norm


def test_density_examples(body_c):
    w = bh.wedge(np.eye(4)[0], np.eye(4)[1])
    val = bh.bh_density_2(body_c, w).value
    assert abs(val - math.pi / W0_AREA) < 1e-12
    val2 = bh.bh_density_2(body_c, 2.0 * w).value
    assert abs(val2 - 2.0 * math.pi / W0_AREA) < 1e-12


def test_density_homogeneity(body_c):
    gen = np.random.default_rng(2)
    for _ in range(50):
        w = bh.wedge(gen.standard_normal(4), gen.standard_normal(4))
        if w.norm < 1e-6:
            continue
        t = float(gen.uniform(0.1, 5.0))
        a = bh.bh_density_2(body_c, t * w).value
        b = t * bh.bh_density_2(body_c, w).value
        assert abs(a - b) < 1e-10 * b


def test_density_basis_independence(body_c):
    gen = np.random.default_rng(3)
    for _ in range(50):
        pl = bh.random_plane(3, 4, stream=int(gen.integers(1 << 30)))
        theta = float(gen.uniform(0, 2 * math.pi))
        u2 = math.cos(theta) * pl.u + math.sin(theta) * pl.v
        v2 = -math.sin(theta) * pl.u + math.cos(theta) * pl.v
        a = bh.bh_density_2(body_c, bh.wedge(pl.u, pl.v)).value
        b = bh.bh_density_2(body_c, bh.wedge(u2, v2)).value
        assert abs(a - b) < 1e-10 * b


def test_density_rejects_bad_input(body_c):
    with pytest.raises(bh.NotSimple):
        bh.bh_density_2(body_c, bh.Bivector([1, 0, 0, 0, 0, 1], 4))
    with pytest.raises(bh.ZeroBivector):
        bh.bh_density_2(body_c, bh.Bivector(np.zeros(6), 4))


def test_bh_area_examples(body_c, ball4):
    pl = bh.random_plane(4, 4)
    assert abs(bh.bh_area(ball4, pl, 2.5) - 2.5) < 1e-5
    assert abs(bh.bh_area(body_c, bh.w0_plane(4), W0_AREA) - math.pi) < 1e-12
    assert abs(bh.bh_area(body_c, bh.named_plane(9), 1.0) - math.pi / 2.0) < 1e-12


def test_codim2_matches_exact_in_dim4(body_c):
    for i in range(10):
        gen = np.random.default_rng(100 + i)
        w = bh.wedge(gen.standard_normal(4), gen.standard_normal(4))
        w = (1.0 / w.norm) * w
        exact = bh.bh_density_2(body_c, w).value
        mc = bh.bh_density_codim2(body_c, w, 200_000, seed=i)
        assert mc.stderr is not None
        assert abs(mc.value - exact) <= 4.0 * mc.stderr


def test_codim2_euclidean_6():
    ball = bh.make_euclidean_ball(6)
    e6 = np.eye(6)
    w4 = bh.hodge_star(bh.wedge(e6[0], e6[1]))
    dv = bh.bh_density_codim2(ball, w4, 400_000, seed=7)
    assert abs(dv.value - 1.0) <= 3.0 * dv.stderr


def test_codim2_seed_reproducibility():
    body = bh.make_complex_lp(4.0, 3)
    w4 = np.zeros(15)
    w4[0] = 1.0  # e1 ^ e2 ^ e3 ^ e4, the first lex 4-subset
    a = bh.bh_density_codim2(body, w4, 300_000, seed=1)
    b = bh.bh_density_codim2(body, w4, 300_000, seed=1)
    assert a.value == b.value
    c = bh.bh_density_codim2(body, w4, 300_000, seed=2)
    assert abs(a.value - c.value) <= 3.0 * math.hypot(a.stderr, c.stderr)


def _e12_plus_e34(n):
    coords = np.zeros(n * (n - 1) // 2)
    coords[[0, 2 * n - 3]] = 1.0  # lex positions of 12 and 34
    return bh.Bivector(coords, n)


@pytest.mark.parametrize("n", [4, 6])
def test_codim2_rejects_zero_and_non_simple(body_c, n):
    # n = 4 takes a Bivector, n = 6 the coordinates of a 4-vector
    body = body_c if n == 4 else bh.make_complex_lp(2.0, 3)
    non_simple = bh.hodge_star(_e12_plus_e34(n))
    zero = bh.Bivector(np.zeros(6), 4) if n == 4 else np.zeros(15)
    with pytest.raises(bh.ZeroBivector):
        bh.bh_density_codim2(body, zero, 64, seed=0)
    with pytest.raises(bh.NotSimple):
        bh.bh_density_codim2(body, non_simple, 64, seed=0)


def test_codim2_insufficient_samples(body_c):
    # below 64 samples one of the 64 random shifts gets no point
    w = bh.wedge(np.eye(4)[0], np.eye(4)[1])
    for n_samples in (1, 5):
        with pytest.raises(bh.InsufficientSamples):
            bh.bh_density_codim2(body_c, w, n_samples, seed=0)


@pytest.mark.parametrize(
    "body, exact",
    [
        (bh.make_complex_lp(1.5, 3), (math.pi * math.gamma(1 + 2 / 1.5)) ** 2 / math.gamma(1 + 4 / 1.5)),
        (bh.make_complex_lp(3.0, 3), (math.pi * math.gamma(1 + 2 / 3.0)) ** 2 / math.gamma(1 + 4 / 3.0)),
        (bh.make_cross_polytope(6), 2.0 / 3.0),
    ],
    ids=["complex-lp-1.5", "complex-lp-3", "cross6"],
)
def test_mc_volume_unbiased_on_closed_forms(body, exact):
    # the coordinate 4-subspace cuts complex-lp(p, 3) in complex-lp(p, 2) and cross6 in cross4
    vol, se = bh.mc_section_volume(body, np.eye(6)[:, :4], 1_000_000, seed=0)
    assert abs(vol - exact) <= 4.0 * se
    if body.label.startswith("complex"):
        assert se / vol <= 3e-4


def test_mc_volume_parallel_invariance(body_c):
    # chunk partitioning is part of the contract: same seed, same answer
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    basis = q[:, :2]
    v1 = bh.mc_section_volume(body_c, basis, 300_000, seed=3)
    v2 = bh.mc_section_volume(body_c, basis, 300_000, seed=3)
    assert v1 == v2


def _direct_qmc(body, basis, n_samples, seed):
    """All points of all 64 shifts at once, their angles from np.cos and np.sin."""
    m = basis.shape[1]
    n_pts = n_samples // 64
    step = np.array([1.0 / n_pts]) if m == 2 else _R3_STEP
    u = (_philox(seed).random((64, 1, m - 1)) + np.arange(n_pts)[:, None] * step) % 1.0
    if m == 2:
        radii, turns = np.ones((64, n_pts, 1)), u
    else:
        t = 1.0 - np.abs(2.0 * u[..., :1] - 1.0)
        radii, turns = np.concatenate((np.sqrt(1.0 - t), np.sqrt(t)), axis=-1), u[..., 1:]
    pts = np.stack((radii * np.cos(2 * np.pi * turns), radii * np.sin(2 * np.pi * turns)), axis=-1)
    y = minkowski_many(body, pts.reshape(-1, m) @ basis.T) ** -m
    means = y.reshape(64, n_pts).mean(axis=1)
    return bh.alpha(m) * means.mean(), bh.alpha(m) * means.std(ddof=1) / 8.0


def test_r3_step_is_the_generalized_golden_ratio():
    g = 1.0 / _R3_STEP[0]
    assert abs(g**4 - g - 1.0) <= 4 * np.finfo(float).eps
    assert np.allclose(_R3_STEP, g ** -np.arange(1.0, 4.0), rtol=2e-16, atol=0.0)


@pytest.mark.parametrize(
    "body, m, n_samples",
    [
        (bh.make_complex_lp(1.5, 3), 4, 64 * (_MC_CHUNK + 17)),
        (bh.make_cross_polytope(6), 4, 64 * 100 + 5),
        (bh.make_rotated_cross_polytope(), 2, 64 * (_MC_CHUNK + 17)),
        (bh.make_complex_lp(3.0, 2), 2, 64 * 1000 + 63),
    ],
    ids=["complex-lp-m4-chunks", "cross6-m4-grouped", "rotated-cross4-m2-chunks",
         "complex-lp-m2-grouped"],
)
def test_mc_volume_matches_direct_trigonometry_oracle(body, m, n_samples):
    # the table-rotated chunks must give what the points computed one by one give
    basis, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((body.n, m)))
    vol, se = bh.mc_section_volume(body, basis, n_samples, seed=4)
    ref_vol, ref_se = _direct_qmc(body, basis, n_samples, seed=4)
    assert abs(vol - ref_vol) <= 1e-13 * ref_vol
    assert abs(se - ref_se) <= 1e-13 * ref_vol


# two-sided tails of Student's t with 63 degrees of freedom, the shift spread's
_T63_TAIL = {1.0: 0.32114, 3.0: 0.0038638}


def _binomial_bounds(trials, prob, tail=1e-6):
    """Counts outside [lo, hi] have probability below tail on each side."""
    pmf = [math.comb(trials, k) * prob**k * (1.0 - prob) ** (trials - k) for k in range(trials + 1)]
    cdf = np.cumsum(pmf)
    lo = int(np.searchsorted(cdf, tail))
    hi = int(np.searchsorted(cdf, 1.0 - tail))
    return lo, hi


def _check_coverage(z):
    z = np.abs(np.asarray(z))
    for level, prob in _T63_TAIL.items():
        lo, hi = _binomial_bounds(len(z), prob)
        assert lo <= np.count_nonzero(z > level) <= hi, (level, np.sort(z)[-5:])


def test_codim2_coverage_on_rotated_cross4(body_c):
    # m = 2: the shifted rectangle rule's spread against the exact 2-density
    gen = np.random.default_rng(77)
    z = []
    for i in range(300):
        w = bh.wedge(gen.standard_normal(4), gen.standard_normal(4))
        w = (1.0 / w.norm) * w
        mc = bh.bh_density_codim2(body_c, w, 64 * 500, seed=i)
        z.append((mc.value - bh.bh_density_2(body_c, w).value) / mc.stderr)
    _check_coverage(z)


@pytest.mark.parametrize(
    "body, exact",
    [
        (bh.make_complex_lp(1.5, 3), (math.pi * math.gamma(1 + 2 / 1.5)) ** 2 / math.gamma(1 + 4 / 1.5)),
        (bh.make_complex_lp(3.0, 3), (math.pi * math.gamma(1 + 2 / 3.0)) ** 2 / math.gamma(1 + 4 / 3.0)),
        (bh.make_cross_polytope(6), 2.0 / 3.0),
    ],
    ids=["complex-lp-1.5", "complex-lp-3", "cross6"],
)
def test_mc_volume_coverage_on_closed_forms(body, exact):
    # m = 4: the Kronecker rule's spread against the closed-form coordinate sections
    z = []
    for seed in range(200):
        vol, se = bh.mc_section_volume(body, np.eye(6)[:, :4], 64 * 200, seed=seed)
        z.append((vol - exact) / se)
    _check_coverage(z)


def test_mc_volume_refuses_other_dimensions():
    body = bh.make_complex_lp(2.0, 3)
    for m in (1, 3, 5):
        with pytest.raises(bh.DimensionMismatch):
            bh.mc_section_volume(body, np.eye(6)[:, :m], 64 * 10, seed=0)


def test_mc_volume_below_one_point_per_shift():
    vol, se = bh.mc_section_volume(bh.make_cross_polytope(4), np.eye(4)[:, :2], 63, seed=0)
    assert math.isnan(vol) and se == math.inf


def test_codim2_rounding_floor():
    # on a Euclidean ball every point scores 1 up to rounding, which the spread misses
    ball = bh.make_euclidean_ball(6)
    basis, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 4)))
    vol, se = bh.mc_section_volume(ball, basis, 64 * 1000, seed=1)
    assert se == TOL.mc_rounding_rel * vol
    assert abs(vol - bh.alpha(4)) <= 3.0 * se
