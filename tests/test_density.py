import math

import numpy as np
import pytest

import bhdensity as bh
from bhdensity.bodies import minkowski_many
from bhdensity.density import _MC_CHUNK
from bhdensity.geom import _philox
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


def test_codim2_insufficient_samples(body_c):
    # 5 polar samples give 1.54% relative stderr at seed 0; 1 has no sample variance
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


def test_mc_volume_matches_one_pass_reference():
    # the chunk merge must equal mean and sample variance over all draws at once
    body = bh.make_complex_lp(1.5, 3)
    basis, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 4)))
    n = 3 * _MC_CHUNK + 17
    g = np.vstack([
        _philox(4, i).standard_normal((min(_MC_CHUNK, n - i * _MC_CHUNK), 4))
        for i in range(4)
    ])
    y = (np.linalg.norm(g, axis=1) / minkowski_many(body, g @ basis.T)) ** 4
    vol, se = bh.mc_section_volume(body, basis, n, seed=4)
    assert abs(vol - bh.alpha(4) * y.mean()) <= 1e-13 * vol
    assert abs(se - bh.alpha(4) * y.std(ddof=1) / math.sqrt(n)) <= 1e-10 * se
