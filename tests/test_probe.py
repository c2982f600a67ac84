import math

import numpy as np
import pytest

import bhdensity as bh
from conftest import random_abs_sum_body


def test_shared_line_construction_is_simple():
    e = np.eye(4)
    w1 = bh.wedge(e[0], e[1])
    w2 = bh.wedge(e[0], e[2])
    w = w1 + w2
    assert np.allclose(w.coords, bh.wedge(e[0], e[1] + e[2]).coords)
    assert abs(bh.plucker_defect(w)) < 1e-15


def test_generator_soundness():
    for n in (4, 6):
        for i in range(300):
            w, w1, w2 = bh.shared_line_decomposition(3, n, stream=i)
            assert np.array_equal(w.coords, (w1 + w2).coords)  # exact by construction
            scale = max(w.norm, 1.0)
            assert abs(bh.plucker_defect(w1)) < 1e-12 * scale**2
            assert abs(bh.plucker_defect(w2)) < 1e-12 * scale**2
            assert abs(bh.plucker_defect(w)) < 1e-12 * scale**2


def test_generator_determinism():
    a = bh.shared_line_decomposition(9, 4, stream=5)
    b = bh.shared_line_decomposition(9, 4, stream=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.coords, y.coords)


def test_scan_euclidean_slack_is_norm_slack(ball4):
    rep = bh.semi_ellipticity_scan(ball4, 200, seed=4)
    assert rep.min_slack >= -1e-10
    # euclidean density is the bivector norm, so slack = |w1| + |w2| - |w1 + w2|
    for i in range(50):
        w, w1, w2 = bh.shared_line_decomposition(4, 4, stream=i)
        triple = [bh.bh_density_2(ball4, x).value for x in (w, w1, w2)]
        norm_slack = w1.norm + w2.norm - w.norm
        assert abs((triple[1] + triple[2] - triple[0]) - norm_slack) < 1e-5


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_scan_smooth_worst_trial_is_density(p):
    # the scan's planes come from the draws; the densities are bh_density_2's
    body = bh.make_complex_lp(p, 2)
    rep = bh.semi_ellipticity_scan(body, 300, seed=0)
    t = rep.worst_trial
    for phi, w in ((t.phi, t.w), (t.phi1, t.w1), (t.phi2, t.w2)):
        ref = bh.bh_density_2(body, w).value
        assert abs(phi - ref) <= 1e-9 * ref
    assert rep.min_slack == t.slack


def test_scan_rejects_zero_mc_samples(body_c):
    for body in (body_c, bh.make_complex_lp(2.0, 3)):
        with pytest.raises(ValueError, match="mc_samples must be >= 1"):
            bh.semi_ellipticity_scan(body, 1, mc_samples=0)


def test_scan_rotated_body_no_violation(body_c):
    rep = bh.semi_ellipticity_scan(body_c, 2000, seed=0)
    assert rep.violations == 0
    assert rep.min_slack >= -1e-8
    assert rep.worst_trial.slack == rep.min_slack


def test_scan_slack_scale_invariance(body_c):
    w, w1, w2 = bh.shared_line_decomposition(11, 4, stream=2)
    base = [bh.bh_density_2(body_c, x).value for x in (w, w1, w2)]
    scaled = [bh.bh_density_2(body_c, 7.0 * x).value for x in (w, w1, w2)]
    for b, s in zip(base, scaled):
        assert abs(s - 7.0 * b) < 1e-9 * s
    slack_sign = math.copysign(1.0, base[1] + base[2] - base[0])
    scaled_sign = math.copysign(1.0, scaled[1] + scaled[2] - scaled[0])
    assert slack_sign == scaled_sign


def test_scan_random_bodies(body_c):
    body = random_abs_sum_body(17)
    rep = bh.semi_ellipticity_scan(body, 2000, seed=5)
    assert rep.violations == 0 and rep.min_slack >= -1e-8


def test_scan_complex_small():
    body = bh.make_complex_lp(3.0, 3)
    rep = bh.semi_ellipticity_scan(body, 5, seed=0, mc_samples=200_000)
    assert rep.trials == 5
    assert rep.violations == 0
    assert rep.mc_samples == 200_000


def test_scan_rejects_bad_dimension():
    with pytest.raises(bh.DimensionMismatch):
        bh.semi_ellipticity_scan(bh.make_euclidean_ball(5), 10, seed=0)
