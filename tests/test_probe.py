import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import bhdensity as bh
from bhdensity import geom, probe
from bhdensity.density import DensityValue
from bhdensity.geom import _philox
from conftest import per_trial_draw, per_trial_phi_dim4, random_abs_sum_body


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


def _triple_bits(triple):
    return [b.coords.tobytes() for b in triple]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_draw_matches_per_trial_draw(seed):
    for n in (4, 6):
        uvt, triples = probe._shared_line_rows(seed, n, range(2000))
        for i in range(2000):
            vecs, triple = per_trial_draw(seed, n, i)
            assert np.stack(vecs).tobytes() == uvt[i].tobytes()
            assert _triple_bits(triple) == [c.tobytes() for c in triples[i]]


class _DegenerateFirstDraw:
    """A stream whose first 3n normals have v = 0, followed by the real stream."""

    def __init__(self, gen, n):
        first = gen.standard_normal(3 * n)
        first[n : 2 * n] = 0.0
        self.pending = first
        self.gen = gen

    def standard_normal(self, size=None, out=None):
        size = size if out is None else out.size
        take, self.pending = self.pending[:size], self.pending[size:]
        draw = np.concatenate((take, self.gen.standard_normal(size - take.size)))
        if out is None:
            return draw
        out[...] = draw
        return out


def test_batched_draw_redraws_degenerate_stream(monkeypatch):
    # the oracle's loop and the kernel both read the patched stream 5; the
    # kernel's keyed streams are replaced by freshly built patched ones
    for n in (4, 6):
        def philox(seed, stream=None):
            gen = _philox(seed, stream)
            return _DegenerateFirstDraw(gen, n) if stream == 5 else gen

        monkeypatch.setattr(geom, "_philox_streams", lambda seed: partial(philox, seed))
        monkeypatch.setattr(geom, "_philox", philox)
        uvt, triples = probe._shared_line_rows(3, n, range(10))
        vecs, triple = per_trial_draw(3, n, 5)
        second = _philox(3, 5).standard_normal(6 * n)[3 * n :].reshape(3, n)
        assert np.array_equal(np.stack(vecs), second)
        assert uvt[5].tobytes() == second.tobytes()
        assert _triple_bits(triple) == [c.tobytes() for c in triples[5]]
        assert _triple_bits(probe.shared_line_decomposition(3, n, 5)) == _triple_bits(triple)
        for i in (4, 6):
            assert uvt[i].tobytes() == _philox(3, i).standard_normal(3 * n).tobytes()


@pytest.mark.parametrize(
    "make_body, trials",
    [
        (bh.make_rotated_cross_polytope, 2000),
        (lambda: bh.make_cross_polytope(4), 2000),
        (lambda: random_abs_sum_body(3), 2000),
        (lambda: random_abs_sum_body(17), 2000),
        (lambda: bh.make_euclidean_ball(4), 200),
        (lambda: bh.make_complex_lp(3.0, 2), 200),
    ],
    ids=["rotated-cross4", "cross4", "random-abs-sum-3", "random-abs-sum-17", "euclid-4",
         "complex-lp-3-2"],
)
def test_batched_scan_matches_per_trial_oracle(make_body, trials):
    body = make_body()
    seed = 1
    triples, ref_phis, ref_bands = per_trial_phi_dim4(body, seed, trials)
    phis, bands, drawn = probe._phi_dim4(body, seed, 0, trials)
    assert np.all(np.abs(phis - ref_phis) <= 1e-14 * np.abs(ref_phis))
    assert np.array_equal(bands, ref_bands)
    assert [c.tobytes() for row in drawn for c in row] == [
        b for triple in triples for b in _triple_bits(triple)
    ]
    ref_slacks = ref_phis[:, 1] + ref_phis[:, 2] - ref_phis[:, 0]
    worst = int(np.argmin(ref_slacks))
    assert int(np.argmin(phis[:, 1] + phis[:, 2] - phis[:, 0])) == worst
    rep = bh.semi_ellipticity_scan(body, trials, seed=seed)
    assert rep.violations == int(np.count_nonzero(ref_slacks < -ref_bands))
    t = rep.worst_trial
    assert _triple_bits((t.w, t.w1, t.w2)) == _triple_bits(triples[worst])


def _report_bits(rep):
    t = rep.worst_trial
    return (rep.trials, rep.min_slack.hex(), rep.violations, t.phi.hex(), t.phi1.hex(),
            t.phi2.hex(), _triple_bits((t.w, t.w1, t.w2)))


def test_concurrent_scans_match_single_threaded_reports(body_c):
    # each scan keys its own bit generator, so threads share no draw state;
    # a short switch interval interleaves their re-keying and drawing
    def scan(seed):
        rep = bh.semi_ellipticity_scan(body_c, 3000, seed=seed)
        return _report_bits(rep), probe._shared_line_rows(seed, 4, range(3000))[0].tobytes()

    seeds = (0, 1)
    alone = [scan(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(scan, seed) for seed in seeds * 2]
            together = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == alone * 2


def test_scan_chunks_merge_to_single_chunk_report(body_c, monkeypatch):
    # at seed 0 the worst of 100 trials is trial 88, inside the 13th chunk of 7
    single = bh.semi_ellipticity_scan(body_c, 100, seed=0)
    monkeypatch.setattr(probe, "_CHUNK", 7)
    chunked = bh.semi_ellipticity_scan(body_c, 100, seed=0)
    assert _report_bits(chunked) == _report_bits(single)
    assert _triple_bits((single.worst_trial.w,)) == _triple_bits(
        (bh.shared_line_decomposition(0, 4, stream=88)[0],)
    )


def test_dim6_worst_trial_is_its_decomposition(monkeypatch):
    # the Euclidean norm of the tested 4-vector stands in for the Monte Carlo
    # density, so the worst trial is known; chunks of 7 put it past the first
    def norm_density(body, m, mc_samples, seed):
        value = float(np.linalg.norm(m))
        return DensityValue(value, body.label, value, 0.0)

    monkeypatch.setattr(probe, "bh_density_codim2", norm_density)
    monkeypatch.setattr(probe, "_CHUNK", 7)
    seed, trials = 3, 40
    rep = bh.semi_ellipticity_scan(bh.make_complex_lp(3.0, 3), trials, seed=seed, mc_samples=100)
    slacks = []
    for i in range(trials):
        phi = [np.linalg.norm(bh.hodge_star(b)) for b in per_trial_draw(seed, 6, i)[1]]
        slacks.append(phi[1] + phi[2] - phi[0])
    worst = int(np.argmin(slacks))
    assert worst >= 7 and rep.min_slack == slacks[worst]
    t = rep.worst_trial
    assert _triple_bits((t.w, t.w1, t.w2)) == _triple_bits(
        bh.shared_line_decomposition(seed, 6, stream=worst)
    )


def test_scan_rejects_seed_out_of_range(body_c):
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
            bh.semi_ellipticity_scan(body_c, 10, seed=seed)
    with pytest.raises(ValueError, match=f"seed {2**44} is too large"):
        bh.semi_ellipticity_scan(bh.make_complex_lp(3.0, 3), 1, seed=2**44, mc_samples=100)
