import math

import numpy as np
import pytest

import bhdensity as bh
import bhdensity.contraction as contraction
from bhdensity._jsonfmt import dumps
from bhdensity.geom import wedge_rows
from conftest import C1_V1V2, C2_V3V4, SQRT2, V9_GAP, W0_AREA, gram_route


def test_named_plane_examples():
    w0 = bh.named_plane(1, 0.0)
    assert np.array_equal(w0.u, [1, 0, 0, 0]) and np.array_equal(w0.v, [0, 1, 0, 0])
    v9 = bh.named_plane(9)
    s = 1.0 / SQRT2
    assert np.allclose(v9.u, [s, 0, s, 0]) and np.allclose(v9.v, [0, s, 0, -s])
    v3 = bh.named_plane(3, 0.1)
    sc = 1.0 / math.sqrt(1.01)
    assert np.allclose(v3.u, np.array([1, 0, -0.1, 0]) * sc)
    assert np.allclose(v3.v, np.array([0, 1, 0, 0.1]) * sc)


def test_named_plane_invalid():
    with pytest.raises(bh.InvalidId):
        bh.named_plane(11)
    with pytest.raises(bh.InvalidId):
        bh.named_plane(2, 0.7)
    with pytest.raises(bh.InvalidId, match="epsilon"):
        bh.named_plane(1, math.nan)


@pytest.mark.parametrize("eps", [0.5, -0.5, math.nan])
def test_lemma_lower_bound_rejects_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        bh.lemma_lower_bound("v1v2", eps)


def test_area_factor_examples():
    orth = bh.ProjectionW0()
    assert abs(bh.area_factor(orth, bh.named_plane(9)) - 0.5) < 1e-15
    assert abs(bh.area_factor(orth, bh.w0_plane(4)) - 1.0) < 1e-15
    for eps in (0.01, 0.1):
        lam = bh.area_factor(orth, bh.named_plane(1, eps))
        assert abs(lam - 1.0 / (1.0 + eps * eps)) < 1e-14


def test_area_factor_closed_form_on_v1():
    gen = np.random.default_rng(0)
    for eps in (0.01, 0.1):
        plane = bh.named_plane(1, eps)
        for _ in range(500):
            a, b, c, d = gen.uniform(-3, 3, 4)
            lam = bh.area_factor(bh.ProjectionW0(a, b, c, d), plane)
            closed = abs((1 + eps * a) * (1 + eps * d) - eps * eps * b * c) / (1 + eps * eps)
            assert abs(lam - closed) < 1e-12


def test_area_factor_gram_oracle():
    gen = np.random.default_rng(1)
    for i in range(1000):
        p = bh.ProjectionW0(*gen.uniform(-4, 4, 4))
        plane = bh.random_plane(17, 4, stream=i)
        pu, pv = p.apply(plane.u), p.apply(plane.v)
        lam = bh.area_factor(p, plane)
        assert abs(lam - gram_route(pu, pv)) < 1e-12
    # planes in R^5 and R^6 (product bodies) project through their first four coordinates
    for n in (5, 6):
        for i in range(200):
            p = bh.ProjectionW0(*gen.uniform(-4, 4, 4))
            plane = bh.random_plane(23, n, stream=i)
            pu, pv = p.apply(plane.u[:4]), p.apply(plane.v[:4])
            assert abs(bh.area_factor(p, plane) - gram_route(pu, pv)) < 1e-12


def test_area_factor_needs_dimension_four():
    ball3 = bh.make_euclidean_ball(3)
    with pytest.raises(bh.DimensionMismatch):
        bh.area_factor(bh.ProjectionW0(), bh.w0_plane(3))
    with pytest.raises(bh.DimensionMismatch):
        bh.contraction_gap(ball3, bh.ProjectionW0(), bh.w0_plane(3))


def test_contraction_gap_examples(body_c):
    orth = bh.ProjectionW0()
    gap9 = bh.contraction_gap(body_c, orth, bh.named_plane(9))
    assert abs(gap9 - V9_GAP) < 1e-12
    assert bh.contraction_gap(body_c, orth, bh.w0_plane(4)) == 0.0
    assert bh.contraction_gap(body_c, orth, bh.named_plane(1, 0.05)) < 0.0


def test_gap_sign_matches_normed_area_comparison(body_c):
    gen = np.random.default_rng(2)
    for i in range(60):
        p = bh.ProjectionW0(*gen.uniform(-1.5, 1.5, 4))
        plane = bh.random_plane(19, 4, stream=i)
        lam = bh.area_factor(p, plane)
        gap = bh.contraction_gap(body_c, p, plane)
        pre = bh.bh_area(body_c, plane, 1.0)
        img = bh.bh_area(body_c, bh.w0_plane(4), lam * 1.0)
        assert gap == pytest.approx(
            (img - pre) * bh.cross_section(body_c, plane).euclidean_area * W0_AREA / math.pi,
            rel=1e-9, abs=1e-12,
        )
        assert (gap > 0) == (img > pre)


def test_lemma_lower_bound_eps0():
    assert abs(bh.lemma_lower_bound("v1v2", 0.0) - W0_AREA) < 1e-14
    assert abs(bh.lemma_lower_bound("v3v4", 0.0) - W0_AREA) < 1e-14


def test_lemma_lower_bound_small_eps_expansion():
    val = bh.lemma_lower_bound("v1v2", 0.01)
    assert abs(val - (W0_AREA + C1_V1V2 * 1e-4)) < 1e-8


def test_lower_bound_is_exact_area(body_c):
    for eps in (0.001, 0.005, 0.01, 0.02, 0.05):
        a1 = bh.cross_section(body_c, bh.named_plane(1, eps)).euclidean_area
        assert a1 >= bh.lemma_lower_bound("v1v2", eps) - 1e-12
        a3 = bh.cross_section(body_c, bh.named_plane(3, eps)).euclidean_area
        assert a3 >= bh.lemma_lower_bound("v3v4", eps) - 1e-12


GRID = [0.002 * i for i in range(1, 11)]


def test_taylor_fit_recovers_bound_coefficients():
    a, c, resid = bh.taylor_fit(lambda e: bh.lemma_lower_bound("v1v2", e), GRID)
    assert abs(a - W0_AREA) < 1e-10
    assert abs(c - C1_V1V2) < 1e-3 * C1_V1V2
    a, c, resid = bh.taylor_fit(lambda e: bh.lemma_lower_bound("v3v4", e), GRID)
    assert abs(c - C2_V3V4) < 1e-3 * C2_V3V4


def test_taylor_fit_positive_constants_for_swap_tilts(body_c):
    def area(idx):
        return lambda e: bh.cross_section(body_c, bh.named_plane(idx, e)).euclidean_area

    _, c1, _ = bh.taylor_fit(area(5), GRID)
    _, c2, _ = bh.taylor_fit(area(7), GRID)
    assert c1 > 0.01 and c2 > 0.01
    # regression goldens: closed-form-looking values observed for these tilts
    assert abs(c1 - (136.0 * SQRT2 - 192.0)) < 1e-3 * c1
    assert abs(c2 - (272.0 * SQRT2 - 384.0)) < 1e-3 * c2


def test_taylor_fit_guards():
    with pytest.raises(bh.IllConditioned):
        bh.taylor_fit(lambda e: e * e, [0.01, 0.02, 0.03, 0.04])
    with pytest.raises(ValueError):
        bh.taylor_fit(lambda e: e, GRID)  # odd function


def test_projection_pinning_intervals(body_c):
    rep = bh.projection_pinning(body_c, 0.05)
    for combo, (lo, hi) in rep.intervals.items():
        assert lo <= 0.0 <= hi
        assert rep.widths[combo] == hi - lo
    small = bh.projection_pinning(body_c, 0.01)
    for combo in rep.widths:
        assert small.widths[combo] < rep.widths[combo]


def test_projection_pinning_width_scaling(body_c):
    wide = bh.projection_pinning(body_c, 0.05).widths
    narrow = bh.projection_pinning(body_c, 0.01).widths
    for combo in wide:
        assert wide[combo] / narrow[combo] == pytest.approx(5.0, rel=0.02)


def test_projection_pinning_euclidean(ball4):
    rep = bh.projection_pinning(ball4, 0.05)
    for lo, hi in rep.intervals.values():
        assert abs(-lo - hi) < 1e-9
        assert abs(hi - 0.05) < 1e-3  # ~eps at leading order


# sign pattern sigma of each pinning line (a, b, c, d) = (t/2) sigma and its plane pair
PIN_LINES = {
    "a+d": ((1, 0, 0, 1), 1, 2),
    "a-d": ((1, 0, 0, -1), 4, 3),
    "b+c": ((0, 1, 1, 0), 5, 6),
    "b-c": ((0, 1, -1, 0), 8, 7),
}


def pin_projection(sigma, t):
    return bh.ProjectionW0(*(0.5 * t * s for s in sigma))


def test_area_factor_is_exact_square_on_pinning_lines():
    # the first plane at t and the second at -t both have f = (1 + eps t/2)^2 / (1 + eps^2)
    for eps in (0.01, 0.0125, 0.05, 0.1):
        for t in np.linspace(-1.5 / eps, 3.0 / eps, 37):
            exact = (1.0 + eps * t / 2.0) ** 2 / (1.0 + eps * eps)
            for sigma, first, second in PIN_LINES.values():
                for idx, ti in ((first, t), (second, -t)):
                    lam = bh.area_factor(pin_projection(sigma, ti), bh.named_plane(idx, eps))
                    assert abs(lam - exact) < 1e-14


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.0125])
def test_projection_pinning_ends_are_gap_roots(body_c, ball4, eps):
    for body in (body_c, ball4):
        rep = bh.projection_pinning(body, eps)
        w0_area = bh.cross_section(body, bh.w0_plane(4)).euclidean_area
        for combo, (sigma, first, second) in PIN_LINES.items():
            lo, hi = rep.intervals[combo]
            assert lo <= hi
            for idx, sign in ((first, 1.0), (second, -1.0)):
                plane = bh.named_plane(idx, eps)
                gaps = [bh.contraction_gap(body, pin_projection(sigma, sign * t), plane, w0_area)
                        for t in (lo, hi)]
                assert min(abs(g) for g in gaps) < 1e-12


def test_projection_pinning_rate_on_rotated_cross4(body_c):
    # t* = eps (1 - c/w0) + O(eps^3) with the v1v2 tilt coefficient c
    eps = 0.0125
    _, hi = bh.projection_pinning(body_c, eps).intervals["a+d"]
    assert abs(hi / eps - (1.0 - C1_V1V2 / W0_AREA)) < 1e-3


def test_certificate_small_run_and_determinism(body_c):
    kwargs = dict(box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1)
    cert1 = bh.certify_no_contraction(body_c, **kwargs)
    cert2 = bh.certify_no_contraction(body_c, **kwargs)
    assert cert1.success
    assert (cert1.cell_values > 0.0).all()  # every cell has a positive witness
    assert dumps(cert1.to_report(deterministic=True)) == dumps(cert2.to_report(deterministic=True))
    assert abs(cert1.worst_cell["gap"] - V9_GAP) < 1e-12
    assert cert1.worst_cell["witness"] == "v9"


def test_certificate_thread_count_does_not_change_cells(body_c):
    kwargs = dict(box_halfwidth=2.0, grid_n=21, eps_set=(0.1,), extra_planes=4, seed=2)
    one = bh.certify_no_contraction(body_c, threads=1, **kwargs)
    four = bh.certify_no_contraction(body_c, threads=4, **kwargs)
    assert np.array_equal(one.cell_values, four.cell_values)
    assert np.array_equal(one.cell_witness, four.cell_witness)
    assert np.array_equal(one.cell_bounds, four.cell_bounds)
    assert one.box == four.box and one.worst_cell == four.worst_cell


def test_certificate_euclidean_control_fails(ball4):
    with pytest.raises(bh.CertificateFailed) as err:
        bh.certify_no_contraction(
            ball4, box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1
        )
    assert err.value.point == (0.0, 0.0, 0.0, 0.0)
    assert max(err.value.gaps.values()) <= 1e-12


def test_certificate_product_reduction(body_c):
    prod = bh.make_product(body_c, 1)
    cert = bh.certify_no_contraction(
        prod, box_halfwidth=2.0, grid_n=21, eps_set=(0.1,), extra_planes=4, seed=0
    )
    assert cert.success
    assert cert.body == prod.label
    assert abs(cert.worst_cell["gap"] - V9_GAP) < 1e-12


def test_certificate_parameter_validation(body_c):
    with pytest.raises(ValueError):
        bh.certify_no_contraction(body_c, box_halfwidth=1.0)
    with pytest.raises(ValueError):
        bh.certify_no_contraction(body_c, grid_n=5)
    with pytest.raises(ValueError):
        bh.certify_no_contraction(body_c, eps_set=(0.3,))
    with pytest.raises(ValueError):
        bh.certify_no_contraction(body_c, gap_threshold=float("nan"))
    for box in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="box halfwidth"):
            bh.certify_no_contraction(body_c, box_halfwidth=box)
    with pytest.raises(ValueError, match="extra_planes"):
        bh.certify_no_contraction(body_c, extra_planes=-3)


def test_scan_grid_witness_beyond_int16():
    # 32,769 copies of w0 with growing areas: the last plane is every cell's witness
    n_planes = 32_769
    U = np.tile([1.0, 0.0, 0.0, 0.0], (n_planes, 1))
    V = np.tile([0.0, 1.0, 0.0, 0.0], (n_planes, 1))
    areas = np.arange(1.0, n_planes + 1.0)
    axes = np.array([-1.0, 1.0])
    P = wedge_rows(U, V)
    best, witness, bounds = contraction._scan_grid(axes, P, areas, 0.5, threads=1)
    assert np.all(witness == n_planes - 1)
    assert best.shape == (2, 2, 2, 2) and bounds.shape == (1, 1, 1, 1)


def test_scan_grid_matches_brute_force_with_duplicate_plane():
    # plane 3 repeats plane 0 exactly, so every cell either plane wins ties at index 0
    planes = [
        bh.named_plane(9),
        bh.named_plane(1, 0.1),
        bh.random_plane(3, 4, stream=0),
        bh.named_plane(9),
        bh.random_plane(3, 4, stream=1),
    ]
    areas = np.array([1.3, 1.0, 0.9, 1.3, 1.1])
    U = np.array([pl.u for pl in planes])
    V = np.array([pl.v for pl in planes])
    axes = np.linspace(-1.5, 1.5, 5)
    w0_area = 1.2
    P = wedge_rows(U, V)
    best, witness, bounds = contraction._scan_grid(axes, P, areas, w0_area, threads=2)
    for idx in np.ndindex(best.shape):
        p = bh.ProjectionW0(*axes[list(idx)])
        gaps = [bh.area_factor(p, pl) * ar - w0_area for pl, ar in zip(planes, areas)]
        top = max(gaps)
        first = next(i for i, g in enumerate(gaps) if g >= top - contraction._WITNESS_TIE)
        assert best[idx] == top
        assert witness[idx] == first
    assert np.any(witness == 0)
    assert not np.any(witness == 3)
    # each cell bound is the best plane's least corner |f|, from planes whose corners agree in sign
    for cell in np.ndindex(bounds.shape):
        corners = [axes[[i + k for i, k in zip(cell, bits)]] for bits in np.ndindex(2, 2, 2, 2)]
        per_plane = []
        for row, ar in zip(P, areas):
            f = np.array([contraction._signed_factors(*pt, row) for pt in corners])
            same_sign = (f > 0).all() or (f < 0).all()
            per_plane.append(ar * np.abs(f).min() - w0_area if same_sign else -w0_area)
        assert bounds[cell] == max(per_plane)


def test_plucker_factor_matches_projected_wedge():
    gen = np.random.default_rng(3)
    for i in range(500):
        a, b, c, d = gen.uniform(-4, 4, 4)
        plane = bh.random_plane(29, 4, stream=i)
        pu, pv = bh.ProjectionW0(a, b, c, d).apply(plane.u), bh.ProjectionW0(a, b, c, d).apply(plane.v)
        f = contraction._signed_factors(a, b, c, d, wedge_rows(plane.u, plane.v))
        assert abs(f - (pu[0] * pv[1] - pu[1] * pv[0])) < 1e-12


def _coordinate_plane_table(i, j):
    """Plucker row of span(e_i, e_j): its signed factor is one parameter (or minus it)."""
    eye = np.eye(4)
    return wedge_rows(eye[i], eye[j])[None, :]


def test_cell_bound_drops_plane_whose_factor_changes_sign():
    # span(e2, e3) has f = -a: |f| = 1 at every corner of [-1, 1]^4, but f = 0 at a = 0
    P = _coordinate_plane_table(1, 2)
    areas = np.array([10.0])
    _, _, bounds = contraction._scan_grid(np.array([-1.0, 1.0]), P, areas, 1.0, threads=1)
    assert bounds[0, 0, 0, 0] == -1.0
    lower, _, corner_best = contraction._cell_bounds(
        np.full((1, 4), -1.0), np.full((1, 4), 1.0), P, areas, 1.0)
    assert lower[0, 0] == -1.0 and corner_best.min() == 9.0
    # on a cell with a in [0.5, 1] the corners agree and the least |f| is 0.5
    lower, _, _ = contraction._cell_bounds(
        np.array([[0.5, -1.0, -1.0, -1.0]]), np.array([[1.0, 1.0, 1.0, 1.0]]), P, areas, 1.0)
    assert lower[0, 0] == 4.0


def test_bisection_budget_and_float_resolution_stop():
    # f = -a does not depend on b, c, d: the cells straddling a = 0 never clear a threshold
    # just above -w0_area, and every split leaves 8 of them open
    P = _coordinate_plane_table(1, 2)
    areas = np.array([1.0])
    lo, hi = np.array([[-1.0, 0.0, 0.0, 0.0]]), np.array([[2.0, 1.0, 1.0, 1.0]])
    with pytest.raises(bh.CertificateFailed) as err:
        contraction._bisect(lo, hi, np.array([-1.0]), P, areas, 1.0, -1.0 + 1e-9, 0.0, 4096)
    assert "budget of 4096 cells" in err.value.reason
    tiny_hi = np.array([[np.nextafter(-1.0, 0.0), 1.0, 1.0, 1.0]])
    with pytest.raises(bh.CertificateFailed) as err:
        contraction._bisect(lo, tiny_hi, np.array([-1.0]), P, areas, 1.0, 1.0, 0.0, 4096)
    assert err.value.reason == "bisection reached float resolution"


def test_verified_cells_bound_sampled_family_gaps(body_c):
    kwargs = dict(box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1)
    cert = bh.certify_no_contraction(body_c, **kwargs)
    labels, planes = contraction._build_family(body_c, (0.05, 0.1), 8, 1)
    assert labels == cert.family_labels
    axes = np.linspace(-2.0, 2.0, 21)
    gen = np.random.default_rng(11)
    bounds = cert.cell_bounds.ravel()
    verified = np.flatnonzero(bounds > cert.gap_threshold)
    lowest = verified[np.argsort(bounds[verified], kind="stable")[:60]]
    cells = np.concatenate([lowest, gen.choice(verified, 60, replace=False)])

    def family_max(point):
        p = bh.ProjectionW0(*point)
        return max(bh.area_factor(p, pl) * ar - cert.w0_area for pl, ar in zip(planes, cert.plane_areas))

    for flat in cells:
        idx = np.array(np.unravel_index(flat, cert.cell_bounds.shape))
        for _ in range(3):
            point = axes[idx] + gen.uniform(0.0, 1.0, 4) * (axes[idx + 1] - axes[idx])
            assert family_max(point) >= bounds[flat]
    # the least verified cell comes from the bisection around the grid minimum
    worst = cert.worst_cell
    assert cert.global_min_max_gap == worst["refined_gap"] > cert.gap_threshold
    assert worst["refined_halfwidth"] < 0.1 and cert.refined_count > 0
    for _ in range(100):
        point = np.array(worst["refined_point"]) + gen.uniform(-1, 1, 4) * worst["refined_halfwidth"]
        assert family_max(point) >= worst["refined_gap"]


def test_certificate_reports_box_and_exterior_guarantees(body_c):
    cert = bh.certify_no_contraction(
        body_c, box_halfwidth=2.0, grid_n=21, eps_set=(0.1,), extra_planes=4, seed=0
    )
    box, ext = cert.box, cert.exterior
    assert box["guarantee"] == "verified" and ext["guarantee"] == "verified"
    assert box["cells_per_level"][0] == 20**4
    assert sum(box["cells_per_level"][1:]) == cert.refined_count
    assert 0.0 < box["allowance"] < 1e-11
    assert ext["R"] == 2.0
    assert ext["areas"]["a"] == pytest.approx(W0_AREA, abs=1e-12)
    assert ext["areas"]["b"] == pytest.approx(SQRT2, abs=1e-12)
    assert ext["bound"] == min(ext["areas"].values()) * 2.0 - cert.w0_area - box["allowance"]
    report = cert.to_report(deterministic=True)
    assert report["box"] == box and report["exterior"] == ext
    # no point is lifted past the grid: the worst cell's local gap is its grid gap, bitwise
    assert report["lifted"] == []
    worst = report["worst_cell"]
    assert np.float64(worst["local_gap"]).tobytes() == np.float64(worst["gap"]).tobytes()


def test_perturbed_body_worst_witness_is_a_family_plane():
    # rotated-cross4 with its functionals perturbed by 0.03 N(0, 1), the second draw of
    # default_rng(1): the worst grid point is reported with its family witness and grid gap
    draws = np.random.default_rng(1).standard_normal((2, 4, 4))
    body = bh.AbsSumBody(bh.rotation_matrix().T + 0.03 * draws[1])
    cert = bh.certify_no_contraction(body, grid_n=21, threads=2)
    report = cert.to_report(deterministic=True)
    worst = report["worst_cell"]
    assert report["success"] and report["lifted"] == []
    assert worst["witness"] in report["family_labels"] and not worst["witness"].startswith("optimized(")
    assert worst["local_gap"] == worst["gap"] == report["grid_min"]["gap"] > 1e-3


def _small_family():
    planes = [bh.named_plane(9), bh.named_plane(1, 0.1), bh.w0_plane(4),
              bh.random_plane(3, 4, stream=0), bh.random_plane(3, 4, stream=1)]
    U = np.array([pl.u for pl in planes])
    V = np.array([pl.v for pl in planes])
    return wedge_rows(U, V), np.array([1.3, 1.0, 0.97, 0.9, 1.1])


@pytest.mark.parametrize("block", [1 << 16, 125], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("threads", [1, 2])
def test_grid_passes_match_corner_kernel_bitwise(block, threads, monkeypatch):
    # the grid passes add tables of G and a H; every point and cell must carry the bits of
    # _signed_factors at its corners, before any allowance is subtracted
    monkeypatch.setattr(contraction, "_BLOCK", block)
    P, areas = _small_family()
    axes, w0_area = np.linspace(-4.0, 4.0, 5), 1.2
    best = contraction._scan_points(axes, P, areas, w0_area, threads)
    for idx in np.ndindex(best.shape):
        gaps = np.abs(contraction._signed_factors(*axes[list(idx)], P.T)) * areas - w0_area
        assert best[idx] == gaps.max()
    bounds = contraction._scan_cells(axes, P, areas, w0_area, threads)
    idx = np.array(list(np.ndindex(bounds.shape)))
    lower, _, _ = contraction._cell_bounds(axes[idx], axes[idx + 1], P, areas, w0_area)
    assert np.array_equal(lower.max(axis=1), bounds[tuple(idx.T)])


def test_euclidean_control_fails_before_witness_and_cells_passes(ball4, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("pass ran after a failing grid minimum")

    monkeypatch.setattr(contraction, "_scan_witnesses", must_not_run)
    monkeypatch.setattr(contraction, "_scan_cells", must_not_run)
    with pytest.raises(bh.CertificateFailed) as err:
        bh.certify_no_contraction(
            ball4, box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1
        )
    assert err.value.point == (0.0, 0.0, 0.0, 0.0)
    assert err.value.reason == "grid minimum"
    assert max(err.value.gaps.values()) <= 1e-12


def test_negative_thread_count_is_refused(body_c):
    with pytest.raises(ValueError, match="threads must be >= 0"):
        bh.certify_no_contraction(body_c, threads=-1)
