import math

import numpy as np
import pytest

import bhdensity as bh
import bhdensity.contraction as contraction
from bhdensity._jsonfmt import dumps
from bhdensity.geom import wedge_rows
from conftest import C1_V1V2, C2_V3V4, SQRT2, V9_GAP, W0_AREA, gram_route, random_abs_sum_body


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
    for index in (0, 1.5, 11):
        with pytest.raises(bh.InvalidId, match="plane index"):
            bh.named_plane(index, 0.1)
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
        for combo, (sigma, first, second) in PIN_LINES.items():
            lo, hi = rep.intervals[combo]
            assert lo <= hi
            for idx, sign in ((first, 1.0), (second, -1.0)):
                plane = bh.named_plane(idx, eps)
                gaps = [bh.contraction_gap(body, pin_projection(sigma, sign * t), plane)
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
    assert cert1.worst_cell["gap"] > 0.0  # the least best gap over the grid points
    assert dumps(cert1.to_report(deterministic=True)) == dumps(cert2.to_report(deterministic=True))
    assert abs(cert1.worst_cell["gap"] - V9_GAP) < 1e-12
    assert cert1.worst_cell["witness"] == "v9"


def test_grid_minimum_witness_matches_brute_force(body_c):
    # the first family plane within _WITNESS_TIE of the best gap at the grid minimum
    cert = bh.certify_no_contraction(
        body_c, box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1
    )
    _, planes = contraction._build_family(body_c, (0.05, 0.1), 8, 1)
    p = bh.ProjectionW0(*cert.worst_cell["point"])
    gaps = [bh.area_factor(p, pl) * ar - cert.w0_area for pl, ar in zip(planes, cert.plane_areas)]
    top = max(gaps)
    first = next(i for i, g in enumerate(gaps) if g >= top - contraction._WITNESS_TIE)
    assert cert.worst_cell["witness"] == cert.family_labels[first]


def test_witness_counts_cover_the_root_cells_that_clear(body_c):
    cert = bh.certify_no_contraction(
        body_c, box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1
    )
    n = len(cert.cell_bounds)
    assert sum(cert.witness_counts.values()) == n
    assert set(cert.witness_counts) <= set(cert.family_labels)
    assert cert.cell_witness.shape == cert.cell_bounds.shape == (n,)
    assert cert.cell_lo.shape == cert.cell_hi.shape == (n, 4)


@pytest.mark.parametrize("kwargs", [
    {}, dict(box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1),
], ids=["defaults", "box2-grid21"])
def test_verified_cells_tile_the_box(body_c, kwargs):
    cert = bh.certify_no_contraction(body_c, **kwargs)
    lo, hi, R = cert.cell_lo, cert.cell_hi, cert.box_halfwidth
    assert (lo >= -R).all() and (hi <= R).all() and (lo < hi).all()
    # the cells are dyadic, so their volumes and the sum of them are exact in floats
    assert np.prod(hi - lo, axis=1).sum() == (2.0 * R) ** 4
    for n in range(len(lo)):
        overlaps = ((lo[n] < hi) & (lo < hi[n])).all(axis=1)
        assert np.flatnonzero(overlaps).tolist() == [n]
    assert (cert.cell_bounds > cert.gap_threshold).all()
    assert cert.global_min_max_gap == cert.cell_bounds.min()


def test_grid_size_does_not_move_the_verified_partition(body_c):
    # the points grid sizes only the grid minimum and the bisection budget; a 129^4 grid
    # is searched by branch and bound, with no table over its points
    kwargs = dict(box_halfwidth=4.0, eps_set=(0.02, 0.05, 0.1), extra_planes=64)
    g21, g33, g129 = (bh.certify_no_contraction(body_c, grid_n=g, **kwargs) for g in (21, 33, 129))
    assert g21.grid_n == 21 and g33.grid_n == 33 and g129.grid_n == 129
    for cert in (g33, g129):
        assert g21.box == cert.box and g21.witness_counts == cert.witness_counts
        assert g21.global_min_max_gap == cert.global_min_max_gap
        for key in ("refined_point", "refined_halfwidth", "refined_gap", "refined_witness"):
            assert g21.worst_cell[key] == cert.worst_cell[key]


def test_certificate_thread_count_does_not_change_cells(body_c):
    # threads is accepted and ignored: unset, 1 and 4 give the same report, bitwise
    kwargs = dict(box_halfwidth=2.0, grid_n=21, eps_set=(0.1,), extra_planes=4, seed=2)
    unset, one, four = (bh.certify_no_contraction(body_c, **kwargs, **threads)
                        for threads in ({}, dict(threads=1), dict(threads=4)))
    for cert in (one, four):
        assert np.array_equal(unset.cell_witness, cert.cell_witness)
        assert np.array_equal(unset.cell_bounds, cert.cell_bounds)
        assert unset.box == cert.box and unset.worst_cell == cert.worst_cell
        assert dumps(unset.to_report(deterministic=True)) == dumps(cert.to_report(deterministic=True))


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
    with pytest.raises(ValueError, match="repeat"):
        bh.certify_no_contraction(body_c, eps_set=(0.05, 0.1, 0.05))


def test_family_labels_keep_close_eps_apart(body_c):
    # 0.1 and 0.1000001 agree to 6 significant digits: each tilt keeps its own label, so
    # witness_counts counts every verified cell once
    cert = bh.certify_no_contraction(body_c, grid_n=21, eps_set=(0.02, 0.1, 0.1000001),
                                     extra_planes=0)
    assert len(set(cert.family_labels)) == len(cert.family_labels)
    assert "v1:0.1" in cert.family_labels and "v1:0.1000001" in cert.family_labels
    assert sum(cert.witness_counts.values()) == cert.cell_witness.size


@pytest.mark.parametrize("box", [1e154, 1e200])
def test_box_overflowing_the_allowance_is_refused(body_c, box):
    with pytest.raises(ValueError, match="box halfwidth"):
        bh.certify_no_contraction(body_c, box_halfwidth=box, grid_n=21, extra_planes=0)


def test_scan_grid_witness_beyond_int16():
    # 32,769 copies of w0 with growing areas: the last plane is every cell's witness
    n_planes = 32_769
    U = np.tile([1.0, 0.0, 0.0, 0.0], (n_planes, 1))
    V = np.tile([0.0, 1.0, 0.0, 0.0], (n_planes, 1))
    areas = np.arange(1.0, n_planes + 1.0)
    axes = np.array([-1.0, 1.0])
    P = wedge_rows(U, V)
    best = _full_grid_best(axes, P, areas, 0.5)
    counts, (_, _, _, witness) = contraction._bisect(
        np.full((1, 4), -1.0), np.full((1, 4), 1.0), P, areas, 0.5, 0.0, 0.0, 1)
    assert counts == [1] and witness.tolist() == [n_planes - 1]
    assert best.shape == (2, 2, 2, 2)
    assert contraction._grid_minimum(axes, P, areas, 0.5, 0.0) == _full_grid_minimum(
        axes, P, areas, 0.5)


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
    best = _full_grid_best(axes, P, areas, w0_area)
    for idx in np.ndindex(best.shape):
        p = bh.ProjectionW0(*axes[list(idx)])
        gaps = [bh.area_factor(p, pl) * ar - w0_area for pl, ar in zip(planes, areas)]
        assert best[idx] == max(gaps)
    # each cell bound is the best plane's least corner |f|, from planes whose corners agree in
    # sign, less w0_area; the witness is the first plane with the largest such value
    cells = np.array(list(np.ndindex(4, 4, 4, 4)))
    lower, _ = contraction._lattice_bounds(np.stack((axes[cells], axes[cells + 1]), axis=-1),
                                           P, areas, w0_area)
    bounds, witness = lower.max(axis=1), lower.argmax(axis=1)
    for n, cell in enumerate(cells):
        corners = [axes[[i + k for i, k in zip(cell, bits)]] for bits in np.ndindex(2, 2, 2, 2)]
        per_plane = []
        for row, ar in zip(P, areas):
            f = np.array([contraction._signed_factors(*pt, row) for pt in corners])
            same_sign = (f > 0).all() or (f < 0).all()
            per_plane.append((ar * np.abs(f).min() if same_sign else 0.0) - w0_area)
        assert bounds[n] == max(per_plane)
        assert witness[n] == per_plane.index(max(per_plane))
    assert np.any(witness == 0)
    assert not np.any(witness == 3)


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
    lower, corner_best = contraction._lattice_bounds(np.array([[[-1.0, 1.0]] * 4]), P, areas, 1.0)
    assert lower[0, 0] == -1.0 and corner_best.min() == 9.0
    # on a cell with a in [0.5, 1] the corners agree and the least |f| is 0.5
    lower, _ = contraction._lattice_bounds(
        np.array([[[0.5, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]]), P, areas, 1.0)
    assert lower[0, 0] == 4.0


def test_bisection_budget_and_float_resolution_stop():
    # f = -a does not depend on b, c, d: the cells straddling a = 0 never clear a threshold
    # just above -w0_area, and every split leaves 8 of them open
    P = _coordinate_plane_table(1, 2)
    areas = np.array([1.0])
    lo, hi = np.array([[-1.0, 0.0, 0.0, 0.0]]), np.array([[2.0, 1.0, 1.0, 1.0]])
    with pytest.raises(bh.CertificateFailed) as err:
        contraction._bisect(lo, hi, P, areas, 1.0, -1.0 + 1e-9, 0.0, 4096)
    assert "budget of 4096 cells" in err.value.reason
    # the same open cell one float wide in b: its corners clear, so the stop comes at its split
    tiny_hi = np.array([[2.0, np.nextafter(0.0, 1.0), 1.0, 1.0]])
    with pytest.raises(bh.CertificateFailed) as err:
        contraction._bisect(lo, tiny_hi, P, areas, 1.0, -1.0 + 1e-9, 0.0, 4096)
    assert err.value.reason == "bisection reached float resolution"


def _reference_bisect(lo, hi, P, areas, w0_area, threshold, allowance, budget):
    """`_bisect` with each cell's 16 corners evaluated on their own, in chunks of cells."""
    bits = np.array(list(np.ndindex(2, 2, 2, 2)), dtype=bool)
    counts, verified_cells = [], []
    while True:
        bounds, witness, failed = [], [], None
        for s in range(0, lo.shape[0], 256):
            corners = np.where(bits, hi[s:s + 256, None, :], lo[s:s + 256, None, :])
            f = contraction._signed_factors(*np.moveaxis(corners, -1, 0)[..., None], P.T)
            f_min, f_max = f.min(axis=1), f.max(axis=1)
            lower = areas * np.maximum(np.maximum(f_min, -f_max), 0.0) - w0_area
            corner_best = (np.abs(f) * areas - w0_area).max(axis=2)
            c, k = np.unravel_index(int(np.argmin(corner_best)), corner_best.shape)
            if corner_best[c, k] <= threshold and (failed is None or corner_best[c, k] < failed[1]):
                failed = corners[c, k], corner_best[c, k]
            bounds.append(lower.max(axis=1) - allowance)
            witness.append(lower.argmax(axis=1))
        if failed is not None:
            raise bh.CertificateFailed(*failed, reason="bisection corner")
        bounds, witness = np.concatenate(bounds), np.concatenate(witness)
        counts.append(int(lo.shape[0]))
        verified = bounds > threshold
        verified_cells.append((lo[verified], hi[verified], bounds[verified], witness[verified]))
        lo, hi, bounds = lo[~verified], hi[~verified], bounds[~verified]
        if not lo.shape[0]:
            return counts, [np.concatenate(part) for part in zip(*verified_cells)]
        worst = int(np.argmin(bounds))
        centre, mid = 0.5 * (lo[worst] + hi[worst]), 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise bh.CertificateFailed(centre, bounds[worst],
                                       reason="bisection reached float resolution")
        if sum(counts) + 16 * lo.shape[0] > budget:
            raise bh.CertificateFailed(centre, bounds[worst], reason=(
                f"bisection budget of {budget} cells exhausted with {lo.shape[0]} cells open"))
        lo, hi = (np.where(bits, mid[:, None], lo[:, None]).reshape(-1, 4),
                  np.where(bits, hi[:, None], mid[:, None]).reshape(-1, 4))


@pytest.mark.parametrize("threshold", [1e-3, 0.01])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_lattice_bisection_matches_per_cell_corners(body_c, seed, threshold):
    P, areas, w0_area = _family_tables(body_c, (0.02, 0.05, 0.1), 64, seed)
    allowance = 64.0 * np.finfo(float).eps * (areas.max() * 41.0 + w0_area)
    args = (np.full((1, 4), -4.0), np.full((1, 4), 4.0), P, areas, w0_area, threshold, allowance,
            32**4)
    counts, cells = contraction._bisect(*args)
    want_counts, want_cells = _reference_bisect(*args)
    assert counts == want_counts
    for got, want in zip(cells, want_cells):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_lattice_bisection_in_chunks_of_three_lattices(body_c, monkeypatch):
    # the deepest level of 9,936 cells spans 207 chunks
    P, areas, w0_area = _family_tables(body_c, (0.02, 0.05, 0.1), 64, 0)
    args = (np.full((1, 4), -4.0), np.full((1, 4), 4.0), P, areas, w0_area, 0.01, 0.0, 32**4)
    want_counts, want_cells = contraction._bisect(*args)
    monkeypatch.setattr(contraction, "_TABLE", 3 * 81 * areas.size)
    counts, cells = contraction._bisect(*args)
    assert counts == want_counts and max(counts) == 9936
    for got, want in zip(cells, want_cells):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lattices", [None, 1], ids=["default-chunks", "one-lattice-chunks"])
def test_failing_corner_is_least_of_its_level(body_c, lattices, monkeypatch):
    # at threshold 0.0145 corners fail in several chunks of one level, and an earlier chunk's
    # least corner is not the level's least
    P, areas, w0_area = _family_tables(body_c, (0.02, 0.05, 0.1), 64, 0)
    args = (np.full((1, 4), -4.0), np.full((1, 4), 4.0), P, areas, w0_area, 0.0145, 0.0, 32**4)
    with pytest.raises(bh.CertificateFailed) as want:
        _reference_bisect(*args)
    if lattices is not None:
        monkeypatch.setattr(contraction, "_TABLE", lattices * 81 * areas.size)
    with pytest.raises(bh.CertificateFailed) as err:
        contraction._bisect(*args)
    assert err.value.point == want.value.point == (0.0859375, 0.109375, -0.0703125, 0.0859375)
    assert err.value.max_gap == want.value.max_gap and err.value.reason == "bisection corner"


_FAILURES = {
    "cross4": (lambda: bh.make_cross_polytope(4), {}, (-1.0, -1.0, -0.75, -0.5), 0.0,
               "grid minimum"),
    "bisection-corner": (
        bh.make_rotated_cross_polytope,
        dict(gap_threshold=0.02, box_halfwidth=2.0, grid_n=21, eps_set=(0.05,), extra_planes=4),
        (-0.125, 0.0, -0.25, -0.125), 0.013812251522859476, "bisection corner"),
    "budget": (
        bh.make_rotated_cross_polytope, dict(gap_threshold=0.0139, grid_n=21, extra_planes=8),
        (-0.080078125, -0.080078125, 0.080078125, -0.080078125), 0.012393184138640519,
        "bisection budget of 160000 cells exhausted with 3074 cells open"),
}


@pytest.mark.parametrize("table", [None, 3 * 81 * 17], ids=["one-chunk", "chunks-of-lattices"])
@pytest.mark.parametrize("case", list(_FAILURES))
def test_certificate_failures_are_pinned(case, table, monkeypatch):
    # a failing bisection corner is the least of its level, whatever the chunking
    make_body, kwargs, point, max_gap, reason = _FAILURES[case]
    if table is not None:
        monkeypatch.setattr(contraction, "_TABLE", table)
    with pytest.raises(bh.CertificateFailed) as err:
        bh.certify_no_contraction(make_body(), **kwargs)
    assert err.value.point == point
    assert err.value.max_gap == max_gap and err.value.reason == reason


def test_default_certificate_is_pinned(body_c):
    cert = bh.certify_no_contraction(body_c)
    assert cert.box["cells_per_level"] == [1, 16, 192, 192, 192, 192, 192, 128, 128, 384]
    assert cert.global_min_max_gap.hex() == "0x1.75168bd3d0f89p-10"
    assert sum(cert.witness_counts.values()) == 1516
    cert = bh.certify_no_contraction(body_c, gap_threshold=0.01)
    assert cert.box["cells_per_level"] == [1, 16, 192, 192, 192, 192, 192, 800, 1600, 6336, 9936]


def test_verified_cells_bound_sampled_family_gaps(body_c):
    kwargs = dict(box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1)
    cert = bh.certify_no_contraction(body_c, **kwargs)
    labels, planes = contraction._build_family(body_c, (0.05, 0.1), 8, 1)
    assert labels == cert.family_labels
    gen = np.random.default_rng(11)
    bounds = cert.cell_bounds
    lowest = np.argsort(bounds, kind="stable")[:60]
    cells = np.concatenate([lowest, gen.choice(bounds.size, 60, replace=False)])

    def family_max(point):
        p = bh.ProjectionW0(*point)
        return max(bh.area_factor(p, pl) * ar - cert.w0_area for pl, ar in zip(planes, cert.plane_areas))

    for n in cells:
        lo, hi = cert.cell_lo[n], cert.cell_hi[n]
        for _ in range(3):
            point = lo + gen.uniform(0.0, 1.0, 4) * (hi - lo)
            assert family_max(point) >= bounds[n]
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
    assert box["cells_per_level"][0] == 1
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
    cert = bh.certify_no_contraction(body, grid_n=21)
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


@pytest.mark.parametrize("block", ["one-block", "row-blocks"])
@pytest.mark.parametrize("lattices", [1, 2, 3])
def test_grid_passes_match_corner_kernel_bitwise(lattices, block):
    # the lattice kernel adds tables of G and a H; every lattice point must carry the bits
    # of _signed_factors there, before any allowance is subtracted; up to three lattices of
    # 5 values per axis, different on each axis, scored in one call or one call per lattice,
    # as the chunks of _score split a level, with the same bits either way
    P, areas = _small_family()
    axes, w0_area = np.linspace(-4.0, 4.0, 5), 1.2
    vals = np.stack((np.stack((axes, 0.5 * axes + 0.25, -axes, axes ** 3 / 16.0)),
                     np.stack((0.25 * axes, axes, 0.75 - axes, -0.5 * axes)),
                     np.stack((-0.5 * axes, axes ** 2 / 4.0 - 2.0, 0.1 + axes, 2.0 - axes))))
    vals = vals[:lattices]
    lower, best = contraction._lattice_bounds(vals, P, areas, w0_area)
    if block == "row-blocks":
        rows = [contraction._lattice_bounds(vals[n:n + 1], P, areas, w0_area)
                for n in range(lattices)]
        row_lower, row_best = (np.concatenate(part) for part in zip(*rows))
        assert row_lower.tobytes() == lower.tobytes()
        lower, best = row_lower, row_best
    assert lower.shape == (lattices * 4 ** 4, areas.size)
    assert best.shape == (lattices, 5, 5, 5, 5)
    for n, *idx in np.ndindex(best.shape):
        point = vals[n, np.arange(4), idx]
        gaps = np.abs(contraction._signed_factors(*point, P.T)) * areas - w0_area
        assert best[(n, *idx)] == gaps.max()


def _family_tables(body, eps_set, extra_planes, seed):
    _, planes = contraction._build_family(body, eps_set, extra_planes, seed)
    areas, P = contraction._plane_tables(body, planes + [bh.w0_plane(4)])
    return P[:-1], areas[:-1], float(areas[-1])


def _full_grid_best(axes, P, areas, w0_area):
    """Best `_gaps` at every point of the grid ``axes``^4, one slab of the first axis at a time."""
    b, c, d = (x[..., None] for x in np.ix_(axes, axes, axes))
    return np.stack([contraction._gaps(a, b, c, d, P, areas, w0_area).max(axis=-1) for a in axes])


def _full_grid_minimum(axes, P, areas, w0_area):
    best = np.maximum(_full_grid_best(axes, P, areas, w0_area), -w0_area).ravel()
    return int(np.argmin(best)), float(best.min())


def _allowance(axes, areas, w0_area):
    """The certificate's rounding allowance for the box of the grid ``axes``."""
    R = float(axes[-1])
    return 64.0 * np.finfo(float).eps * (areas.max() * (1.0 + 4.0 * R + 2.0 * R * R) + w0_area)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["rotated-cross4", "euclid-n4", "cross4", "random-abs-sum-0"])
def test_grid_minimum_matches_full_scan(name, seed, monkeypatch):
    # the pruned search finds the full family's first argmin and its value, bit for bit, and
    # scores the same lattices whether a chunk holds a whole level or one lattice
    body = {"rotated-cross4": bh.make_rotated_cross_polytope,
            "euclid-n4": lambda: bh.make_euclidean_ball(4),
            "cross4": lambda: bh.make_cross_polytope(4),
            "random-abs-sum-0": lambda: random_abs_sum_body(0)}[name]()
    P, areas, w0_area = _family_tables(body, (0.02, 0.05, 0.1), 64, seed)
    kernel, scored = contraction._lattice_bounds, []

    def counting(vals, *args):
        scored.append(vals.shape[0])
        return kernel(vals, *args)

    monkeypatch.setattr(contraction, "_lattice_bounds", counting)
    for grid_n in (21, 25, 33):
        axes = np.linspace(-4.0, 4.0, grid_n)
        want_idx, want_value = _full_grid_minimum(axes, P, areas, w0_area)
        counts = []
        for table in (contraction._TABLE, 81 * areas.size):
            with monkeypatch.context() as patch:
                patch.setattr(contraction, "_TABLE", table)
                scored.clear()
                idx, value = contraction._grid_minimum(axes, P, areas, w0_area,
                                                       _allowance(axes, areas, w0_area))
            assert idx == want_idx
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            counts.append(sum(scored))
        assert counts[0] == counts[1]


@pytest.mark.parametrize("chunk_points", [None, 3], ids=["one-chunk", "chunks-of-3"])
def test_grid_minimum_returns_first_of_tied_minimizers(chunk_points, monkeypatch):
    # v9 repeated; w0 (area 0.97) is the best plane at thousands of points, all tied;
    # chunks of 3 points hold one lattice each, so the ties meet across chunks
    P, areas = _small_family()
    P, areas = P[[0, 1, 2, 3, 4, 0]], areas[[0, 1, 2, 3, 4, 0]]
    if chunk_points is not None:
        monkeypatch.setattr(contraction, "_TABLE", chunk_points * areas.size)
    axes, w0_area = np.linspace(-4.0, 4.0, 21), 1.2
    best = _full_grid_best(axes, P, areas, w0_area).ravel()
    assert np.count_nonzero(best == best.min()) > 1
    assert contraction._grid_minimum(
        axes, P, areas, w0_area, _allowance(axes, areas, w0_area)) == _full_grid_minimum(
        axes, P, areas, w0_area)


def test_grid_minimum_in_chunks_of_three_points(body_c, monkeypatch):
    P, areas, w0_area = _family_tables(body_c, (0.05, 0.1), 8, 1)
    monkeypatch.setattr(contraction, "_TABLE", 3 * areas.size)
    axes = np.linspace(-2.0, 2.0, 23)
    assert contraction._grid_minimum(
        axes, P, areas, w0_area, _allowance(axes, areas, w0_area)) == _full_grid_minimum(
        axes, P, areas, w0_area)


def test_euclidean_control_fails_before_witness_and_cells_passes(ball4, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("pass ran after a failing grid minimum")

    monkeypatch.setattr(contraction, "_bisect", must_not_run)
    with pytest.raises(bh.CertificateFailed) as err:
        bh.certify_no_contraction(
            ball4, box_halfwidth=2.0, grid_n=21, eps_set=(0.05, 0.1), extra_planes=8, seed=1
        )
    assert err.value.point == (0.0, 0.0, 0.0, 0.0)
    assert err.value.reason == "grid minimum"
    assert max(err.value.gaps.values()) <= 1e-12

