import hashlib
import math

import numpy as np
import pytest

import bhdensity as bh
import bhdensity.sections as sections
from bhdensity.bodies import minkowski_many
from conftest import SQRT2, W0_AREA, clipped_section_area, embed_plane, random_abs_sum_body


def _radial_area(body, pl, n_angles):
    # the batched radial rule on one plane
    return sections._radial_areas(body, pl.u[None, :], pl.v[None, :], n_angles)[0][0]


def _constraints(body, pl):
    # pairs (a_j, b_j) with the section equal to {sum_j |a_j x + b_j y| <= 1}
    return sections._restrict(body.functionals, np.stack((pl.u, pl.v))).T


def test_w0_constraints(body_c):
    coeffs = _constraints(body_c, bh.w0_plane(4))
    s = 1.0 / SQRT2
    expected = np.array([[s, 0.0], [0.0, s], [0.5, -0.5], [0.5, 0.5]])
    assert np.abs(coeffs - expected).max() < 1e-15


def test_cross_polytope_constraints(body_o):
    coeffs = _constraints(body_o, bh.w0_plane(4))
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(coeffs, expected)


def test_v1_constraints_match_restriction(body_c):
    eps = 0.07
    s = math.sqrt(1.0 + eps * eps)
    coeffs = _constraints(body_c, bh.named_plane(1, eps))
    expected = np.array(
        [
            [(1 + eps) / (SQRT2 * s), 0.0],
            [0.0, (1 - eps) / (SQRT2 * s)],
            [(1 - eps) / (2 * s), -(1 + eps) / (2 * s)],
            [(1 - eps) / (2 * s), (1 + eps) / (2 * s)],
        ]
    )
    assert np.abs(coeffs - expected).max() < 1e-15


def test_w0_section_area_and_octagon(body_c):
    rep = bh.cross_section(body_c, bh.w0_plane(4))
    assert rep.method == "exact-halfplane"
    assert abs(rep.euclidean_area - W0_AREA) < 1e-12
    assert len(rep.polygon.vertices) == 8


def test_v9_section_area(body_c):
    rep = bh.cross_section(body_c, bh.named_plane(9))
    assert abs(rep.euclidean_area - 2.0) < 1e-12


def test_cross_polytope_coordinate_section(body_o):
    # e3 and e4 vanish on span(e1, e2): the section is the square |x| + |y| <= 1
    rep = bh.cross_section(body_o, bh.w0_plane(4))
    assert abs(rep.euclidean_area - 2.0) < 1e-12
    assert len(rep.polygon.vertices) == 4
    assert np.abs(np.abs(rep.polygon.vertices).sum(axis=1) - 1.0).max() < 1e-15


def test_euclidean_ball_section(ball4):
    rep = bh.cross_section(ball4, bh.random_plane(1, 4))
    assert rep.method == "radial(4096)"
    assert abs(rep.euclidean_area - math.pi) < 1e-6


def test_shoelace_examples():
    assert bh.shoelace_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0
    a = 2.0 - SQRT2
    b = SQRT2 - 1.0
    octagon = [(a, 0), (b, b), (0, a), (-b, b), (-a, 0), (-b, -b), (0, -a), (b, -b)]
    assert abs(bh.shoelace_area(octagon) - W0_AREA) < 1e-14
    assert bh.shoelace_area([(0, 0), (1, 1)]) == 0.0


@pytest.mark.parametrize("idx", range(1, 9))
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2])
def test_tilted_sections_are_octagons(body_c, idx, eps):
    rep = bh.cross_section(body_c, bh.named_plane(idx, eps))
    assert len(rep.polygon.vertices) == 8


def test_exact_vs_radial_agreement(body_c):
    for i in range(50):
        pl = bh.random_plane(123, 4, stream=i)
        exact = bh.cross_section(body_c, pl).euclidean_area
        radial = _radial_area(body_c, pl, 4096)
        assert abs(exact - radial) <= 5e-6 * exact


def test_section_symmetries(body_c):
    pl = bh.random_plane(3, 4)
    base = bh.cross_section(body_c, pl).euclidean_area
    swapped = bh.cross_section(body_c, bh.Plane2(pl.v, pl.u)).euclidean_area
    flipped = bh.cross_section(body_c, bh.Plane2(-pl.u, pl.v)).euclidean_area
    assert abs(base - swapped) < 1e-12
    assert abs(base - flipped) < 1e-12


def test_section_scaling_quadratic(body_c):
    scaled = bh.AbsSumBody(body_c.functionals / 2.0)  # = 2 * body
    pl = bh.random_plane(8, 4)
    a1 = bh.cross_section(body_c, pl).euclidean_area
    a2 = bh.cross_section(scaled, pl).euclidean_area
    assert abs(a2 - 4.0 * a1) < 1e-10 * a2


def test_unbounded_section_detected():
    # spanning is enforced at construction, so feed the raw batch evaluator a
    # functional set whose plane restriction collapses to one direction
    L = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [3.0, 0, 0, 0], [0.0, 0, 0, 1.0]])
    w0 = bh.w0_plane(4)
    with pytest.raises(bh.UnboundedSection):
        bh.abs_sum_section_areas(L, w0.u[None, :], w0.v[None, :])


def test_batch_areas_match_clipping():
    # 4-functional bodies, then k = 8 and 12, whose gauges sum 8 and 12 terms
    cases = [(random_abs_sum_body(seed), bh.random_plane(seed, 4)) for seed in range(60)]
    for k in (8, 12):
        body = bh.AbsSumBody(np.random.default_rng(k).standard_normal((k, 4)))
        cases += [(body, bh.random_plane(k, 4, stream=i)) for i in range(4)]
    for body, pl in cases:
        oracle = clipped_section_area(body.functionals, pl)
        exact = bh.cross_section(body, pl).euclidean_area
        fast = bh.abs_sum_section_areas(body.functionals, pl.u[None, :], pl.v[None, :])[0]
        assert abs(exact - oracle) < 1e-12 * oracle
        assert abs(fast - oracle) < 1e-12 * oracle


def test_batch_areas_vectorized(body_c):
    planes = bh.random_planes(55, 4, 128)
    U = np.array([p.u for p in planes])
    V = np.array([p.v for p in planes])
    areas = bh.abs_sum_section_areas(body_c.functionals, U, V)
    for k in (0, 17, 127):
        assert abs(areas[k] - clipped_section_area(body_c.functionals, planes[k])) < 1e-12


def _plane_rows(planes):
    return np.array([p.u for p in planes]), np.array([p.v for p in planes])


def test_section_areas_match_cross_section_abs_sum(body_c):
    # one batched kernel call against the per-plane polygons, bit for bit
    many = [bh.AbsSumBody(np.random.default_rng(k).standard_normal((k, 4))) for k in (8, 12, 24)]
    for seed, body in enumerate([body_c, random_abs_sum_body(4), *many]):
        planes = bh.random_planes(seed, 4, 64)
        areas = bh.section_areas(body, *_plane_rows(planes))
        exact = np.array([bh.cross_section(body, pl).euclidean_area for pl in planes])
        assert areas.tobytes() == exact.tobytes()


def test_section_areas_do_not_depend_on_the_batch(body_c):
    # a plane's area bits are the same in a batch, alone and in cross_section
    planes = bh.random_planes(7, 4, 2000)
    U, V = _plane_rows(planes)
    batched = bh.section_areas(body_c, U, V)
    alone = [bh.section_areas(body_c, U[i : i + 1], V[i : i + 1])[0] for i in range(len(planes))]
    exact = [bh.cross_section(body_c, pl).euclidean_area for pl in planes]
    assert batched.tolist() == alone == exact


@pytest.mark.parametrize("radial_n", [1, 2])
def test_radial_n_below_three_is_refused(ball4, radial_n):
    with pytest.raises(ValueError, match="radial_n must be >= 3"):
        bh.cross_section(ball4, bh.w0_plane(4), radial_n)


@pytest.mark.parametrize("radial_n", [None, 1000])
def test_section_areas_smooth_bodies_are_cross_section(ball4, radial_n, monkeypatch):
    # the batched radial rule gives cross_section's bits over several ray chunks (16 planes
    # each at 4096 angles, 65 at 1000), and a product plane inside the left factor takes the
    # factor's exact section in a batch as alone
    if radial_n is not None:
        monkeypatch.setattr(bh.TOL, "radial_n", radial_n)
    prod = bh.make_product(bh.make_cross_polytope(4), 2)
    for seed, body in enumerate((ball4, bh.make_complex_lp(3.0, 2), prod)):
        planes = bh.random_planes(seed, body.n, 150)
        if body is prod:
            inside = bh.random_planes(seed, 4, 50)
            planes[::3] = [embed_plane(pl, 6) for pl in inside]
        areas = bh.section_areas(body, *_plane_rows(planes))
        exact = [bh.cross_section(body, pl, radial_n).euclidean_area for pl in planes]
        assert areas.tolist() == exact
    # the product batch starts with a plane inside the left factor and one outside
    methods = [bh.cross_section(prod, pl).method for pl in planes[:2]]
    assert methods == ["exact-halfplane", f"radial({bh.TOL.radial_n})"]


FOUR_BODIES = pytest.mark.parametrize(
    "make",
    [
        bh.make_rotated_cross_polytope,
        lambda: bh.make_euclidean_ball(4),
        lambda: bh.make_complex_lp(1.5, 2),
        lambda: bh.make_product(bh.make_cross_polytope(4), 2),
    ],
    ids=["rotated-cross4", "euclidean4", "complex-lp-1.5-2", "product-cross4-2"],
)


@FOUR_BODIES
def test_area_callers_are_cross_section(make):
    # contraction_gap, bh_density_2 and bh_area take their areas from section_areas, bitwise
    # their formulas on cross_section's area; on the product half the planes lie in the left factor
    body = make()
    planes = bh.random_planes(11, body.n, 6)
    if body.n == 6:
        planes[::2] = [embed_plane(pl, 6) for pl in bh.random_planes(11, 4, 3)]
        assert {bh.cross_section(body, pl).method for pl in planes[:2]} == {
            "exact-halfplane", f"radial({bh.TOL.radial_n})"}
    w0_area = bh.cross_section(body, bh.w0_plane(body.n)).euclidean_area
    proj = bh.ProjectionW0(0.1, -0.2, 0.3, 0.05)
    for pl in planes:
        area = bh.cross_section(body, pl).euclidean_area
        assert bh.contraction_gap(body, proj, pl) == bh.area_factor(proj, pl) * area - w0_area
        assert bh.bh_area(body, pl, 0.7) == math.pi * 0.7 / area
        w = bh.wedge(pl.u, pl.v)
        w_area = bh.cross_section(body, bh.plane_from_bivector(w)).euclidean_area
        assert bh.bh_density_2(body, w).value == math.pi * w.norm / w_area


@FOUR_BODIES
def test_section_areas_refuse_bad_rows(make):
    # every body class checks its rows once: shape (m, body.n), then Plane2's basis rule
    body = make()
    U, V = _plane_rows(bh.random_planes(3, body.n, 4))
    pad = np.zeros((4, 1))
    for bad in ((np.hstack((U, pad)), np.hstack((V, pad))), (U, V[:3]), (U[0], V[0])):
        with pytest.raises(bh.DimensionMismatch):
            bh.section_areas(body, *bad)
    for row, scale, message in ((1, 2.0, "unit length"), (2, np.nan, "unit length")):
        scaled = U.copy()
        scaled[row] *= scale
        with pytest.raises(bh.DegenerateSpan, match=message):
            bh.section_areas(body, scaled, V)
    skew = V.copy()
    skew[0] = (U[0] + V[0]) / SQRT2
    with pytest.raises(bh.DegenerateSpan, match="orthogonal"):
        bh.section_areas(body, U, skew)


def test_abs_sum_section_areas_refuse_rows_of_another_dimension(body_c):
    U, V = _plane_rows(bh.random_planes(3, 5, 4))
    with pytest.raises(bh.DimensionMismatch):
        bh.abs_sum_section_areas(body_c.functionals, U, V)


def _assert_distinct_vertices(vertices):
    gaps = np.linalg.norm(vertices[:, None, :] - vertices[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_parallel_functionals_merged(body_c, seed):
    # a repeated row, an opposite row and a multiple all add to one kink ray,
    # so each body equals the one with that row scaled by the summed weight
    L = body_c.functionals
    pl = bh.random_plane(seed, 4)
    for extra, weight in ((L[1], 2.0), (-L[1], 2.0), (3.0 * L[1], 4.0)):
        grown = bh.cross_section(bh.AbsSumBody(np.vstack((L, extra))), pl)
        scaled = L.copy()
        scaled[1] *= weight
        merged = bh.cross_section(bh.AbsSumBody(scaled), pl)
        assert abs(grown.euclidean_area - merged.euclidean_area) < 1e-14 * merged.euclidean_area
        assert len(grown.polygon.vertices) == len(merged.polygon.vertices) == 8
        _assert_distinct_vertices(grown.polygon.vertices)
        oracle = clipped_section_area(np.vstack((L, extra)), pl)
        assert abs(grown.euclidean_area - oracle) < 1e-12 * oracle


def test_many_functionals_section():
    # 2^24 sign patterns: only a polynomial kernel returns here
    L = np.random.default_rng(24).standard_normal((24, 4))
    body = bh.AbsSumBody(L)
    for i in range(3):
        pl = bh.random_plane(24, 4, stream=i)
        rep = bh.cross_section(body, pl)
        radial = _radial_area(body, pl, 4096)
        assert abs(rep.euclidean_area - radial) <= 5e-6 * rep.euclidean_area
        assert len(rep.polygon.vertices) == 48
        _assert_distinct_vertices(rep.polygon.vertices)


@pytest.mark.parametrize(
    "make",
    [
        lambda: bh.make_complex_lp(1.5, 2),
        lambda: bh.make_euclidean_ball(4),
        lambda: bh.make_product(bh.make_cross_polytope(4), 2),
    ],
    ids=["complex-lp-1.5-2", "euclidean4", "product-cross4-2"],
)
def test_radial_section_bits_match_row_major_rays(make):
    # coordinate-major rays read by the gauge as rows give the row-major formula's bits
    body = make()
    n_angles = 4096
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    for i in range(4):
        pl = bh.random_plane(5, body.n, stream=i)
        rays = np.cos(theta)[:, None] * pl.u[None, :] + np.sin(theta)[:, None] * pl.v[None, :]
        r = 1.0 / minkowski_many(body, rays)
        area = float(np.pi / n_angles * np.dot(r, r))
        assert _radial_area(body, pl, n_angles) == area


def test_product_plane_delegation(body_c):
    prod = bh.make_product(body_c, 1)
    pl4 = bh.random_plane(9, 4)
    pl5 = embed_plane(pl4, 5)
    a4 = bh.cross_section(body_c, pl4)
    a5 = bh.cross_section(prod, pl5)
    assert a5.method == "exact-halfplane"
    assert a5.euclidean_area == a4.euclidean_area


def test_least_area_section_sampled(body_c):
    planes = bh.random_planes(2024, 4, 2000)
    U = np.array([p.u for p in planes])
    V = np.array([p.v for p in planes])
    areas = bh.abs_sum_section_areas(body_c.functionals, U, V)
    assert areas.min() >= W0_AREA - 1e-9


def _fan_inputs(k, planes):
    # restricted functionals of a seeded k-functional abs-sum body on `planes` random planes;
    # functional 1 is parallel to functional 0 on rows 0, 3, 6, ..., functional 3 antiparallel
    # to functional 2 on rows 1, 6, 11, ... and functional 2 vanishes on rows 2, 9, 16, ...
    gen = np.random.default_rng(k)
    L = bh.AbsSumBody(gen.standard_normal((k, 4))).functionals
    A, Bc = (sections._restrict(L, X) for X in gen.standard_normal((2, planes, 4)))
    for X in (A, Bc):
        X[::3, 1] = 2.5 * X[::3, 0]
        X[1::5, 3] = -X[1::5, 2]
        X[2::7, 2] = 0.0
    return A, Bc


def _fan_digest(results):
    h = hashlib.sha256()
    for areas, z, keep in results:
        h.update(areas.tobytes() + z.tobytes() + keep.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "k, batch_digest, row_digest",
    [
        (4, "f29dfe2ef1d63d773772e80382b316fab2f0d8bc722c117053d496558da8f46c",
         "9a09fda8a45381ede43fb3b274adfa777f9225248bfca5d3f9ff213d34e55e4d"),
        (8, "133acb3680958d298bebf13fd553c978f6dfe9967b3d2ec634474d31de1be039",
         "11d7c17cef79e51510891534fcd2ebb81d785df600aed55a94aa703cc8869f25"),
        (12, "86e7fab1a147c1957a6b0e5506bcc3a8dbcf523bcea1dffa80d2b55a662c252e",
         "38fede640a60b64141783499f82d785d27f38552023875e7dff2b803a50a056b"),
    ],
)
def test_section_fan_bits_are_pinned(k, batch_digest, row_digest):
    # areas, sorted boundary points and vertex masks of 3,072 planes in one call, and of the
    # first 4 planes one call each, against digests of the kernel's bits
    A, Bc = _fan_inputs(k, 3072)
    assert _fan_digest([sections.section_fan(A, Bc)]) == batch_digest
    rows = [sections.section_fan(A[i : i + 1], Bc[i : i + 1]) for i in range(4)]
    assert _fan_digest(rows) == row_digest
