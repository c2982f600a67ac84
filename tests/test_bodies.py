import warnings

import numpy as np
import pytest

import bhdensity as bh
from bhdensity.bodies import gauge_power, minkowski_many
from conftest import SQRT2


def test_cross_polytope_examples(body_o):
    assert bh.minkowski(body_o, [1, 0, 0, 0]) == 1.0
    assert abs(bh.minkowski(body_o, [0.25, 0.25, 0.25, 0.25]) - 1.0) < 1e-15
    assert bh.minkowski(body_o, [0, 0, 0, 0]) == 0.0


def test_rotation_matrix_orthogonal():
    M = bh.rotation_matrix()
    assert np.abs(M.T @ M - np.eye(4)).max() < 1e-14


def test_rotated_functionals_match_display(body_c):
    s = 1.0 / SQRT2
    expected = np.array(
        [
            [s, 0.0, s, 0.0],
            [0.0, s, 0.0, -s],
            [0.5, -0.5, -0.5, -0.5],
            [0.5, 0.5, -0.5, 0.5],
        ]
    )
    assert np.array_equal(body_c.functionals, expected)


def test_rotated_body_examples(body_c):
    M = bh.rotation_matrix()
    assert abs(bh.minkowski(body_c, M @ np.array([1.0, 0, 0, 0])) - 1.0) < 1e-12
    assert abs(bh.minkowski(body_c, [2.0 - SQRT2, 0, 0, 0]) - 1.0) < 1e-12
    assert abs(bh.minkowski(body_c, M @ np.full(4, 0.25)) - 1.0) < 1e-12


def test_rotated_norm_equals_l1_of_preimage(body_c):
    M = bh.rotation_matrix()
    gen = np.random.default_rng(2)
    for _ in range(1000):
        x = gen.standard_normal(4)
        a = bh.minkowski(body_c, M @ x)
        b = np.abs(x).sum()
        assert abs(a - b) < 1e-12 * max(1.0, b)


def test_unbounded_body_rejected():
    with pytest.raises(ValueError):
        bh.AbsSumBody(np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 2.0, 0, 0]]))


def test_minkowski_product_and_complex():
    C = bh.make_rotated_cross_polytope()
    prod = bh.make_product(C, 1)
    assert bh.minkowski(prod, [0, 0, 0, 0, 1]) == 1.0
    z = bh.make_complex_lp(2.0, 2)
    assert bh.minkowski(z, [1, 0, 0, 0]) == 1.0


def test_product_law_exact():
    C = bh.make_rotated_cross_polytope()
    prod = bh.make_product(C, 1)
    gen = np.random.default_rng(3)
    for _ in range(100):
        x = gen.standard_normal(4)
        assert bh.minkowski(prod, np.append(x, 0.0)) == bh.minkowski(C, x)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_complex_gauge_matches_hypot_reference(p):
    body = bh.make_complex_lp(p, 3)
    X = np.random.default_rng(5).standard_normal((500, 6))
    X[:100, 0] = 0.0  # one coordinate of a pair exactly 0
    X[100:200, 3] = 0.0
    X[200:210, 4:] = 0.0  # a whole pair 0
    mods = np.hypot(X[:, 0::2], X[:, 1::2])
    ref = (mods**p).sum(axis=1) ** (1.0 / p)
    got = minkowski_many(body, X)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)



@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.25])
def test_complex_gauge_bits_match_two_branch_formula(p, k):
    # the earlier formula: a separate sqrt branch for p = 1 and a row sum
    rng = np.random.default_rng(k)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (3000, 1))
    X = rng.standard_normal((3000, 2 * k)) * scale
    sq = X[:, 0::2] ** 2 + X[:, 1::2] ** 2
    if p == 1.0:
        ref = np.sqrt(sq).sum(axis=1)
    else:
        ref = (sq ** (p / 2.0)).sum(axis=1) ** (1.0 / p)
    assert gauge_power(bh.make_complex_lp(p, k), X.T, 1.0).tobytes() == ref.tobytes()


def test_huge_p_is_refused_without_floating_point_warnings():
    # at p = 5000 every spot-check row takes the rescale pass, whose powers overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not positively homogeneous"):
            bh.make_complex_lp(5000, 2)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_complex_gauge_is_scale_safe(p):
    # squaring 1e200 overflows and squaring 1e-200 underflows; the gauge must not
    body = bh.make_complex_lp(p, 2)
    X = np.array([[1e200, 0.0, 0.0, 0.0], [1e-200, 0.0, 0.0, 0.0], [1e160, 1e160, 0.0, 0.0]])
    got = minkowski_many(body, X)
    want = np.array([1e200, 1e-200, SQRT2 * 1e160])
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 4e-16 * want)


def _row_gauge(body, X):
    """The row-major gauge formulas, one reduction per row."""
    if isinstance(body, bh.AbsSumBody):
        return np.abs(X @ body.functionals.T).sum(axis=1)
    if body.kind == "euclidean":
        return np.linalg.norm(X, axis=1)
    if body.kind == "complex_lp":
        sq = X[:, 0::2] ** 2 + X[:, 1::2] ** 2
        return (sq ** (body.p / 2.0)).sum(axis=1) ** (1.0 / body.p)
    nl = body.left.n
    return np.maximum(_row_gauge(body.left, X[:, :nl]), np.linalg.norm(X[:, nl:], axis=1))


_KERNEL_BODIES = {
    "abs-sum-k4": lambda: bh.AbsSumBody(np.random.default_rng(4).standard_normal((4, 4))),
    "abs-sum-k12": lambda: bh.AbsSumBody(np.random.default_rng(12).standard_normal((12, 6))),
    "euclidean6": lambda: bh.make_euclidean_ball(6),
    **{f"complex-lp-p{p:g}": (lambda p=p: bh.make_complex_lp(p, 3))
       for p in (1.0, 1.5, 2.0, 3.0, 7.25)},
    "product-cross4-2": lambda: bh.make_product(bh.make_cross_polytope(4), 2),
    "product-complex-lp-1": lambda: bh.make_product(bh.make_complex_lp(1.5, 2), 1),
}


@pytest.mark.parametrize("name", list(_KERNEL_BODIES))
def test_gauge_power_matches_row_gauge(name):
    body = _KERNEL_BODIES[name]()
    X = np.random.default_rng(7).standard_normal((2000, body.n))
    X[:100, 0:2] = 0.0  # a whole complex pair 0
    X[100:200, 2:4] = 0.0
    XT = np.ascontiguousarray(X.T)
    row = _row_gauge(body, X)
    eps = np.finfo(float).eps
    for got in (gauge_power(body, XT, 1.0), minkowski_many(body, X)):
        if name == "abs-sum-k12":
            # numpy adds a row of >= 8 terms pairwise, a column one term at a time
            assert np.all(np.abs(got - row) <= 4 * eps * row)
        else:
            assert got.tobytes() == row.tobytes()
    for q in (-2.0, -4.0):
        want = minkowski_many(body, X) ** q
        assert np.all(np.abs(gauge_power(body, XT, q) - want) <= 8 * eps * want)


def test_complex_homogeneity():
    body = bh.make_complex_lp(3.0, 2)
    gen = np.random.default_rng(4)
    for _ in range(200):
        z = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        lam = complex(gen.standard_normal(), gen.standard_normal())
        real = lambda zz: np.array([zz[0].real, zz[0].imag, zz[1].real, zz[1].imag])
        lhs = bh.minkowski(body, real(lam * z))
        rhs = abs(lam) * bh.minkowski(body, real(z))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: bh.make_cross_polytope(4),
        lambda: bh.make_rotated_cross_polytope(),
        lambda: bh.make_euclidean_ball(4),
        lambda: bh.make_complex_lp(1.5, 2),
        lambda: bh.make_product(bh.make_rotated_cross_polytope(), 2),
    ],
)
def test_triangle_inequality_sampled(make):
    body = make()
    gen = np.random.default_rng(5)
    for _ in range(1000):
        x = gen.standard_normal(body.n)
        y = gen.standard_normal(body.n)
        assert bh.minkowski(body, x + y) <= bh.minkowski(body, x) + bh.minkowski(body, y) + 1e-10


def test_body_json_round_trip(body_c):
    for body in (
        body_c,
        bh.make_euclidean_ball(5),
        bh.make_complex_lp(3.0, 3),
        bh.make_product(body_c, 1),
    ):
        back = bh.body_from_dict(bh.body_to_dict(body))
        gen = np.random.default_rng(6)
        for _ in range(20):
            x = gen.standard_normal(body.n)
            assert abs(bh.minkowski(body, x) - bh.minkowski(back, x)) < 1e-14
